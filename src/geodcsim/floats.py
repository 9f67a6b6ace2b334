"""Float addition on the output path.

Every total that reaches a step log, a KPI, a reward or an observation adds its
terms with ``left_sum``: left to right from 0, one rounding per addition. That
is what ``sum()`` does up to Python 3.11. From 3.12, ``sum()`` compensates the
rounding of float terms (Neumaier, 1974), which can move the last bit, so the
output path does not call it.
"""

from __future__ import annotations

import functools
import operator


def left_sum(values):
    """``values`` added left to right, starting from the int 0 as ``sum()`` does."""
    return functools.reduce(operator.add, values, 0)
