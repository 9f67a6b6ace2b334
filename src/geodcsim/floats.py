"""Floats in and out: the one check of a number read from an input, and float
addition on the output path.

Every number read from outside the program (a config key, a trace field, a CSV
cell, a JSON value, a public constructor's argument) passes ``checked``, whose
``ValueError`` reads ``<what>: <reason>`` for a value that is no number and
``<what> must ...`` for one not finite or off its domain.

Every total that reaches a step log, a KPI, a reward or an observation adds its
terms with ``left_sum``: left to right from 0, one rounding per addition. That
is what ``sum()`` does up to Python 3.11. From 3.12, ``sum()`` compensates the
rounding of float terms (Neumaier, 1974), which can move the last bit, so the
output path does not call it.
"""

from __future__ import annotations

import functools
import math
import operator
import sys


def checked(value, what: str, lo=-math.inf, hi=math.inf, lo_open=False, *, kind=float):
    """``value`` as a finite ``kind`` in ``[lo, hi]``, or ``(lo, hi]`` with ``lo_open``.
    An ``int`` kind, for a count or an id, is exact at any size: its domain bounds it.
    It takes a number only if it is whole, where ``int()`` would drop the fraction."""
    if isinstance(value, bool):
        raise ValueError(f"{what}: must be a number, not true or false")
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} must fit a float")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # text, null, int(inf)
        raise ValueError(f"{what}: {exc}") from exc
    if number != number or abs(number) == math.inf:
        raise ValueError(f"{what} must be finite")
    if kind is int and number != value and not isinstance(value, str):  # int(4.7) is 4
        raise ValueError(f"{what} must be a whole number")
    if (number <= lo if lo_open else number < lo) or number > hi:
        domain = (f"be {'>' if lo_open else '>='} {lo:g}" if hi == math.inf
                  else f"lie in {'(' if lo_open else '['}{lo:g}, {hi:g}]")
        raise ValueError(f"{what} must {domain}")
    return number


def left_sum(values):
    """``values`` added left to right, starting from the int 0 as ``sum()`` does."""
    return functools.reduce(operator.add, values, 0)
