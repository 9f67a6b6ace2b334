"""Floats in and out: the one check of a number read from an input, and float
addition on the output path.

Every number read from outside the program (a config key, a trace field, a CSV
cell, a JSON value, a public constructor's argument) passes ``checked`` as its file
writes it: text is no number, except a CSV cell or a trace's numeric text, which
``parsed`` reads. The ``ValueError`` reads ``<what>: <reason>`` for a value that is
no number and ``<what> must ...`` for one not finite or off its domain.

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

from .errors import within


def checked(value, what: str, lo=-math.inf, hi=math.inf, lo_open=False, *, kind=float):
    """``value``, a number and not text, as a finite ``kind`` in ``[lo, hi]``, or
    ``(lo, hi]`` with ``lo_open``. An ``int`` kind, for a count or an id, is exact at any
    size, its domain bounding it, and takes a number only if whole: ``int()`` drops a fraction."""
    if isinstance(value, (bool, str, bytes)):  # True is the int 1, and float("7") is 7.0
        raise ValueError(f"{what}: must be a number, not "
                         + ("true or false" if isinstance(value, bool) else "text"))
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} must fit a float")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # null, a list, int(inf)
        raise ValueError(f"{what}: {exc}") from exc
    if number != number or abs(number) == math.inf:
        raise ValueError(f"{what} must be finite")
    if kind is int and number != value:  # int(4.7) is 4
        raise ValueError(f"{what} must be a whole number")
    if (number <= lo if lo_open else number < lo) or number > hi:
        domain = (f"be {'>' if lo_open else '>='} {lo:g}" if hi == math.inf
                  else f"lie in {'(' if lo_open else '['}{lo:g}, {hi:g}]")
        raise ValueError(f"{what} must {domain}")
    return number


def parsed(text: str, what: str) -> float:
    """The finite float that ``text``, a CSV cell or a trace's numeric text, writes as
    a decimal number. ``float()`` also reads digit-group underscores and non-ASCII
    digits (``1_5`` is 15.0, ``١٢`` 12.0); those are refused."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{what}: not a decimal number: {text!r}")
    with within(what, ValueError):
        number = float(text)
    return checked(number, what)


def left_sum(values):
    """``values`` added left to right, starting from the int 0 as ``sum()`` does."""
    return functools.reduce(operator.add, values, 0)
