"""``floats.checked``, the one check of a number read from an input; ``floats.parsed``,
the one reading of a number written as text; and the guard that keeps every other
module from growing a finiteness test of its own."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from geodcsim.floats import checked, parsed

SRC = Path(__file__).resolve().parent.parent / "src" / "geodcsim"


class TestChecked:
    @pytest.mark.parametrize("read, value, expected", [
        (checked, 2, 2.0), (parsed, "1.5", 1.5), (parsed, " -3e2 ", -300.0),
        (checked, 0.0, 0.0), (checked, -0.0, -0.0), (parsed, "-0", -0.0),
        (parsed, "+.5", 0.5), (parsed, "1.", 1.0), (parsed, "\t7E+1\n", 70.0),
    ], ids=["int", "text", "padded_text", "zero", "negative_zero", "negative_zero_text",
            "plus_leading_point", "trailing_point", "exponent_in_whitespace"])
    def test_a_number_is_cast_to_a_float(self, read, value, expected):
        """A number as ``checked`` takes it, or its text as ``parsed`` reads it: a sign,
        digits, a point, an exponent and surrounding whitespace."""
        got = read(value, "x")
        assert type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, expected)
        assert got == expected

    @pytest.mark.parametrize("value, message", [
        (True, "x: must be a number, not true or false"),
        (False, "x: must be a number, not true or false"),
        ("abc", "x: must be a number, not text"),
        ("7", "x: must be a number, not text"),
        (b"7", "x: must be a number, not text"),
        (None, "x: float() argument must be a string or a real number, not 'NoneType'"),
        ([1], "x: float() argument must be a string or a real number, not 'list'"),
        (math.nan, "x must be finite"),
        (math.inf, "x must be finite"),
        (-math.inf, "x must be finite"),
        ("inf", "x: must be a number, not text"),
        ("1e400", "x: must be a number, not text"),
        (10**400, "x must fit a float"),
        (-10**400, "x must fit a float"),
    ], ids=["true", "false", "text", "numeric_text", "bytes", "null", "list", "nan", "inf",
            "minus_inf", "inf_text", "overflowing_text", "huge_int", "huge_negative_int"])
    def test_what_is_no_finite_number_is_one_named_value_error(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked(value, "x")

    @pytest.mark.parametrize("value, lo, hi, lo_open, message", [
        (-1.0, 0.0, math.inf, False, "x must be >= 0"),
        (0.0, 0.0, math.inf, True, "x must be > 0"),
        (101.0, 0.0, 100.0, False, "x must lie in [0, 100]"),
        (0.0, 0.0, 1.0, True, "x must lie in (0, 1]"),
        (1.5, 0.0, 1.0, True, "x must lie in (0, 1]"),
        (14.0, 15.0, math.inf, False, "x must be >= 15"),
    ], ids=["below_closed", "at_open", "above", "at_open_of_two", "above_open", "floor"])
    def test_a_number_off_its_domain_names_the_domain(self, value, lo, hi, lo_open, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked(value, "x", lo, hi, lo_open)

    @pytest.mark.parametrize("text, message", [
        ("abc", "x: could not convert string to float: 'abc'"),
        ("", "x: could not convert string to float: ''"),
        ("inf", "x must be finite"),
        ("nan", "x must be finite"),
        (" -Infinity\t", "x must be finite"),
        ("1e400", "x must be finite"),
        ("1_5", "x: not a decimal number: '1_5'"),
        ("1_000.25", "x: not a decimal number: '1_000.25'"),
        ("1e1_0", "x: not a decimal number: '1e1_0'"),
        ("\u0661\u0662", "x: not a decimal number: '\u0661\u0662'"),
        ("\uff17", "x: not a decimal number: '\uff17'"),
        ("-\u0663.5", "x: not a decimal number: '-\u0663.5'"),
    ], ids=["text", "empty", "inf", "nan", "padded_minus_infinity", "overflowing",
            "underscore", "grouped", "underscore_in_exponent", "arabic_indic_digits",
            "fullwidth_digit", "signed_arabic_indic_digit"])
    def test_text_that_writes_no_finite_number_is_one_named_value_error(self, text, message):
        """``parsed`` names the text it cannot read once, and leaves ``checked``'s
        message whole."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parsed(text, "x")

    def test_domain_bounds_are_inclusive_unless_the_lower_one_is_open(self):
        assert checked(0.0, "x", 0.0, 1.0) == 0.0
        assert checked(1.0, "x", 0.0, 1.0, True) == 1.0
        assert checked(1e-300, "x", 0.0, lo_open=True) == 1e-300

    def test_an_int_kind_is_exact_at_any_size_and_bounded_by_its_domain(self):
        assert checked(10**400, "n", kind=int) == 10**400
        assert checked(4.0, "n", kind=int) == 4 and type(checked(4.0, "n", kind=int)) is int
        with pytest.raises(ValueError, match=r"^n must lie in \[1, 100000\]$"):
            checked(10**400, "n", 1, 100_000, kind=int)
        with pytest.raises(ValueError, match="^n: cannot convert float infinity to integer$"):
            checked(-math.inf, "n", kind=int)
        with pytest.raises(ValueError, match="^n: must be a number, not true or false$"):
            checked(True, "n", kind=int)
        with pytest.raises(ValueError, match="^n: must be a number, not text$"):
            checked("7", "n", kind=int)

    @pytest.mark.parametrize("value", [4.7, 0.999, -0.5, np.float64(2.5)])
    def test_an_int_kind_refuses_a_fraction(self, value):
        """``int()`` drops it: 4.7 racks were 4, and 0.999 CPUs none."""
        with pytest.raises(ValueError, match="^n must be a whole number$"):
            checked(value, "n", kind=int)


def test_no_module_but_floats_tests_finiteness_its_own_way():
    """``checked`` owns "a finite number": no other module calls ``math.isfinite`` or
    compares with ``sys.float_info.max``, so the idioms cannot come back one module
    at a time."""
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "floats.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "math.isfinite" in line or "float_info.max" in line
    ]
    assert list(SRC.glob("*.py")) and offenders == []
