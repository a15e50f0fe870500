"""Exact scaled powers of e and their decimal rendering."""

from decimal import Decimal

import pytest
from hypothesis import assume, given, strategies as st
from mpmath import mp

from kurepa.efactor import (
    EScaled,
    dobinski,
    fermi,
    format_significant,
    inv_dobinski,
)


def test_zero_is_canonical():
    z = EScaled(0, 7)
    assert z.epower == 0
    assert str(z) == "0*e^0"
    assert EScaled(0, 5) == EScaled(0, 0)
    assert str(EScaled(Decimal(0), 3)) == "0*e^0"


def test_coefficient_is_kept_as_given():
    assert type(EScaled(3, 1).coeff) is int
    assert type(EScaled(Decimal(3), 1).coeff) is Decimal
    assert EScaled(Decimal(3), 1) == EScaled(3, 1)


def test_str_rendering():
    assert str(EScaled(5, 1)) == "5*e^1"
    assert str(EScaled(-3, -2)) == "-3*e^-2"
    assert str(EScaled(Decimal(52), 2)) == "52*e^2"


def test_named_constructors():
    assert dobinski(3) == EScaled(5, 1)
    assert str(dobinski(3)) == "5*e^1"
    assert fermi(4) == EScaled(15, 2)
    # the n = 2 complementary Bell number is 0, so the epower collapses
    assert inv_dobinski(2) == EScaled(0, 0)
    assert str(inv_dobinski(2)) == "0*e^0"
    assert inv_dobinski(3) == EScaled(1, -1)


def test_format_significant_zero_padding():
    assert format_significant(0, 1) == "0"
    assert format_significant(0, 4) == "0.000"


def test_format_significant_accepts_plain_floats():
    # a float renders from its exact binary value
    assert format_significant(0.01, 8) == "0.010000000"
    assert format_significant(99.50083333194551, 8) == "99.500833"


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=1, max_value=40))
def test_format_significant_follows_nstr(x, digits):
    # mpmath as the independent oracle; zero has its own padded form
    assume(x != 0)
    # nstr truncates the binary value before it rounds, so just above a tie
    # it rounds down; test_format_significant_rounds_the_exact_value pins that
    tail = "".join(map(str, Decimal(abs(x)).as_tuple().digits))[digits:]
    assume(not tail.startswith("5000") or tail.rstrip("0") == "5")
    assert format_significant(x, digits) == mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def test_format_significant_edge_shapes():
    assert format_significant(0.0, 3) == format_significant(Decimal(0), 3) == "0.00"
    assert format_significant(-0.0, 1) == "0"
    # one digit in scientific form keeps its point, as does a fixed integer part
    assert format_significant(3e-30, 1) == "3.e-30"
    assert format_significant(-2.5e7, 1) == "-3.e+7"
    assert format_significant(123.4, 3) == "123."
    assert format_significant(Decimal("9.996"), 3) == "10.0"
    # fixed notation down to exponent min(-(digits // 3), -5), exclusive
    assert format_significant(1.5e-4, 2) == "0.00015"
    assert format_significant(1.5e-5, 2) == "1.5e-5"
    assert format_significant(1.5e-6, 21) == "0.00000150000000000000003800"
    assert format_significant(1.5e-7, 21) == "1.49999999999999993212e-7"
    assert format_significant(1e20, 3) == "1.00e+20"


def test_format_significant_rounds_the_exact_value():
    # the float 48.505 is 48.50500000000000255..., so it rounds up; nstr
    # truncates the binary value before rounding and prints 48.50
    assert format_significant(48.505, 4) == "48.51"
    assert format_significant(1.25, 2) == "1.3"
    assert format_significant(-1.25, 2) == "-1.3"


def test_format_significant_rejects_bad_digits():
    with pytest.raises(ValueError):
        format_significant(1.5, 0)


@given(st.integers(min_value=0, max_value=30))
def test_dobinski_tracks_bell(n):
    from kurepa.sequences import bell

    assert dobinski(n).coeff == bell(n)
    assert fermi(n).coeff == bell(n)
    if bell(n) != 0:
        assert dobinski(n).epower == 1
        assert fermi(n).epower == 2
