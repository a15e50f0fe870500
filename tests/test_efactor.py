"""Exact scaled powers of e and their decimal rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kurepa.efactor import (
    EScaled,
    dobinski,
    fermi,
    format_significant,
    inv_dobinski,
)

coeffs = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=16
)
powers = st.integers(min_value=-4, max_value=4)


def test_zero_is_canonical():
    z = EScaled(0, 7)
    assert z.epower == 0
    assert str(z) == "0*e^0"


def test_add_same_power():
    assert EScaled(2, 1) + EScaled(3, 1) == EScaled(5, 1)


def test_add_mismatched_powers_raises():
    with pytest.raises(ValueError):
        EScaled(2, 1) + EScaled(3, 2)


@given(coeffs, powers)
def test_zero_is_additive_identity(c, s):
    x = EScaled(c, s)
    assert EScaled(0, 3) + x == x
    assert x + EScaled(0, -2) == x


@given(coeffs, coeffs, powers)
def test_addition_commutes(a, b, s):
    assert EScaled(a, s) + EScaled(b, s) == EScaled(b, s) + EScaled(a, s)


@given(coeffs, powers, coeffs, powers)
def test_multiplication_adds_powers(a, sa, b, sb):
    got = EScaled(a, sa) * EScaled(b, sb)
    assert got.coeff == a * b
    if a * b != 0:
        assert got.epower == sa + sb


def test_scalar_multiplication():
    assert 3 * EScaled(5, 1) == EScaled(15, 1)
    assert EScaled(5, 1) * Fraction(1, 5) == EScaled(1, 1)
    assert -EScaled(5, 2) == EScaled(-5, 2)


def test_str_rendering():
    assert str(EScaled(5, 1)) == "5*e^1"
    assert str(EScaled(Fraction(-3, 2), -2)) == "-3/2*e^-2"


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
    # regression: nstr silently falls back to str() for unknown types
    assert format_significant(0.01, 8) == "0.010000000"
    assert format_significant(99.50083333194551, 8) == "99.500833"


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
