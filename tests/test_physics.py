"""Operator-ordering identities and occupation-number numerics."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from kurepa.decomp import greedy_bell_decomposition, kurepa_sequence_sum
from kurepa.discrepancy import MATCH, MISMATCH
from kurepa.efactor import GUARD_DIGITS, format_significant
from kurepa.physics import (
    DEBRUIJN_SAMPLE_N,
    PLANCK_DIGITS,
    PLANCK_SAMPLE_X,
    antinormal_ordering,
    debruijn_bound_check,
    falling,
    normal_ordering,
    occupation,
    planck_identity_gap,
    planck_routes,
    _dobinski_partial,
    _ln_bell,
)
from kurepa.report import physics_rows
from kurepa.sequences import bell
import oracles


@pytest.fixture(scope="module")
def rows():
    return {r.claim_id: r for r in physics_rows()}


def test_falling_known_values():
    assert falling(5, 2) == 20
    assert falling(5, 0) == 1
    assert falling(0, 0) == 1
    assert falling(3, 5) == 0
    assert falling(6, 6) == 720


def test_falling_rejects_negatives():
    with pytest.raises(ValueError):
        falling(-1, 2)
    with pytest.raises(ValueError):
        falling(2, -1)


def test_normal_ordering_n4_textbook_row():
    assert normal_ordering(4).coeffs == (1, 7, 6, 1)


def test_normal_ordering_n1():
    assert normal_ordering(1).coeffs == (1,)


def test_antinormal_signs():
    # same magnitudes, alternating from the top term down
    assert antinormal_ordering(4).coeffs == (-1, 7, -6, 1)
    assert antinormal_ordering(3).coeffs == (1, -3, 1)


@given(st.integers(min_value=1, max_value=12))
def test_ordering_coeffs_are_stirling_rows(n):
    assert normal_ordering(n).coeffs == tuple(oracles.stirling2(n, k) for k in range(1, n + 1))


def test_coefficient_accessor_bounds():
    e = normal_ordering(4)
    assert e.coefficient(2) == 7
    with pytest.raises(ValueError):
        e.coefficient(0)
    with pytest.raises(ValueError):
        e.coefficient(5)


def test_ordering_expansion_validation():
    # the order is the coefficient count, and both orderings start at n = 1
    assert normal_ordering(5).n == antinormal_ordering(5).n == 5
    for ordering in (normal_ordering, antinormal_ordering):
        with pytest.raises(ValueError):
            ordering(0)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40))
def test_eval_at_collapses_to_power(n, m):
    """The diagonal identity: sum_k S(n,k) m^(k falling) == m^n."""
    assert normal_ordering(n).eval_at(m) == m**n


def test_falling_factorial_check_matches(rows):
    for n in range(1, 7):
        rep = rows[f"ordering.diagonal.n{n}"]
        assert rep.status == MATCH, rep.as_line()
        assert rep.computed == "exact"
        assert rep.note == "checked m = 0..12"


def test_kurepa_normal_ordering_structure():
    # the greedy Bell split of the summed left factorials through 5 reassembles 51
    terms = greedy_bell_decomposition(kurepa_sequence_sum(5))
    assert sum(c * bell(i) for i, c in terms) == 51
    for index, coeff in terms:
        assert normal_ordering(index).n == index
        assert coeff >= 1


@pytest.mark.parametrize("n,m", [(4, 0), (4, 1), (4, 3), (4, 10), (8, 5)])
def test_kurepa_diagonal_check_matches(rows, n, m):
    rep = rows[f"ordering.kurepa.n{n}.m{m}"]
    assert rep.status == MATCH, rep.as_line()
    # each expansion collapses to m^index, so both sides are the weighted powers
    terms = greedy_bell_decomposition(kurepa_sequence_sum(n))
    assert rep.computed == str(sum(c * m**i for i, c in terms))


def test_occupation_boson_fermion_values():
    # x = ln 2: e^x - 1 = 1 and e^x + 1 = 3
    x = Decimal(2).ln()
    assert occupation(x, 1) == pytest.approx(Decimal(1), rel=Decimal("1e-26"))
    assert occupation(x, -1) == pytest.approx(1 / Decimal(3), rel=Decimal("1e-26"))


def test_occupation_validation():
    with pytest.raises(ValueError):
        occupation(0.0, 1)
    with pytest.raises(ValueError):
        occupation(-1.0, 1)
    with pytest.raises(ValueError):
        occupation(1.0, 2)
    with pytest.raises(ValueError):
        occupation(1.0, "photon")


def test_planck_bell_identity_samples(rows):
    assert PLANCK_SAMPLE_X == (0.01, math.log(2), 1.0, 5.0)
    for x in PLANCK_SAMPLE_X:
        rep = rows[f"occupation.planck.x{x}"]
        assert rep.status == MATCH, rep.as_line()
        assert rep.location == "sec6.proposition6.15"


def test_planck_identity_gap_is_tiny():
    # from x = 14.7 the EGF e^(e^x - 1) outgrows decimal's default exponent range
    for x in (0.01, 1.0, 5.0, 15.0, 42.0):
        assert planck_identity_gap(x) < 1e-28


@pytest.mark.parametrize("x", [1e-6, 1e-12])
def test_planck_routes_keep_their_digits_at_small_x(x):
    # e^x - 1 cancels the leading digits here, so it runs at raised precision
    with localcontext() as ctx:
        ctx.prec = PLANCK_DIGITS + GUARD_DIGITS
        direct = planck_routes(x)[0]
    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        want = mp.nstr(1 / mp.expm1(mp.mpf(x)), PLANCK_DIGITS, strip_zeros=False)
    assert format_significant(direct, PLANCK_DIGITS) == want
    assert planck_identity_gap(x) < 1e-28


def test_planck_identity_gap_validation():
    for x in (-2.0, 0.0, 42.5):
        with pytest.raises(ValueError):
            planck_identity_gap(x)


def test_debruijn_bound_check_matches():
    # at n = 5000 the triangle would need 5001 rows; the series stops at K = 899
    for n in (10, 100, 300, 1000, 5000):
        rep = debruijn_bound_check(n)
        assert rep.status == MATCH, rep.as_line()
        assert rep.claim_id == f"growth.debruijn.n{n}"


def test_debruijn_notes_flag_small_n():
    assert debruijn_bound_check(100).note == ""
    assert debruijn_bound_check(10).note == "below the asymptotic regime; informational"
    with pytest.raises(ValueError):
        debruijn_bound_check(9)


@pytest.mark.parametrize("n", [10.5, 12.0])
def test_debruijn_rejects_a_float_n(n):
    # an integral float too: K ** n would quietly run in floats
    with pytest.raises(TypeError):
        debruijn_bound_check(n)


def _ln_bell_agrees_with_the_triangle(n):
    with localcontext() as ctx:
        ctx.prec = PLANCK_DIGITS + GUARD_DIGITS
        assert _ln_bell(n) == Decimal(bell(n)).ln(), n
        partial, k = _dobinski_partial(n)
    if n <= 300:
        # N_K <= K! e Bell_n <= N_K + K^n; e is irrational, so the floor
        # read at enough digits places K! e Bell_n strictly between them
        scaled = bell(n) * math.factorial(k)
        with mp.workdps(len(str(scaled)) + 20):
            floor = int(mp.floor(mp.e * scaled))
        assert partial <= floor < partial + k**n, n


@pytest.mark.parametrize("n", DEBRUIJN_SAMPLE_N)
def test_ln_bell_at_the_sample_points(n):
    _ln_bell_agrees_with_the_triangle(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=10, max_value=400))
def test_ln_bell_sweep(n):
    _ln_bell_agrees_with_the_triangle(n)


def test_debruijn_envelope_width_decreases():
    """The error term shrinks as n grows, so bigger n gives a tighter check."""

    def gap(n):
        rep = debruijn_bound_check(n)
        return float(rep.computed)

    assert gap(1000) < gap(100)


def test_high_precision_agreement_with_mpmath():
    with localcontext() as ctx:
        ctx.prec = PLANCK_DIGITS + GUARD_DIGITS
        got = occupation(Decimal("0.01"), 1)
    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        want = mp.nstr(1 / mp.expm1(mp.mpf("0.01")), PLANCK_DIGITS, strip_zeros=False)
    assert format_significant(got, PLANCK_DIGITS) == want
