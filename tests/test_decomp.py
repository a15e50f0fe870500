"""Decompositions over the Bell-family bases and the log identities."""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from kurepa.decomp import (
    alt_kurepa_sequence_sum,
    basis_coefficient,
    greedy_bell_decomposition,
    kurepa_sequence_sum,
    log_left_factorial,
)
from kurepa.report import decomposition_rows, load_fixtures, log_rows
from kurepa.sequences import bell, complementary_bell, left_factorial


def test_basis_coefficients():
    assert basis_coefficient("bell", 4) == 15
    assert basis_coefficient("dobinski", 4) == 15
    assert basis_coefficient("invbell", 5) == -2 == complementary_bell(5)
    # no fixture uses the signed Dobinski basis, so it has no name here
    for name in ("invdobinski", "Bell", ""):
        with pytest.raises(ValueError, match="unknown basis"):
            basis_coefficient(name, 4)


def _rescan_greedy(target):
    """The greedy rule with the index rescanned from 1 for every term."""
    terms = []
    remainder = target
    while remainder > 0:
        m = 1
        while bell(m + 1) <= remainder:
            m += 1
        q, remainder = divmod(remainder, bell(m))
        terms.append((m, q))
    return tuple(terms)


# the Bell numbers B_m - 1, B_m and B_m + 1, where the greedy's top index changes
_bell_boundaries = st.builds(lambda m, step: bell(m) + step, st.integers(0, 300), st.sampled_from([-1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 10**200 - 1), _bell_boundaries))
def test_greedy_matches_rescan(target):
    terms = greedy_bell_decomposition(target)
    assert terms == _rescan_greedy(target)
    # a Decimal target gives the same terms, each coefficient an exact Decimal integer
    decimal_terms = greedy_bell_decomposition(Decimal(target))
    assert all(type(c) is Decimal for _, c in decimal_terms)
    assert [(i, str(c)) for i, c in decimal_terms] == [(i, str(c)) for i, c in terms]


def test_greedy_value_one_ties_to_index_one():
    assert greedy_bell_decomposition(1) == ((1, 1),)
    assert greedy_bell_decomposition(2) == ((2, 1),)
    assert greedy_bell_decomposition(bell(30) + 1) == ((30, 1), (1, 1))


def test_greedy_known_case():
    assert greedy_bell_decomposition(5914) == ((8, 1), (7, 2), (4, 1), (3, 1))
    assert greedy_bell_decomposition(0) == ()
    with pytest.raises(ValueError):
        greedy_bell_decomposition(-1)


@given(st.integers(min_value=0, max_value=10**12))
def test_greedy_round_trips(target):
    terms = greedy_bell_decomposition(target)
    assert sum(c * bell(i) for i, c in terms) == target
    indices = [i for i, _ in terms]
    assert all(i > j for i, j in zip(indices, indices[1:]))
    assert all(i >= 1 and c >= 1 for i, c in terms)


def test_sequence_sums():
    assert kurepa_sequence_sum(5) == 1 + 2 + 4 + 10 + 34
    assert kurepa_sequence_sum(8) == 6993
    assert alt_kurepa_sequence_sum(5) == 1 + 0 + 2 - 4 + 20
    with pytest.raises(ValueError):
        kurepa_sequence_sum(0)
    with pytest.raises(ValueError):
        alt_kurepa_sequence_sum(0)


def test_verify_decomposition_accepts_published_terms():
    # repeated indices are kept as printed, not normalized away
    rows = {r.claim_id: r for r in decomposition_rows()}
    cb = complementary_bell
    aseq5 = cb(0) + cb(2) + 2 * cb(3) + 2 * cb(5) + 20 * cb(4) + 50 * cb(5)
    rep = rows["thm3.18.aseq5"]
    assert (rep.claimed, rep.computed, rep.status) == ("19", str(aseq5), "mismatch")
    rep = rows["t3.k7"]
    assert (rep.claimed, rep.computed, rep.status) == ("874", "874", "match")


def test_fixture_terms_are_nonnegative():
    for label, _, _, _, terms, _ in load_fixtures():
        assert all(i >= 0 and c >= 0 for i, c in terms), label


def test_fixture_catalogue():
    fixtures = load_fixtures()
    assert len(fixtures) == 22
    by_label = {label: (value, basis) for label, _, value, basis, _, _ in fixtures}
    assert by_label["t2.k8e"] == (5914, "dobinski")
    # the only bases the fixtures use
    assert sorted({basis for _, _, _, basis, _, _ in fixtures}) == ["bell", "dobinski", "invbell"]
    rows = {r.claim_id: r for r in decomposition_rows()}
    assert list(rows) == list(by_label)
    rep = rows["t2.k8e"]
    assert (rep.location, rep.claimed, rep.computed, rep.status) == (
        "sec3.table2", "5914", "652", "mismatch"
    )
    # the companion row in the plain-Bell table carries the same slip
    assert rows["t3.k8"].status == "mismatch"
    assert rows["t3.k5"].status == "match"
    assert rows["thm3.8.kseq8e"].location == "sec3.theorem3.8"


def test_log_identity_only_holds_at_n1():
    rows = [r for r in log_rows() if r.claim_id.startswith("log.identity.")]
    assert [r.claim_id for r in rows] == [f"log.identity.n{n}" for n in range(1, 9)]
    assert rows[0].status == "match"
    for rep in rows[1:]:
        assert rep.status == "mismatch"
        assert rep.note == "product-reading holds at the same tolerance"


def test_log_left_factorial():
    assert log_left_factorial(8) == "8.68507770041242"
    assert log_left_factorial(8, base="2", digits=20) == "12.529918528120324200"
    assert log_left_factorial(5, base="10") == "1.53147891704226"
    with pytest.raises(ValueError):
        log_left_factorial(8, base="3")
    with pytest.raises(ValueError):
        log_left_factorial(8, digits=0)
    with pytest.raises(ValueError):
        log_left_factorial(0)


@given(st.integers(min_value=1, max_value=60))
def test_log_left_factorial_inverts(n):
    import math

    got = float(log_left_factorial(n, digits=17))
    assert abs(got - math.log(left_factorial(n))) < 1e-9 * max(1.0, abs(got))
