"""Stein vs Euclid, and the published gcd scans."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from kurepa.gcdlab import gcd_stein, scan_altered
from kurepa.report import ab_rows, altered_rows, equivalence_rows, table9_rows
from oracles import factorial_sum, gcd_euclid, shifted_gcd

nonneg = st.integers(min_value=0, max_value=2**256)


@given(nonneg, nonneg)
def test_euclid_matches_math_gcd(a, b):
    assert gcd_euclid(a, b) == math.gcd(a, b)


def test_euclid_takes_absolute_values():
    assert gcd_euclid(-12, 18) == 6
    assert gcd_euclid(0, 0) == 0


@given(nonneg, nonneg)
def test_stein_matches_euclid(a, b):
    assert gcd_stein(a, b) == gcd_euclid(a, b)


def test_stein_edge_cases():
    assert gcd_stein(0, 5) == 5
    assert gcd_stein(7, 0) == 7
    assert gcd_stein(0, 0) == 0
    with pytest.raises(ValueError):
        gcd_stein(-1, 3)


def test_equivalence_chain():
    rows = [r for r in equivalence_rows() if r.claim_id.startswith("equivalence.chain.")]
    assert [r.claim_id for r in rows] == [f"equivalence.chain.n{n}" for n in range(1, 11)]
    for rep in rows:
        assert (rep.location, rep.computed) == ("sec4.theorem4.17", "2_1_linked"), rep.as_line()
        assert rep.status == "match", rep.as_line()


def test_scan_altered_known_window():
    rows = scan_altered(4, range(15, 18))
    assert [(r.n, r.value) for r in rows] == [(15, 2), (16, 34), (17, 34)]


def test_scan_altered_zero_shift_stays_at_two():
    assert all(r.value == 2 for r in scan_altered(0, range(0, 60)))


def test_scan_altered_rejects_negative_n():
    with pytest.raises(ValueError):
        scan_altered(2, [-1])
    with pytest.raises(ValueError):
        scan_altered(2, [3, 0, -2])


def test_scan_altered_empty_and_one_shot_iterables():
    assert scan_altered(4, []) == []
    rows = scan_altered(4, (n for n in (17, 15, 16)))
    assert [(r.n, r.value) for r in rows] == [(17, 34), (15, 2), (16, 34)]


def test_scan_altered_grid_matches_factorial_oracle():
    ns = range(601)
    for a in range(-6, 12):
        assert [r.value for r in scan_altered(a, ns)] == [shifted_gcd(a, n) for n in ns], a


row_lists = st.lists(st.integers(0, 200), max_size=12)


def _zero_term_case(k):
    # a = -F_k zeroes the term F_k + a, so rows k - 1 and k are k! and (k+1)!
    return st.tuples(st.just(-factorial_sum(k)), row_lists.map(lambda ns: ns + [k, k - 1, k]))


cases = st.one_of(
    st.tuples(st.integers(-10**40, 10**40), row_lists),
    st.integers(1, 200).flatmap(_zero_term_case),
)


@settings(max_examples=60, deadline=None)
@given(cases)
@example((-factorial_sum(12), [12, 11, 13, 12, 0]))
def test_scan_altered_matches_factorial_oracle(case):
    # the ns come unsorted and may repeat; rows follow them one for one
    a, ns = case
    rows = scan_altered(a, ns)
    assert [r.n for r in rows] == ns
    assert [r.value for r in rows] == [shifted_gcd(a, n) for n in ns]


def test_scan_altered_every_small_prime_in_the_support():
    # by CRT, a = -!q (mod q) for every prime q <= 100
    primes = [q for q in range(2, 101) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    a, modulus = 0, 1
    for q in primes:
        target = -sum(math.factorial(k) for k in range(q)) % q
        a += modulus * ((target - a) * pow(modulus, -1, q) % q)
        modulus *= q
    ns = range(601)
    values = [r.value for r in scan_altered(a, ns)]
    assert values == [shifted_gcd(a, n) for n in ns]
    for n in range(1, 601):
        assert {q for q in primes if values[n] % q == 0} == {q for q in primes if q <= n + 1}, n


def _claimed(rows):
    return {r.claim_id: r.claimed for r in rows}


def test_claimed_altered_piecewise():
    claimed = _claimed(altered_rows())
    assert claimed["altered.a2.n0"] == "1"
    assert claimed["altered.a2.n1"] == "2"
    assert claimed["altered.a2.n6"] == "6"
    assert claimed["altered.a2.n20"] == "12"
    assert claimed["altered.a3.n10"] == "1"
    assert claimed["altered.a3.n11"] == "13"
    assert claimed["altered.a3.shifted.n11"] == "13"
    assert claimed["altered.a4.n3"] == "2"
    assert claimed["altered.a5.n1"] == "1"
    assert claimed["altered.a5.n2"] == "3"
    assert "altered.a2.n21" not in claimed
    assert "altered.a3.shifted.n0" not in claimed


def test_lemma_fixture_mismatch_sets():
    # direct recomputation disagrees with the published piecewise claims
    # at exactly these indices
    want = {
        2: ("sec4.lemma4.30", {"altered.a2.n0", "altered.a2.n2", "altered.a2.n6"}),
        3: ("sec4.lemma4.31",
            {"altered.a3.n11", "altered.a3.shifted.n11", "altered.a3.shifted.n12"}),
        4: ("sec4.lemma4.32", {"altered.a4.n0"} | {f"altered.a4.n{n}" for n in range(16, 21)}),
        5: ("sec4.lemma4.33", set()),
    }
    rows = altered_rows()
    for a, (location, expected) in want.items():
        reports = [r for r in rows if r.claim_id.startswith(f"altered.a{a}.")]
        assert len(reports) == (41 if a == 3 else 21)
        assert {r.location for r in reports} == {location}
        got = {r.claim_id for r in reports if r.status == "mismatch"}
        assert got == expected, (a, got)
        for r in reports:
            assert r.claimed != "" and r.computed != ""


def test_table9_all_match():
    reports = [r for r in table9_rows() if not r.claim_id.startswith("table9.next.")]
    assert [r.claim_id for r in reports] == [f"table9.n{n}" for n in range(1, 11)]
    assert [r.claimed for r in reports] == ["1"] + ["2"] * 9
    assert all(r.status == "match" for r in reports)


def test_ab_sequence_mismatches():
    reports = ab_rows()
    assert len(reports) == 44
    claimed = _claimed(reports)
    assert [claimed[f"bseq.gcd.n{n}"] for n in range(5)] == ["3", "3", "1", "11", "1"]
    bad = {r.claim_id for r in reports if r.status == "mismatch"}
    assert bad == {"bseq.gcd.n0", "abpair.gcd.n0", "pmpair.gcd.n0"}
