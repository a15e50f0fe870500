"""Acceptance gate: one test per criterion, one pass/fail line each.

Two tests pin published values that direct recomputation contradicts.
They assert that the program flags each one as a mismatch and keeps both
the published and the recomputed value:

* the n = 0 row of the WK column in the alternating-sum table (published
  0; the column is defined as !n - 1, and the empty sum !0 = 0 gives -1),
  and
* the shifted-gcd bound for offset a = 4 (published bound 2; the scan
  finds 34 from n = 16 and 3842 from n = 112).

Either test fails if the flagged pair changes or if any neighbouring
value drifts, so neither discrepancy can be hidden or silently corrected.
"""

import json
import math
import os
import random
import time
from importlib import resources

import jsonschema
import pytest

from kurepa.decomp import greedy_bell_decomposition
from kurepa.discrepancy import MATCH, MISMATCH
from kurepa.gcdlab import gcd_stein, scan_altered
from kurepa.physics import debruijn_bound_check, normal_ordering, planck_identity_gap
from kurepa.report import (
    altered_rows,
    decomposition_rows,
    physics_rows,
    table1_rows,
    table4_rows,
    table7_rows,
)
from kurepa.sequences import bell, left_factorial
from kurepa import verifier
from kurepa.verifier import (
    bell_mod,
    canonical_report,
    left_factorial_mod,
    load_checkpoint,
    run_search,
    sieve_primes,
)
from oracles import gcd_euclid, shifted_gcd


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01a_main_value_table():
    """n = 0..8 rows: factorial, left factorial, derangement, Bell, inverse Bell, r, gcd."""
    start = time.perf_counter()
    rows = table1_rows()
    elapsed = time.perf_counter() - start
    bad = [r.claim_id for r in rows if r.status != MATCH]
    ok = not bad and elapsed < 1.0
    announce("1a (main value table)", ok, f"{len(rows)} cells exact in {elapsed:.3f}s")
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_01b_alternating_sum_table():
    """n = 0..10 rows: alternating sums, left factorial, next term, WK column; one flagged."""
    start = time.perf_counter()
    rows = table4_rows()
    elapsed = time.perf_counter() - start
    flagged = {r.claim_id for r in rows if r.status != MATCH}
    wk0 = next(r for r in rows if r.claim_id == "table4.wagstaff.n0")
    # the WK column is !n - 1; at n = 0 the left factorial is the empty sum
    empty_left_factorial = sum(math.factorial(k) for k in range(0))
    expected = str(empty_left_factorial - 1)
    ok = (
        flagged == {"table4.wagstaff.n0"}
        and (wk0.claimed, wk0.computed, wk0.status) == ("0", expected, MISMATCH)
        and elapsed < 1.0
    )
    announce(
        "1b (alternating-sum table)",
        ok,
        f"{len(rows) - len(flagged)} of {len(rows)} cells exact; documented mismatch "
        f"{wk0.claim_id} published {wk0.claimed}, recomputed {wk0.computed}; {elapsed:.3f}s",
    )
    assert expected == "-1"
    assert (wk0.claimed, wk0.computed, wk0.status) == ("0", expected, MISMATCH)
    assert flagged == {"table4.wagstaff.n0"}, sorted(flagged)
    assert elapsed < 1.0


def test_criterion_01c_r_f_pair_table():
    """The paired r / doubled-r rows must reproduce exactly."""
    start = time.perf_counter()
    rows = [
        r
        for r in table7_rows()
        if r.claim_id.startswith(("table7.r.n", "table7.f.n"))
    ]
    elapsed = time.perf_counter() - start
    assert len(rows) == 12
    bad = [r.claim_id for r in rows if r.status != MATCH]
    announce("1c (r/f pair table)", not bad and elapsed < 1.0, f"12 pairs exact in {elapsed:.3f}s")
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_02_gcd_conjecture_suite():
    """gcd(!n, n!) = 2 and the doubled-half equivalence, n up to 1000."""
    start = time.perf_counter()
    failures = []
    fact = 2  # n! at n = 2
    lf = 2  # !n at n = 2
    for n in range(2, 1002):
        g = math.gcd(lf, fact)
        if n <= 1000 and g != 2:
            failures.append(f"gcd(!{n},{n}!)={g}")
        if n >= 3:
            half = 2 * math.gcd(lf // 2, fact // 2)
            if g != 2 or half != g:
                failures.append(f"n={n - 1}: gcd={g}, doubled-half={half}")
        lf += fact
        fact *= n + 1
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    announce("2 (gcd conjecture suite)", ok, f"1999 instances, all 2, in {elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_03_modular_search():
    """No odd prime below 1e5 divides its left factorial; workers agree bytewise."""
    start = time.perf_counter()
    four = run_search(3, 100_000, workers=4)
    four_time = time.perf_counter() - start
    one = run_search(3, 100_000, workers=1)
    eight = run_search(3, 100_000, workers=8)
    reports = {canonical_report(ck) for ck in (one, four, eight)}
    ok = (
        four.finished
        and four.counterexamples == []
        and len(reports) == 1
        and four_time < 10.0
    )
    announce(
        "3 (modular search)",
        ok,
        f"no counterexample below 1e5; workers 1/4/8 byte-identical; 4-worker run {four_time:.2f}s",
    )
    assert four.counterexamples == []
    assert len(reports) == 1, "worker counts disagree"
    assert four_time < 10.0


@pytest.mark.skipif(
    not os.environ.get("KUREPA_STRETCH"),
    reason="non-gating stretch run; set KUREPA_STRETCH=1 to enable",
)
def test_criterion_03_stretch_search_to_1e6():
    """Stretch target: extend the search to 1e6."""
    start = time.perf_counter()
    ck = run_search(3, 1_000_000, workers=4)
    elapsed = time.perf_counter() - start
    announce(
        "3-stretch (search to 1e6)",
        ck.counterexamples == [],
        f"no counterexample below 1e6 in {elapsed:.1f}s",
    )
    assert ck.counterexamples == []


def test_criterion_04_oracle_equivalence():
    """Modular kernel vs big-int reduction; Stein vs Euclid on random and shifted pairs."""
    start = time.perf_counter()
    primes = list(sieve_primes(2, 10_001))
    prime_set = set(primes)
    exact = {}
    fact, lf = 1, 0
    for n in range(10_001):
        if n in prime_set:
            exact[n] = lf % n
        lf += fact
        fact *= n + 1
    residue_bad = [p for p in primes if left_factorial_mod(p) != exact[p]]

    rng = random.Random(2026)
    stein_bad = []
    for _ in range(10_000):
        a, b = rng.getrandbits(256), rng.getrandbits(256)
        if gcd_stein(a, b) != gcd_euclid(a, b):
            stein_bad.append((a, b))

    lfs = [0] + [left_factorial(k) for k in range(1, 67)]
    for n in range(1, 65):
        for a in range(-16, 17):
            x, y = lfs[n + 1] + a, lfs[n + 2] + a
            if gcd_stein(abs(x), abs(y)) != gcd_euclid(x, y):
                stein_bad.append((x, y))
    elapsed = time.perf_counter() - start
    ok = not residue_bad and not stein_bad
    announce(
        "4 (oracle equivalence)",
        ok,
        f"{len(primes)} primes, 10000 random + 2112 shifted gcd pairs, in {elapsed:.2f}s",
    )
    assert not residue_bad, residue_bad[:5]
    assert not stein_bad, stein_bad[:2]


def test_criterion_05_bell_congruence():
    """!p = Bell(p-1) - 1 (mod p) at every odd prime up to 500."""
    start = time.perf_counter()
    bad = []
    count = 0
    for p in sieve_primes(3, 501):
        count += 1
        lhs = left_factorial_mod(p)
        rhs = (bell_mod(p - 1, p) - 1) % p
        if lhs != rhs:
            bad.append((p, lhs, rhs))
    elapsed = time.perf_counter() - start
    assert count == 94
    announce("5 (Bell congruence)", not bad, f"94 odd primes verified in {elapsed:.2f}s")
    assert not bad, bad


def test_criterion_06_decomposition_round_trip():
    """Greedy Bell decomposition round-trips; fixture rows reproduce, one flagged."""
    start = time.perf_counter()
    for n in range(1, 51):
        target = left_factorial(n)
        terms = greedy_bell_decomposition(target)
        assert sum(c * bell(i) for i, c in terms) == target
        assert all(i > j for (i, _), (j, _) in zip(terms, terms[1:]))
        assert all(c >= 1 for _, c in terms)

    rng = random.Random(1729)
    for _ in range(10_000):
        target = rng.randrange(10**9)
        terms = greedy_bell_decomposition(target)
        assert sum(c * bell(i) for i, c in terms) == target

    reports = [r for r in decomposition_rows() if r.claim_id.startswith(("t2.", "t3."))]
    assert len(reports) == 16
    flagged = {r.claim_id for r in reports if r.status == MISMATCH}
    head = next(r for r in reports if r.claim_id == "t2.k8e")
    elapsed = time.perf_counter() - start
    ok = (
        flagged == {"t2.k8e", "t3.k8"}
        and head.computed == "652"
        and head.claimed == "5914"
    )
    announce(
        "6 (decomposition round-trip)",
        ok,
        f"10050 round-trips; fixture mismatches {sorted(flagged)} with t2.k8e 652 vs 5914; {elapsed:.2f}s",
    )
    assert (head.status, head.claimed, head.computed) == (MISMATCH, "5914", "652")
    assert flagged == {"t2.k8e", "t3.k8"}


def test_criterion_07a_unshifted_gcd_bound():
    """gcd of consecutive left factorials stays at 2 for n up to 1000."""
    start = time.perf_counter()
    rows = scan_altered(0, range(1, 1001))
    elapsed = time.perf_counter() - start
    peak = max(r.value for r in rows)
    announce("7a (unshifted bound)", peak <= 2, f"peak gcd {peak} over 1000 rows in {elapsed:.2f}s")
    assert peak <= 2, peak


def test_criterion_07b_shifted_gcd_bound_a4():
    """Published bound 2 for the a = 4 shift is flagged: the scan exceeds it from n = 16 on."""
    start = time.perf_counter()
    rows = scan_altered(4, range(1, 1001))
    offenders = [(r.n, r.value) for r in rows if r.value > 2]
    # a prime dividing F_n + 4 and F_{n+1} + 4 divides their difference
    # (n+1)!, hence every later factorial, so it divides every later
    # shifted term and the excess persists to the end of the scan
    direct = {n: shifted_gcd(4, n) for n in (16, 112)}
    row = next(r for r in altered_rows() if r.claim_id == "conjecture.bound.a4")
    elapsed = time.perf_counter() - start
    first_3842 = next((n for n, v in offenders if v == 3842), None)
    ok = (
        offenders[:1] == [(16, 34)]
        and [n for n, _ in offenders] == list(range(16, 1001))
        and {v for _, v in offenders} == {34, 3842}
        and first_3842 == 112
        and direct == {16: 34, 112: 3842}
        and (row.claimed, row.computed, row.status)
        == ("bounded_by_2", "exceeded_at_n16", MISMATCH)
    )
    announce(
        "7b (shifted bound, a=4)",
        ok,
        f"documented mismatch {row.claim_id}: published {row.claimed}, recomputed "
        f"{row.computed}; {len(offenders)} of {len(rows)} rows exceed 2 with gcds "
        f"{sorted({v for _, v in offenders})}, 3842 from n={first_3842}; {elapsed:.2f}s",
    )
    assert direct == {16: 34, 112: 3842}
    assert (dict(offenders)[16], dict(offenders)[112]) == (direct[16], direct[112])
    assert offenders[:1] == [(16, 34)]
    assert [n for n, _ in offenders] == list(range(16, 1001))
    assert {v for _, v in offenders} == {34, 3842}
    assert first_3842 == 112
    assert (row.claimed, row.computed, row.status) == (
        "bounded_by_2",
        "exceeded_at_n16",
        MISMATCH,
    )


def test_criterion_07c_lemma_fixtures():
    """Shift lemmas for a in 2..5: every entry matches or is a documented mismatch."""
    start = time.perf_counter()
    bad = []
    flagged = []
    total = 0
    for rep in altered_rows():
        if not rep.claim_id.startswith("altered."):
            continue
        total += 1
        if rep.status == MISMATCH:
            flagged.append(rep.claim_id)
            if not (rep.claimed and rep.computed):
                bad.append(rep.claim_id)
        elif rep.status != MATCH:
            bad.append(rep.claim_id)
    elapsed = time.perf_counter() - start
    ok = not bad and "altered.a2.n6" in flagged and total == 104
    announce(
        "7c (shift lemma fixtures)",
        ok,
        f"{total} entries, {len(flagged)} documented mismatches incl. altered.a2.n6, in {elapsed:.2f}s",
    )
    assert "altered.a2.n6" in flagged
    assert total == 104
    assert not bad, bad


def test_criterion_08_physics_identities():
    """Ordering identity exact; occupation/EGF and growth-envelope checks pass."""
    start = time.perf_counter()
    bad = []
    for n in range(1, 16):
        expansion = normal_ordering(n)
        for m in range(101):
            if m**n != expansion.eval_at(m):
                bad.append(f"ordering identity at n={n}, m={m}")
    planck = [r for r in physics_rows() if r.claim_id.startswith("occupation.planck.")]
    if len(planck) != 4:
        bad.append(f"{len(planck)} occupation rows")
    for rep in planck:
        if rep.status != MATCH:
            bad.append(rep.as_line())
    for x in (0.01, math.log(2), 1.0, 5.0):
        if planck_identity_gap(x) >= 1e-28:
            bad.append(f"occupation identity gap at x={x}")
    for n in (100, 300, 1000):
        rep = debruijn_bound_check(n)
        if rep.status != MATCH:
            bad.append(rep.as_line())
    if normal_ordering(4).coeffs != (1, 7, 6, 1):
        bad.append(f"ordering coefficients {normal_ordering(4).coeffs}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    announce(
        "8 (physics identities)",
        ok,
        f"ordering exact to n=15, m=100; identity gap < 1e-28; envelope holds; {elapsed:.2f}s",
    )
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_09_persistence(tmp_path, monkeypatch, interrupt_after):
    """Kill-and-resume equals the uninterrupted run; checkpoints validate."""
    schema = json.loads(
        resources.files("kurepa.data").joinpath("checkpoint-schema.json").read_text()
    )
    monkeypatch.setattr(verifier, "DEFAULT_LANES", 512)
    cp = str(tmp_path / "search.json")
    interrupt_after(4)
    with pytest.raises(KeyboardInterrupt):
        run_search(3, 50_000, checkpoint_path=cp)
    partial1 = load_checkpoint(cp)
    assert not partial1.finished
    with open(cp, encoding="utf-8") as fh:
        jsonschema.validate(json.load(fh), schema)
    interrupt_after(9)
    with pytest.raises(KeyboardInterrupt):
        run_search(3, 50_000, checkpoint_path=cp)
    partial2 = load_checkpoint(cp)
    assert partial2.last_completed > partial1.last_completed
    resumed = run_search(3, 50_000, checkpoint_path=cp)
    with open(cp, encoding="utf-8") as fh:
        jsonschema.validate(json.load(fh), schema)
    straight = run_search(3, 50_000)
    ok = resumed.finished and canonical_report(resumed) == canonical_report(straight)
    announce(
        "9 (persistence)",
        ok,
        "two kill points, resumed report byte-identical to uninterrupted run; checkpoints schema-valid",
    )
    assert resumed.finished
    assert canonical_report(resumed) == canonical_report(straight)
