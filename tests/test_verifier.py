"""Sieve, modular oracles, checkpoint hygiene, and search determinism."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from kurepa.sequences import bell, left_factorial
from kurepa.verifier import (
    CheckpointFormatError,
    CheckpointMismatchError,
    HISTOGRAM_BUCKETS,
    SearchCheckpoint,
    bell_mod,
    block_residues,
    canonical_report,
    check_bell_congruence,
    checkpoint_from_json,
    left_factorial_mod,
    load_checkpoint,
    run_search,
    save_checkpoint,
    sieve_primes,
)


def eratosthenes(limit):
    """Independent full-bytearray sieve, the oracle for sieve_primes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [n for n in range(limit + 1) if flags[n]]


ORACLE = eratosthenes(110_000)


def test_sieve_matches_oracle_to_1e5():
    assert list(sieve_primes(2, 100_000)) == [p for p in ORACLE if p < 100_000]


def test_sieve_windows():
    for lo, hi in [(2, 3), (3, 4), (100, 200), (262_100, 262_200), (99_991, 99_992)]:
        want = [p for p in eratosthenes(hi) if lo <= p < hi]
        assert list(sieve_primes(lo, hi)) == want, (lo, hi)


def test_sieve_small_segment_agrees():
    # segment boundaries must not drop or duplicate primes
    assert list(sieve_primes(2, 10_000, segment=64)) == [p for p in ORACLE if p < 10_000]


def test_prime_count_to_1e6():
    assert sum(1 for _ in sieve_primes(2, 1_000_000)) == 78_498


def test_left_factorial_mod_against_bigints():
    for p in [p for p in ORACLE if p <= 2000]:
        assert left_factorial_mod(p) == left_factorial(p) % p, p


def test_block_residues_matches_scalar_path():
    primes = [p for p in ORACLE if 1000 <= p < 2500]
    assert block_residues(primes) == [left_factorial_mod(p) for p in primes]


def test_block_residues_empty_block():
    assert block_residues([]) == []


@settings(max_examples=60)
@given(st.sets(st.integers(min_value=2, max_value=3000), min_size=1, max_size=40))
def test_block_residues_any_increasing_moduli(moduli):
    # the fold holds for any increasing moduli >= 2, composite ones included
    moduli = sorted(moduli)
    assert block_residues(moduli) == [left_factorial_mod(m) for m in moduli]


def test_block_residues_narrow_window_far_out():
    primes = [p for p in ORACLE if 100_000 <= p < 100_300]
    assert block_residues(primes) == [left_factorial_mod(p) for p in primes]


def test_two_is_not_a_counterexample():
    # !2 = 2 = 0 (mod 2), but only odd primes count
    assert left_factorial_mod(2) == 0
    assert run_search(2, 100).counterexamples == []


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=260), st.sampled_from([1, 2, 3, 4, 5, 7, 10, 97, 101, 997, 1000]))
def test_bell_mod_matches_exact(n, p):
    assert bell_mod(n, p) == bell(n) % p


def test_bell_congruence_odd_primes_to_100():
    for p in [p for p in ORACLE if 2 < p <= 100]:
        rep = check_bell_congruence(p)
        assert rep.status == "match", rep.as_line()
        assert rep.location == "sec1.congruence"


def valid_payload(**overrides):
    payload = {
        "version": 1,
        "lo": 3,
        "hi": 100,
        "last_completed": 50,
        "counterexamples": [],
        "histogram": None,
        "wall_seconds": 1.5,
        "finished": False,
    }
    payload.update(overrides)
    return payload


def test_checkpoint_round_trip(tmp_path):
    ck = checkpoint_from_json(json.dumps(valid_payload()))
    path = str(tmp_path / "cp.json")
    save_checkpoint(ck, path)
    again = load_checkpoint(path)
    assert again == ck
    # atomic write leaves no temp files behind
    assert os.listdir(tmp_path) == ["cp.json"]


@pytest.mark.parametrize(
    "mutation",
    [
        {"extra_key": 1},
        {"version": 2},
        {"lo": 1},
        {"lo": "3"},
        {"hi": 3},
        {"last_completed": 101},
        {"last_completed": 2},
        {"counterexamples": "none"},
        {"counterexamples": [True]},
        {"histogram": [0] * 255},
        {"histogram": [-1] + [0] * 255},
        {"wall_seconds": -0.5},
        {"wall_seconds": True},
        {"finished": "yes"},
        {"finished": True},
    ],
)
def test_checkpoint_rejects_bad_payloads(mutation):
    payload = valid_payload(**mutation)
    if "extra_key" in mutation:
        payload["extra_key"] = 1
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json(json.dumps(payload))


def test_checkpoint_rejects_missing_key_and_non_object():
    payload = valid_payload()
    del payload["histogram"]
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json(json.dumps(payload))
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json("[]")
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json("{not json")


def test_finished_checkpoint_must_be_complete():
    ok = valid_payload(finished=True, last_completed=100)
    assert checkpoint_from_json(json.dumps(ok)).finished


def test_run_search_argument_validation():
    with pytest.raises(ValueError):
        run_search(1, 10)
    with pytest.raises(ValueError):
        run_search(5, 5)
    with pytest.raises(ValueError):
        run_search(3, 10, workers=0)
    with pytest.raises(ValueError):
        run_search(3, 10, lanes=0)


def test_search_finds_no_counterexamples_below_2e4():
    ck = run_search(3, 20_000)
    assert ck.counterexamples == []
    assert ck.finished
    assert ck.last_completed == 20_000


def test_worker_counts_agree():
    a = run_search(3, 20_000, workers=1)
    b = run_search(3, 20_000, workers=3)
    assert canonical_report(a) == canonical_report(b)


def test_canonical_report_hides_wall_seconds():
    ck = checkpoint_from_json(json.dumps(valid_payload()))
    slow = checkpoint_from_json(json.dumps(valid_payload(wall_seconds=99.0)))
    assert canonical_report(ck) == canonical_report(slow)
    assert "wall" not in canonical_report(ck)


def test_histogram_accumulates(tmp_path):
    ck = run_search(3, 5_000, histogram=True)
    assert ck.histogram is not None
    assert len(ck.histogram) == HISTOGRAM_BUCKETS
    primes = [p for p in ORACLE if 3 <= p < 5_000]
    assert sum(ck.histogram) == len(primes)
    # zero residues would be counterexamples; bucket 0 still catches small ones
    want = [0] * HISTOGRAM_BUCKETS
    for p in primes:
        want[HISTOGRAM_BUCKETS * left_factorial_mod(p) // p] += 1
    assert ck.histogram == want


# sha256 of canonical_report(run_search(lo, hi, histogram=True)), taken
# before the residue kernel was rewritten: a kernel change must keep the bytes
GOLDEN_REPORTS = {
    (3, 30_000): "cc36ce02ed2ca6fba03ff2064e1a45817ec6c96bcb9e3be0321517209d48d6a9",
    (100_000, 102_000): "7c2426f8d908bb952b4a54eb676901632b24abf818773d7ec748036ae126280a",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lo, hi", sorted(GOLDEN_REPORTS))
def test_canonical_report_golden(lo, hi, workers):
    report = canonical_report(run_search(lo, hi, workers=workers, histogram=True))
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_REPORTS[lo, hi]


def test_kill_and_resume_reproduces_straight_run(tmp_path):
    cp = str(tmp_path / "cp.json")
    partial = run_search(3, 30_000, lanes=256, checkpoint_path=cp, block_limit=3)
    assert not partial.finished
    assert 3 < partial.last_completed < 30_000
    resumed = run_search(3, 30_000, lanes=256, checkpoint_path=cp)
    straight = run_search(3, 30_000, lanes=256)
    assert canonical_report(resumed) == canonical_report(straight)
    assert resumed.finished
    # wall clock keeps accumulating across the resume
    assert resumed.wall_seconds >= partial.wall_seconds


def test_finished_checkpoint_short_circuits(tmp_path):
    cp = str(tmp_path / "cp.json")
    first = run_search(3, 2_000, checkpoint_path=cp)
    assert first.finished
    again = run_search(3, 2_000, checkpoint_path=cp)
    assert canonical_report(again) == canonical_report(first)


def test_checkpoint_range_mismatch_is_rejected(tmp_path):
    cp = str(tmp_path / "cp.json")
    run_search(3, 2_000, checkpoint_path=cp)
    with pytest.raises(CheckpointMismatchError):
        run_search(3, 3_000, checkpoint_path=cp)


def test_checkpoint_histogram_mismatch_is_rejected(tmp_path):
    cp = str(tmp_path / "cp.json")
    run_search(3, 2_000, checkpoint_path=cp)
    with pytest.raises(CheckpointMismatchError):
        run_search(3, 2_000, checkpoint_path=cp, histogram=True)


def test_search_checkpoint_file_is_schema_valid(tmp_path):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("kurepa.data").joinpath("checkpoint-schema.json").read_text()
    )
    cp = str(tmp_path / "cp.json")
    run_search(3, 4_000, checkpoint_path=cp, histogram=True)
    with open(cp) as fh:
        jsonschema.validate(json.load(fh), schema)


def test_to_json_round_trips():
    ck = SearchCheckpoint(lo=3, hi=50, last_completed=10, counterexamples=[7])
    assert checkpoint_from_json(ck.to_json()) == ck
