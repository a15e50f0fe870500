"""Sieve, modular oracles, checkpoint hygiene, and search determinism."""

import functools
import hashlib
import json
import math
import multiprocessing
import os
import random
import signal
import stat
import subprocess
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fresh_python
from kurepa import verifier
from kurepa.sequences import bell, derangement, left_factorial
from kurepa.verifier import (
    DEFAULT_LANES,
    CheckpointFormatError,
    CheckpointMismatchError,
    HISTOGRAM_BUCKETS,
    SearchCheckpoint,
    bell_mod,
    block_residues,
    canonical_report,
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
    windows = [(2, 3), (3, 4), (100, 200), (262_100, 262_200), (99_991, 99_992)]
    # tiny ranges and windows ending just past a prime square pin the
    # recursive sieve's base-prime bound
    windows += [(2, 5), (2, 10), (48, 50), (120, 122), (168, 170), (5, 5)]
    for lo, hi in windows:
        want = [p for p in eratosthenes(hi) if lo <= p < hi]
        assert list(sieve_primes(lo, hi)) == want, (lo, hi)


def test_sieve_small_segment_agrees(monkeypatch):
    # segment boundaries must not drop or duplicate primes
    monkeypatch.setattr(verifier, "SIEVE_SEGMENT", 64)
    assert list(sieve_primes(2, 10_000)) == [p for p in ORACLE if p < 10_000]


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


def test_left_factorial_is_a_derangement_count_mod_a_prime():
    # the identity the kernel rests on: !p = D_(p-1) (mod p) for a prime p
    for p in [p for p in ORACLE if p <= 2000]:
        assert derangement(p - 1) % p == left_factorial_mod(p), p
    # it fails for composites, so block_residues takes primes only:
    # D_5 = 44 = 2 but !6 = 154 = 4 (mod 6)
    assert (derangement(5) % 6, left_factorial_mod(6)) == (2, 4)


# the scalar oracle, remembered across Hypothesis examples
scalar_residue = functools.lru_cache(maxsize=None)(left_factorial_mod)


@settings(max_examples=60)
@given(st.sets(st.sampled_from([p for p in ORACLE if p < 3000]), min_size=1, max_size=400))
def test_block_residues_any_increasing_primes(primes):
    # a few hundred primes split through several levels of the descent
    primes = sorted(primes)
    assert block_residues(primes) == [scalar_residue(p) for p in primes]


def walk(x, m, end):
    """Step x_k = k*x_(k-1) + (-1)^k from x_m to x_end, term by term."""
    for k in range(m + 1, end + 1):
        x = k * x + (-1) ** k
    return x


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=2_000_000),
    # runs either side of the 128-step leaf, a leaf, and a few splits
    st.one_of(st.sampled_from([0, 1, 127, 128, 129]), st.integers(min_value=0, max_value=600)),
    st.integers(min_value=0, max_value=600),
)
@example(0, 0, 0)
@example(4, 127, 60)
@example(5, 127, 0)
@example(1_000_000, 128, 128)
@example(999_999, 128, 64)
@example(6, 129, 1)
@example(7, 129, 128)
def test_run_is_the_exact_map_of_its_steps(a, length, cut):
    b = a + length
    m = a + cut % (length + 1)
    run = verifier._run(a, b)
    assert run == (math.prod(range(a + 1, b + 1)), walk(0, a, b))
    (a1, b1), (a2, b2) = verifier._run(a, m), verifier._run(m, b)
    assert (a1 * a2, b1 * a2 + b2) == run
    assert verifier._run(a, a) == (1, 0)


# widths either side of the threshold, and either side of 16 000 bits, deep
# in the Barrett route, where the moduli are near a full block's product
@pytest.mark.parametrize(
    "bits",
    [verifier.BARRETT_BITS - 1, verifier.BARRETT_BITS, verifier.BARRETT_BITS + 1, 15_999, 16_000, 16_001],
)
@pytest.mark.parametrize("shape", ["low", "high", "random"])
def test_advance_either_side_of_the_route_threshold(bits, shape):
    # the extreme moduli of a width stress Barrett's correction step
    modulus = {
        "low": (1 << (bits - 1)) + 1,
        "high": (1 << bits) - 1,
        "random": random.Random(bits).getrandbits(bits) | (1 << (bits - 1)),
    }[shape]
    m, end = 700, 6_000  # several chunks on either route
    d = walk(1, 0, m)  # D_m
    assert verifier._advance(d % modulus, m, end, modulus) == walk(d, m, end) % modulus
    # from d = 0 the reduction sees the first chunk's constant B alone,
    # which is negative when m + 1 is odd, as at m = 700
    for start in (1, m):
        assert verifier._advance(0, start, end, modulus) == walk(0, start, end) % modulus


def test_advance_when_barrett_falls_two_moduli_short():
    # A modulus of k = 8001 bits with bits 7993..7999 clear sits well above
    # 2**(k-1), so inv = 2**(2k) // modulus drops a large fractional part,
    # and for some d just below the modulus the estimate of one chunk falls
    # two moduli short: the correction must subtract twice. (A modulus of
    # 2**(k-1) + small leaves inv almost no fraction to drop.)
    rng = random.Random(0)
    k = 8001
    modulus = (1 << (k - 1)) | rng.getrandbits(k - 8) | 1
    end = 2**20 - 1
    m = end - k // end.bit_length()  # one chunk
    a, b = verifier._run(m, end)
    inv = (1 << 2 * k) // modulus
    for _ in range(1000):
        d = modulus - 1 - rng.getrandbits(k - 11)
        x = d * a + b + modulus
        if x - ((x >> (k - 1)) * inv >> (k + 1)) * modulus >= 2 * modulus:
            break
    else:
        pytest.fail("no seeded d puts the estimate two moduli short")
    assert verifier._advance(d, m, end, modulus) == walk(d, m, end) % modulus


def test_block_residues_narrow_window_far_out():
    primes = [p for p in ORACLE if 100_000 <= p < 100_300]
    assert block_residues(primes) == [left_factorial_mod(p) for p in primes]


def test_two_is_not_a_counterexample():
    # !2 = 2 = 0 (mod 2), but only odd primes count
    assert left_factorial_mod(2) == 0
    assert run_search(2, 100).counterexamples == []


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=260), st.sampled_from([1, 2, 3, 4, 5, 7, 10, 97, 101, 997, 1000, 2**130 + 1]))
def test_bell_mod_matches_exact(n, p):
    assert bell_mod(n, p) == bell(n) % p


def bell_pred_mod(p):
    """B_(p-1) mod p for a prime p in O(p) steps, without the Bell triangle.

    S(p-1, k) = (1/k!) * sum_j (-1)^(k-j) C(k, j) j^(p-1), and by Fermat
    j^(p-1) = 1 for 0 < j < p, so S(p-1, k) = (-1)^(k+1) / k! (mod p) for
    1 <= k < p. The inverse factorials run down from 1/(p-1)! = -1 (Wilson).
    """
    total, inv = 0, p - 1
    for k in range(p - 1, 0, -1):
        total += inv if k % 2 else -inv
        inv = inv * k % p
    return total % p


def test_bell_pred_mod_matches_the_triangle():
    for p in [*(p for p in ORACLE if p < 300), 997]:
        assert bell_pred_mod(p) == bell_mod(p - 1, p), p


def test_bell_congruence_on_a_full_block_near_1e5():
    # one DEFAULT_LANES block near 1e5: its ~70 000-bit product takes the
    # Barrett route; sampled primes meet the congruence !p = B_(p-1) - 1
    block = list(islice(sieve_primes(100_000, 200_000), DEFAULT_LANES))
    residues = block_residues(block)
    for i in [*range(0, DEFAULT_LANES, DEFAULT_LANES // 8), DEFAULT_LANES - 1]:
        p = block[i]
        assert residues[i] == (bell_pred_mod(p) - 1) % p, p


def test_bell_congruence_odd_primes_to_100():
    # !p = B_(p-1) - 1 (mod p): two residue algorithms that share no arithmetic
    primes = [p for p in ORACLE if 2 < p <= 100]
    assert len(primes) == 24
    for p in primes:
        assert (bell_mod(p - 1, p) - 1) % p == left_factorial_mod(p), p


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


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = str(tmp_path / "cp.json")
    save_checkpoint(checkpoint_from_json(json.dumps(valid_payload())), path)
    with open(path, "rb") as fh:
        before = fh.read()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_checkpoint(checkpoint_from_json(json.dumps(valid_payload(last_completed=11))), path)
    # the written temp file is removed, and the old checkpoint is untouched
    assert os.listdir(tmp_path) == ["cp.json"]
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_checkpoint_save_syncs_the_file_then_replaces_then_syncs_the_directory(tmp_path, monkeypatch):
    ck = checkpoint_from_json(json.dumps(valid_payload()))
    path = str(tmp_path / "cp.json")
    fsync, replace, events = os.fsync, os.replace, []

    def record_fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            events.append(("fsync dir", st.st_ino == os.stat(tmp_path).st_ino))
        else:
            # the whole text is in the file when it is synced
            events.append(("fsync file", st.st_size == len(ck.to_json().encode())))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace", (src, dst) == (path + ".tmp", path)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    save_checkpoint(ck, path)
    assert events == [("fsync file", True), ("replace", True), ("fsync dir", True)]
    assert load_checkpoint(path) == ck


def test_save_killed_before_its_replace_leaves_nothing_after_the_resume(tmp_path):
    # run_search saves at its start and once more at its end; the second
    # os.replace kills its own process, as a kill -9 between the write and
    # the replace would, leaving the written temporary file behind
    cp = tmp_path / "cp.json"
    killed = fresh_python(
        "-c",
        "import os, signal, sys\n"
        "from kurepa.verifier import run_search\n"
        "replace, calls = os.replace, []\n"
        "def kill_on_second(src, dst):\n"
        "    calls.append(src)\n"
        "    if len(calls) == 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    replace(src, dst)\n"
        "os.replace = kill_on_second\n"
        "run_search(3, 60000, checkpoint_path=sys.argv[1])\n",
        str(cp),
        capture_output=True,
        text=True,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert sorted(os.listdir(tmp_path)) == ["cp.json", "cp.json.tmp"]
    resumed = fresh_python(
        "-m", "kurepa", "verify", "3", "60000", "--checkpoint", str(cp), capture_output=True, text=True
    )
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == canonical_report(run_search(3, 60000)) + "\n"
    # the resumed run's saves wrote over the leftover and replaced the checkpoint with it
    assert os.listdir(tmp_path) == ["cp.json"]


# counterexamples that no run can have written, and a wall_seconds that
# to_json could not write back as JSON
IMPOSSIBLE = [
    {"counterexamples": [7, 5000]},
    {"counterexamples": [11, 7, 7, 97]},
    {"counterexamples": [11, 7]},
    {"counterexamples": [7, 7]},
    {"counterexamples": [7, 50]},
    {"lo": 5, "counterexamples": [3]},
    {"wall_seconds": float("inf")},
    {"wall_seconds": float("nan")},
    {"wall_seconds": 10**400},
]

BAD_PAYLOADS = [
    {"extra_key": 1},
    {"version": 2},
    {"version": True},
    {"lo": 1},
    {"lo": "3"},
    {"hi": 3},
    {"last_completed": 101},
    {"last_completed": 2},
    {"counterexamples": "none"},
    {"counterexamples": [True]},
    {"counterexamples": [0]},
    {"counterexamples": [2]},
    {"histogram": [0] * 255},
    {"histogram": [-1] + [0] * 255},
    {"wall_seconds": -0.5},
    {"wall_seconds": True},
    {"finished": "yes"},
    {"finished": True},
    {"lo": 3.5},
    {"hi": float("inf")},
    {"counterexamples": [7.5]},
    {"histogram": [0.5] + [0] * 255},
    *IMPOSSIBLE,
]

# what the loader rejects but no keyword of the schema can: the rules between
# fields and a finite wall_seconds, which the schema's description names
# (IMPOSSIBLE's own dicts, so that the NaN one is found in it)
LOADER_ONLY = [{"hi": 3}, {"last_completed": 101}, {"last_completed": 2}, {"finished": True}, *IMPOSSIBLE]


def bad_payload(mutation):
    payload = valid_payload(**mutation)
    if "extra_key" in mutation:
        payload["extra_key"] = 1
    return payload


@pytest.mark.parametrize("mutation", BAD_PAYLOADS)
def test_checkpoint_rejects_bad_payloads(mutation):
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json(json.dumps(bad_payload(mutation)))


@pytest.mark.parametrize("mutation", [m for m in BAD_PAYLOADS if m not in LOADER_ONLY])
def test_schema_rejects_every_per_field_mutation(mutation):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(json.dumps(bad_payload(mutation))), checkpoint_schema())


# any JSON value a field might hold: right and wrong types, integral floats,
# non-finite floats, and lists short and histogram-long
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 120),
    st.integers(-1, 120).map(float),
    st.floats(),
    st.sampled_from(["", "3", "yes"]),
    st.lists(st.integers(0, 120), max_size=4),
    st.sampled_from([0, 2.0, -1, 0.5, True]).map(lambda c: [c] + [1] * (HISTOGRAM_BUCKETS - 1)),
)


@given(overrides=st.dictionaries(st.sampled_from(sorted(valid_payload())), JSON_VALUES, max_size=3))
def test_every_checkpoint_the_loader_accepts_validates(overrides):
    import jsonschema

    text = json.dumps(valid_payload(**overrides))
    try:
        checkpoint_from_json(text)
    except CheckpointFormatError:
        return
    jsonschema.validate(json.loads(text), checkpoint_schema())


def test_checkpoint_rejects_missing_key_and_non_object():
    payload = valid_payload()
    del payload["histogram"]
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json(json.dumps(payload))
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json("[]")
    with pytest.raises(CheckpointFormatError):
        checkpoint_from_json("{not json")


def checkpoint_schema():
    from importlib import resources

    return json.loads(resources.files("kurepa.data").joinpath("checkpoint-schema.json").read_text())


def _as_ints(value):
    return [int(v) for v in value] if isinstance(value, list) else int(value)


@pytest.mark.parametrize(
    "floats",
    [
        {"version": 1.0},
        {"lo": 3.0, "hi": 100.0, "last_completed": 50.0},
        {"counterexamples": [7.0, 11.0]},
        {"histogram": [2.0] + [0.0] * 255},
    ],
)
def test_checkpoint_accepts_integral_floats(floats):
    # JSON Schema's "integer" admits 3.0, so the loader does too, and stores int
    import jsonschema

    payload = valid_payload(**floats)
    jsonschema.validate(payload, checkpoint_schema())
    ck = checkpoint_from_json(json.dumps(payload))
    ints = checkpoint_from_json(json.dumps(valid_payload(**{k: _as_ints(v) for k, v in floats.items()})))
    assert ck == ints
    assert canonical_report(ck) == canonical_report(ints)


def test_resume_from_integral_float_checkpoint(tmp_path):
    cp = tmp_path / "cp.json"
    payload = valid_payload(lo=3.0, hi=2_000.0, last_completed=500.0, version=1.0)
    cp.write_text(json.dumps(payload))
    resumed = run_search(3, 2_000, checkpoint_path=str(cp))
    assert canonical_report(resumed) == canonical_report(run_search(3, 2_000))


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


def test_search_finds_no_counterexamples_below_2e4():
    ck = run_search(3, 20_000)
    assert ck.counterexamples == []
    assert ck.finished
    assert ck.last_completed == 20_000


def test_worker_counts_agree(monkeypatch):
    # [3, 20000) is one DEFAULT_LANES block, which runs in process; smaller
    # blocks send it through the pool
    monkeypatch.setattr(verifier, "DEFAULT_LANES", 256)
    a = run_search(3, 20_000, workers=1)
    b = run_search(3, 20_000, workers=3)
    assert canonical_report(a) == canonical_report(b)
    # a finished parallel run leaves no worker behind
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "affinity, cpu_count, pool",
    [
        pytest.param({0, 1}, 64, [2], id="two-usable-of-64"),
        pytest.param({0, 1, 2}, 3, [3], id="three-usable"),
        pytest.param({0}, 64, [], id="one-usable-runs-in-process"),
        pytest.param(None, 4, [4], id="no-affinity-cpu-count"),
        pytest.param(None, None, [], id="no-affinity-unknown-count"),
    ],
)
def test_pool_holds_at_most_one_worker_per_usable_cpu(monkeypatch, affinity, cpu_count, pool):
    sizes = []

    class RecordingPool:
        """multiprocessing.Pool's part that _block_results uses, in process: it starts nothing."""

        def __init__(self, processes, initializer=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(verifier, "DEFAULT_LANES", 256)
    ck = run_search(3, 20_000, workers=5000)
    assert sizes == pool
    assert canonical_report(ck) == canonical_report(run_search(3, 20_000))


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
    # the frontier's shape: one block of 75 primes, narrow throughout
    (1_000_000, 1_001_000): "3515270338fd6959ef20025c48566d9c3a26699c1a979565d1db2f7d6c8d7305",
}


# blocks of 64 primes cut (3, 30_000) into 51 blocks, many more than the
# 2-worker pool runs at once, so blocks are handed out while earlier ones
# commit; the DEFAULT_LANES cases keep their ids from before the block size
# could be changed
@pytest.mark.parametrize(
    "lo, hi, workers, lanes",
    [
        pytest.param(
            lo, hi, workers, lanes,
            id=f"{lo}-{hi}-{workers}" + ("" if lanes == DEFAULT_LANES else f"-{lanes}"),
        )
        for lo, hi in sorted(GOLDEN_REPORTS)
        for workers in (1, 2)
        for lanes in (DEFAULT_LANES, 64)
    ],
)
def test_canonical_report_golden(monkeypatch, lo, hi, workers, lanes):
    monkeypatch.setattr(verifier, "DEFAULT_LANES", lanes)
    report = canonical_report(run_search(lo, hi, workers=workers, histogram=True))
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_REPORTS[lo, hi]


def test_canonical_report_golden_benchmark_size():
    # the benchmark's search range, whose full blocks take the Barrett route;
    # the hash was taken before the kernel split blocks down a product tree
    report = canonical_report(run_search(3, 150_000, workers=2, histogram=True))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "75dd3529487aad801a17a568cf51c3bd8fa3e4f34c8e43a05ab9f9646cb99d15"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_kill_and_resume_reproduces_straight_run(tmp_path, monkeypatch, interrupt_after, workers):
    monkeypatch.setattr(verifier, "DEFAULT_LANES", 256)
    cp = str(tmp_path / "cp.json")
    interrupt_after(3)
    with pytest.raises(KeyboardInterrupt):
        run_search(3, 30_000, workers=workers, checkpoint_path=cp)
    # an interrupt shuts the pool down before run_search raises
    assert multiprocessing.active_children() == []
    partial = load_checkpoint(cp)
    assert not partial.finished
    # the save on interrupt holds exactly the three committed blocks
    assert partial.last_completed == list(sieve_primes(3, 30_000))[3 * 256 - 1] + 1
    resumed = run_search(3, 30_000, checkpoint_path=cp)
    straight = run_search(3, 30_000)
    assert canonical_report(resumed) == canonical_report(straight)
    assert resumed.finished
    # wall clock keeps accumulating across the resume
    assert resumed.wall_seconds >= partial.wall_seconds


def test_worker_error_reaches_the_caller():
    # the second block's moduli do not increase, so its worker raises
    results = verifier._block_results(iter([[3, 5, 7], [11, 7]]), 2)
    assert next(results) == verifier._block_worker([3, 5, 7])
    with pytest.raises(ValueError, match="strictly increasing"):
        next(results)
    # the error left the pool, which terminated its workers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_periodic_checkpoints_describe_a_growing_prefix(tmp_path, monkeypatch, workers):
    saves = []

    def reread(ck, path):
        save_checkpoint(ck, path)
        saves.append(load_checkpoint(path))

    monkeypatch.setattr(verifier, "CHECKPOINT_INTERVAL", 0.0)
    monkeypatch.setattr(verifier, "save_checkpoint", reread)
    monkeypatch.setattr(verifier, "DEFAULT_LANES", 256)
    run_search(3, 30_000, workers=workers, checkpoint_path=str(tmp_path / "cp.json"))
    # the first save, one after each of the 13 blocks, and the last
    assert len(saves) == 15
    frontier = [ck.last_completed for ck in saves]
    assert frontier == sorted(frontier)
    assert [ck.finished for ck in saves] == [False] * 14 + [True]


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

    cp = str(tmp_path / "cp.json")
    run_search(3, 4_000, checkpoint_path=cp, histogram=True)
    with open(cp) as fh:
        jsonschema.validate(json.load(fh), checkpoint_schema())


def test_to_json_round_trips():
    ck = SearchCheckpoint(lo=3, hi=50, last_completed=10, counterexamples=[7])
    assert checkpoint_from_json(ck.to_json()) == ck
    assert checkpoint_from_json(ck.to_json()) != SearchCheckpoint(lo=3, hi=50, last_completed=11, counterexamples=[7])
    fresh = SearchCheckpoint(lo=3, hi=9, last_completed=3, counterexamples=[])
    assert checkpoint_from_json(fresh.to_json()) == fresh


def test_checkpoints_do_not_share_a_counterexample_list():
    # no field of a checkpoint is ever reassigned: a commit is a _replace
    # copy with a new counterexample list, and the old checkpoint keeps its own
    a = SearchCheckpoint(lo=3, hi=9, last_completed=3, counterexamples=[])
    with pytest.raises(AttributeError):
        a.wall_seconds = 1.0
    with pytest.raises(AttributeError):
        a.counterexamples = [5]
    with pytest.raises(AttributeError):
        a.note = "no attribute outside the fields"
    b = a._replace(last_completed=5, counterexamples=a.counterexamples + [3])
    assert (a.last_completed, a.counterexamples) == (3, [])
    assert (b.last_completed, b.counterexamples) == (5, [3])
    with pytest.raises(TypeError):
        SearchCheckpoint(lo=3, hi=9, last_completed=3)


def test_checkpoint_fields_are_the_schema_keys():
    schema = checkpoint_schema()
    assert set(SearchCheckpoint._fields) == set(schema["required"]) == schema["properties"].keys()


# the real signals `verify` turns into a clean exit: the shell's exit code
# and the word on its one stderr line
SIGNALS = [
    pytest.param(signal.SIGINT, 130, "interrupted", id="SIGINT"),
    pytest.param(signal.SIGTERM, 143, "terminated", id="SIGTERM"),
]

# sha256 of the plain output of a straight `verify 3 600000 --histogram`
STRAIGHT_600K = "db0c42fe921a5235c6b7a5250985f8dcc6c0ec2ef59387f8a5a210671259c4d0"


def run_verify(hi, workers, cp, **popen):
    """Start `verify 3 hi --histogram` with a checkpoint in a new interpreter."""
    argv = ["verify", "3", str(hi), "--histogram", "--workers", str(workers), "--checkpoint", str(cp)]
    return fresh_python("-m", "kurepa", *argv, start=subprocess.Popen, **popen)


def start_verify_then_signal(tmp_path, sig, workers, group=False, hi=1_000_000):
    """Run `verify 3 hi` with a checkpoint, let it commit blocks for three
    seconds, then send `sig` to the process alone, or with group=True to its
    whole process group, workers included, as Ctrl-C at a terminal does.
    Returns the process, the checkpoint path and the monotonic time of the
    signal."""
    cp = tmp_path / "cp.json"
    proc = run_verify(hi, workers, cp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                      start_new_session=group)
    try:
        deadline = time.monotonic() + 60
        while not cp.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        # the initial save lies at lo; three seconds of search commit blocks
        time.sleep(3)
        if group:
            os.killpg(proc.pid, sig)
        else:
            proc.send_signal(sig)
        return proc, cp, time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def finish_signalled(proc):
    """Wait for the signalled verify and return its stderr."""
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return err.decode()


@pytest.mark.parametrize("sig, code, word", SIGNALS)
def test_signal_keeps_the_committed_prefix(tmp_path, sig, code, word):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("kurepa.data").joinpath("checkpoint-schema.json").read_text()
    )
    proc, cp, _ = start_verify_then_signal(tmp_path, sig, workers=1, hi=600_000)
    err = finish_signalled(proc)
    # either signal is a clean exit: the shell's code and one line naming the file
    assert proc.returncode == code
    assert "Traceback" not in err
    assert err == f"kurepa: {word}; progress saved in {cp}\n"
    payload = json.loads(cp.read_text())
    jsonschema.validate(payload, schema)
    assert not payload["finished"]
    assert payload["last_completed"] > 3
    # the resumed run prints what a straight run prints
    resumed = run_verify(600_000, 2, cp, stdout=subprocess.PIPE)
    out, _ = resumed.communicate(timeout=120)
    assert resumed.returncode == 0
    assert hashlib.sha256(out).hexdigest() == STRAIGHT_600K


@pytest.mark.parametrize("sig, code, word", SIGNALS)
def test_signal_saves_before_waiting_on_workers(tmp_path, sig, code, word):
    # with workers the committed prefix reaches disk at once, not after the
    # blocks in flight finish, so a kill -9 soon after the signal loses nothing
    proc, cp, signalled = start_verify_then_signal(tmp_path, sig, workers=2)
    try:
        while json.loads(cp.read_text())["last_completed"] <= 3:
            assert time.monotonic() - signalled < 2, f"no save within 2 s of {sig.name}"
            time.sleep(0.01)
    finally:
        err = finish_signalled(proc)
    assert proc.returncode == code
    assert "Traceback" not in err
    assert not json.loads(cp.read_text())["finished"]


@pytest.mark.parametrize("sig, code, word", SIGNALS)
def test_group_signal_prints_one_line_and_leaves_no_worker(tmp_path, sig, code, word):
    # the workers ignore SIGINT and die at once on SIGTERM, so none prints a
    # traceback, and the pool's terminate stops them before the process exits
    proc, cp, _ = start_verify_then_signal(tmp_path, sig, workers=2, group=True)
    err = finish_signalled(proc)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # nothing of the run's process group is left
    else:
        pytest.fail("a worker outlived the signalled run")
    assert proc.returncode == code
    assert err == f"kurepa: {word}; progress saved in {cp}\n"
