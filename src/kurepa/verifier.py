"""Residue search for left factorial counterexamples over prime ranges.

A counterexample is an odd prime p with !p = 0 (mod p). The search sieves
primes in [lo, hi), cuts them into blocks of consecutive primes, computes
each block's residues with one big-integer fold modulo the product of its
primes, and commits results block by block behind a contiguous frontier
so a checkpoint always describes a clean prefix.
Reports are canonical: the same range yields byte-identical output no
matter the worker count or how often the run was interrupted.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Sequence

from .discrepancy import DiscrepancyReport, compare
from .sequences import bell_rows

CHECKPOINT_VERSION = 1
HISTOGRAM_BUCKETS = 256
DEFAULT_LANES = 4096

_CHECKPOINT_KEYS = (
    "version",
    "lo",
    "hi",
    "last_completed",
    "counterexamples",
    "histogram",
    "wall_seconds",
    "finished",
)


class CheckpointFormatError(ValueError):
    """Checkpoint file is structurally invalid."""


class CheckpointMismatchError(ValueError):
    """Checkpoint file does not describe the requested run."""


def _small_primes(n: int) -> list[int]:
    # plain sieve up to n inclusive; feeds the segmented sieve with base primes
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0] = mask[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if mask[q]:
            mask[q * q :: q] = b"\x00" * len(range(q * q, n + 1, q))
    return [i for i, b in enumerate(mask) if b]


def sieve_primes(lo: int, hi: int, segment: int = 1 << 18) -> Iterator[int]:
    """Yield the primes in [lo, hi) using O(sqrt(hi) + segment) memory."""
    if hi <= lo:
        return
    lo = max(lo, 2)
    base = _small_primes(math.isqrt(max(hi - 1, 0)))
    for seg_lo in range(lo, hi, segment):
        seg_hi = min(seg_lo + segment, hi)
        mask = bytearray([1]) * (seg_hi - seg_lo)
        for q in base:
            if q * q >= seg_hi:
                break
            start = max(q * q, ((seg_lo + q - 1) // q) * q)
            mask[start - seg_lo :: q] = b"\x00" * len(range(start, seg_hi, q))
        for i, b in enumerate(mask):
            if b:
                yield seg_lo + i


def left_factorial_mod(p: int) -> int:
    """!p mod p in one pass; works for any modulus p >= 1."""
    if p < 1:
        raise ValueError("left_factorial_mod requires p >= 1")
    f = acc = 1
    for k in range(1, p):
        f = f * k % p
        acc += f
    return acc % p


def block_residues(primes: Sequence[int]) -> list[int]:
    """!p mod p for a strictly increasing block of moduli >= 2.

    The block is folded once modulo M, the product of its moduli: the pair
    (F, S) = (m!, !m) mod M advances in chunks [m, b) of at most 64 steps
    that end at or before the next modulus. A chunk's exact pair
    P = (m+1)...b and Q = sum over j in [m, b) of (m+1)...j gives
    S <- S + F*Q and F <- F*P, and once m reaches a modulus p, S mod p is
    !p mod p because p divides M.
    """
    if not primes:
        return []
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("block_residues requires strictly increasing moduli")
    if primes[0] < 2:
        raise ValueError("block_residues requires moduli >= 2")
    modulus = math.prod(primes)
    f = s = 1
    m = 1
    residues: list[int] = []
    for p in primes:
        while m < p:
            b = min(m + 64, p)
            q = 1
            for k in range(b - 1, m, -1):
                q = q * k + 1
            s = (s + f * q) % modulus
            f = f * math.prod(range(m + 1, b + 1)) % modulus
            m = b
        residues.append(s % p)
    return residues


@dataclass
class SearchCheckpoint:
    """Resumable search state: primes in [lo, last_completed) are done."""

    lo: int
    hi: int
    last_completed: int
    counterexamples: list[int] = field(default_factory=list)
    histogram: list[int] | None = None
    wall_seconds: float = 0.0
    finished: bool = False
    version: int = CHECKPOINT_VERSION

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in _CHECKPOINT_KEYS}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckpointFormatError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checkpoint_from_json(text: str) -> SearchCheckpoint:
    """Parse and validate checkpoint JSON; unknown keys are rejected."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"checkpoint is not valid JSON: {exc}") from exc
    _require(isinstance(payload, dict), "checkpoint must be a JSON object")
    extra = set(payload) - set(_CHECKPOINT_KEYS)
    missing = set(_CHECKPOINT_KEYS) - set(payload)
    _require(not extra, f"unknown checkpoint keys: {sorted(extra)}")
    _require(not missing, f"missing checkpoint keys: {sorted(missing)}")
    _require(payload["version"] == CHECKPOINT_VERSION, "unsupported checkpoint version")
    lo, hi, last = payload["lo"], payload["hi"], payload["last_completed"]
    _require(all(_is_int(v) for v in (lo, hi, last)), "range fields must be integers")
    _require(2 <= lo < hi, "checkpoint range must satisfy 2 <= lo < hi")
    _require(lo <= last <= hi, "last_completed must lie in [lo, hi]")
    cex = payload["counterexamples"]
    _require(isinstance(cex, list) and all(_is_int(p) for p in cex), "counterexamples must be a list of integers")
    hist = payload["histogram"]
    if hist is not None:
        _require(
            isinstance(hist, list)
            and len(hist) == HISTOGRAM_BUCKETS
            and all(_is_int(c) and c >= 0 for c in hist),
            f"histogram must be null or {HISTOGRAM_BUCKETS} nonnegative integers",
        )
    wall = payload["wall_seconds"]
    _require(isinstance(wall, (int, float)) and not isinstance(wall, bool) and wall >= 0, "wall_seconds must be nonnegative")
    finished = payload["finished"]
    _require(isinstance(finished, bool), "finished must be a boolean")
    if finished:
        _require(last == hi, "a finished checkpoint must have last_completed == hi")
    return SearchCheckpoint(
        lo=lo,
        hi=hi,
        last_completed=last,
        counterexamples=list(cex),
        histogram=list(hist) if hist is not None else None,
        wall_seconds=float(wall),
        finished=finished,
    )


def load_checkpoint(path: str) -> SearchCheckpoint:
    with open(path, encoding="utf-8") as fh:
        return checkpoint_from_json(fh.read())


def save_checkpoint(ck: SearchCheckpoint, path: str) -> None:
    """Write atomically: temp file in the same directory, then replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".checkpoint-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(ck.to_json())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_report(ck: SearchCheckpoint) -> str:
    """Deterministic summary of a search; wall_seconds is deliberately absent
    so reports from different worker counts or resume patterns compare equal.
    """
    payload = {key: getattr(ck, key) for key in _CHECKPOINT_KEYS if key != "wall_seconds"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _block_worker(idx: int, primes: list[int]) -> tuple[int, list[int], list[int]]:
    residues = block_residues(primes)
    cex = [p for p, r in zip(primes, residues) if r == 0 and p > 2]
    hist = [0] * HISTOGRAM_BUCKETS
    for p, r in zip(primes, residues):
        hist[HISTOGRAM_BUCKETS * r // p] += 1
    return idx, cex, hist


def _chunked(it: Iterator[int], size: int) -> Iterator[list[int]]:
    chunk: list[int] = []
    for value in it:
        chunk.append(value)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def run_search(
    lo: int,
    hi: int,
    workers: int = 1,
    histogram: bool = False,
    checkpoint_path: str | None = None,
    checkpoint_interval: float = 30.0,
    block_limit: int | None = None,
    lanes: int = DEFAULT_LANES,
) -> SearchCheckpoint:
    """Search all primes in [lo, hi) for left factorial counterexamples.

    Results commit strictly in block order even when workers finish out of
    order, so last_completed always bounds a fully searched prefix. With
    checkpoint_path the state is persisted atomically at least every
    checkpoint_interval seconds and once more on exit; an existing file for
    the same range is resumed. block_limit stops the run early after that
    many committed blocks (a test hook standing in for a killed process).
    lanes is the number of primes per block, the unit of work handed to a
    worker and of commit.
    """
    if lo < 2:
        raise ValueError("run_search requires lo >= 2")
    if hi <= lo:
        raise ValueError("run_search requires hi > lo")
    if workers < 1:
        raise ValueError("run_search requires workers >= 1")
    if lanes < 1:
        raise ValueError("run_search requires lanes >= 1")

    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        ck = load_checkpoint(checkpoint_path)
        if (ck.lo, ck.hi) != (lo, hi):
            raise CheckpointMismatchError(
                f"checkpoint covers [{ck.lo}, {ck.hi}), requested [{lo}, {hi})"
            )
        if (ck.histogram is not None) != histogram:
            raise CheckpointMismatchError(
                "histogram setting differs from the checkpoint; rerun with the original setting"
            )
        if ck.finished:
            return ck
    else:
        ck = SearchCheckpoint(
            lo=lo,
            hi=hi,
            last_completed=lo,
            histogram=[0] * HISTOGRAM_BUCKETS if histogram else None,
        )

    started = time.monotonic()
    base_wall = ck.wall_seconds
    last_save = started

    block_iter = _chunked(sieve_primes(ck.last_completed, hi), lanes)
    next_submit = 0
    exhausted = False
    tops: dict[int, int] = {}

    def take_block() -> tuple[int, list[int]] | None:
        nonlocal next_submit, exhausted
        if exhausted:
            return None
        primes = next(block_iter, None)
        if primes is None:
            exhausted = True
            return None
        idx = next_submit
        next_submit += 1
        tops[idx] = primes[-1]
        return idx, primes

    next_commit = 0
    commits = 0
    stopped = False

    def commit(idx: int, cex: list[int], block_hist: list[int]) -> None:
        nonlocal commits
        ck.counterexamples.extend(cex)
        if ck.histogram is not None:
            ck.histogram = [a + b for a, b in zip(ck.histogram, block_hist)]
        ck.last_completed = tops.pop(idx) + 1
        commits += 1

    def maybe_save() -> None:
        nonlocal last_save
        now = time.monotonic()
        if checkpoint_path is not None and now - last_save >= checkpoint_interval:
            ck.wall_seconds = base_wall + (now - started)
            save_checkpoint(ck, checkpoint_path)
            last_save = now

    if checkpoint_path is not None and not os.path.exists(checkpoint_path):
        save_checkpoint(ck, checkpoint_path)

    if workers == 1:
        while not stopped:
            item = take_block()
            if item is None:
                break
            idx, primes = item
            _, cex, block_hist = _block_worker(idx, primes)
            commit(idx, cex, block_hist)
            next_commit = idx + 1
            maybe_save()
            if block_limit is not None and commits >= block_limit:
                stopped = True
    else:
        # the pool import costs about 20 ms, so only a parallel run pays it
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        pending: dict[int, tuple[list[int], list[int]]] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: dict[object, int] = {}

            def top_up() -> None:
                while len(futures) < 2 * workers:
                    item = take_block()
                    if item is None:
                        return
                    idx, primes = item
                    futures[pool.submit(_block_worker, idx, primes)] = idx

            top_up()
            while futures and not stopped:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for fut in done:
                    idx = futures.pop(fut)
                    _, cex, block_hist = fut.result()
                    pending[idx] = (cex, block_hist)
                while next_commit in pending:
                    cex, block_hist = pending.pop(next_commit)
                    commit(next_commit, cex, block_hist)
                    next_commit += 1
                    if block_limit is not None and commits >= block_limit:
                        stopped = True
                        break
                maybe_save()
                if not stopped:
                    top_up()
            if stopped:
                pool.shutdown(cancel_futures=True)

    if not stopped and exhausted and next_commit == next_submit:
        ck.finished = True
        ck.last_completed = hi
    ck.wall_seconds = base_wall + (time.monotonic() - started)
    if checkpoint_path is not None:
        save_checkpoint(ck, checkpoint_path)
    return ck


def bell_mod(n: int, p: int) -> int:
    """Bell number B_n mod p: row n of the Bell triangle with every entry reduced mod p.

    It shares no arithmetic with left_factorial_mod, so check_bell_congruence
    compares two independent algorithms.
    """
    if n < 0:
        raise ValueError("bell_mod requires n >= 0")
    if p < 1:
        raise ValueError("bell_mod requires p >= 1")
    return next(islice(bell_rows(1, p), n, None))[0]


def check_bell_congruence(p: int) -> DiscrepancyReport:
    """!p = Bell_{p-1} - 1 (mod p) for prime p, checked by direct residue."""
    if p < 2:
        raise ValueError("check_bell_congruence requires p >= 2")
    return compare(
        f"congruence.bell.p{p}",
        "sec1.congruence",
        (bell_mod(p - 1, p) - 1) % p,
        left_factorial_mod(p),
        "claimed side is the Bell residue, computed side the direct left factorial residue",
    )
