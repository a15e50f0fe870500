"""Residue search for left factorial counterexamples over prime ranges.

A counterexample is an odd prime p with !p = 0 (mod p). For a prime p, !p =
D_(p-1) (mod p), where D is the derangement count (block_residues gives the
proof), so the search carries one running residue, D_m, rather than the
pair (m!, !m). It sieves primes in [lo, hi), cuts them into blocks of
consecutive primes, and computes each block's residues with one big-integer
fold of D from D_0 = 1 to D_(p0-1), p0 the block's first prime, modulo the
product of its primes, followed by a descent down the block's product tree
(the down-pass of Costa, Gerbicz and Harvey's accumulating remainder tree,
"A search for Wilson primes", Math. Comp. 2014). Moduli of BARRETT_BITS or
more are reduced by Barrett reduction (Barrett, CRYPTO '86). _block_results
yields the blocks' results in block order, in process (one worker or one
block) or through the imap of a multiprocessing.Pool of at most one worker
per usable CPU, and one loop in run_search commits them, so a checkpoint
always describes a clean prefix, also the one saved on an interrupt; an
early exit terminates the pool's workers rather than waiting for them.
Waiting on the oldest block leaves no worker idle, because a later block
folds further and so finishes later: on a 2-vCPU machine with CPython 3.11
the four blocks of [3, 150064) take about 0.08, 0.16, 0.24 and 0.14 s of
CPU (medians of 7 runs on one pinned CPU), the last holding 1564 primes,
not 4096. checkpoint_from_json reads each field once, as
data/checkpoint-schema.json types it, then the rules between fields, so a
resumed run cannot report a counterexample it never searched. Reports are
canonical: the same range yields byte-identical output no matter the
worker count or how often the run was interrupted.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, compress, islice
from operator import mul


CHECKPOINT_VERSION = 1
HISTOGRAM_BUCKETS = 256
# primes per block: the unit of work handed to a worker and of commit
DEFAULT_LANES = 4096
SIEVE_SEGMENT = 1 << 18
# modulus width from which _advance reduces by Barrett rather than %
BARRETT_BITS = 8_000
CHECKPOINT_INTERVAL = 30.0
# bell_mod reduces a triangle row mod p once its last entry reaches this
_BELL_REDUCE_AT = 1 << 128


class CheckpointFormatError(ValueError):
    """Checkpoint file is structurally invalid."""


class CheckpointMismatchError(ValueError):
    """Checkpoint file does not describe the requested run."""


def sieve_primes(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi) using O(sqrt(hi) + SIEVE_SEGMENT) memory."""
    if hi <= lo:
        return
    lo = max(lo, 2)
    base = list(sieve_primes(2, math.isqrt(max(hi - 1, 0)) + 1))
    for seg_lo in range(lo, hi, SIEVE_SEGMENT):
        seg_hi = min(seg_lo + SIEVE_SEGMENT, hi)
        mask = bytearray([1]) * (seg_hi - seg_lo)
        for q in base:
            if q * q >= seg_hi:
                break
            start = max(q * q, ((seg_lo + q - 1) // q) * q)
            mask[start - seg_lo :: q] = b"\x00" * len(range(start, seg_hi, q))
        yield from compress(range(seg_lo, seg_hi), mask)


def left_factorial_mod(p: int) -> int:
    """!p mod p in one pass; works for any modulus p >= 1."""
    if p < 1:
        raise ValueError("left_factorial_mod requires p >= 1")
    f = acc = 1
    for k in range(1, p):
        f = f * k % p
        acc += f
    return acc % p


def _run(a: int, b: int) -> tuple[int, int]:
    """The exact map of the steps (a, b] of D_m = m*D_(m-1) + (-1)^m: the
    pair (A, B) with A = (a+1)...b, so that D_b = A*D_a + B.

    Unrolled, B is the sum over a < k <= b of (-1)^k (k+1)...b. A leaf of
    at most 128 steps, as is every chunk of a narrow modulus, takes the
    suffix products q[t] = (b-t+1)...b, q[0] = 1 and q[b-a] = A, from one
    accumulate over b, b-1, ..., a+1, and then B = (-1)^b (q[0] - q[1] +
    q[2] - ...) over every q but A, so no Python bytecode runs per step.
    Longer runs split in half and compose as (A1*A2, B1*A2 + B2), so the
    products are balanced. The empty run is (1, 0).
    """
    if b - a <= 128:
        q = list(accumulate(range(b, a, -1), mul, initial=1))
        even, odd = sum(q[0:-1:2]), sum(q[1:-1:2])
        return q[-1], odd - even if b & 1 else even - odd
    c = (a + b) // 2
    a1, b1 = _run(a, c)
    a2, b2 = _run(c, b)
    return a1 * a2, b1 * a2 + b2


def _advance(d: int, m: int, end: int, modulus: int) -> int:
    """Move d = D_m mod modulus to D_end mod modulus.

    Each chunk (m, b] of step = max(64, k // end.bit_length()) steps, where
    k = modulus.bit_length(), applies its exact map: d <- d*A + B, one
    product and one reduction. When the chunk is k // end.bit_length()
    steps, as at every width from BARRETT_BITS on, A < 2**k and d*A is a
    balanced product. Only the reduction depends on the width:

    - below BARRETT_BITS, %;
    - from BARRETT_BITS on, Barrett: with inv = 2**(2k) // modulus computed
      once, q = ((x >> (k-1)) * inv) >> (k+1) never exceeds x // modulus,
      and since 0 <= x < 2**(2k) + 2**(k+1) it falls short by at most a
      few. On narrow moduli a 64-step A can have far more than k bits, and
      the estimate would fall short by about x // 2**(2k) moduli.

    Measured on 2 vCPUs with CPython 3.11, advancing 30 000 steps near 1e5
    (medians of 7 alternating runs, three trials, one pinned CPU): Barrett
    runs 1.11-1.12x as fast as % at 8 000 bits, 1.14-1.19x at 12 000,
    1.05-1.40x at 16 000 and 1.24-1.69x at 68 000 (a full block's
    product); at 4 000 bits 0.74-1.15x, and near 1e6 at the 1 500 bits of
    a frontier block, 0.91-0.98x.
    """
    k = modulus.bit_length()
    step = max(64, k // end.bit_length())
    if k < BARRETT_BITS:

        def reduce(x: int) -> int:
            return x % modulus

    else:
        inv = (1 << 2 * k) // modulus

        def reduce(x: int) -> int:
            # B alternates in sign, and Barrett needs x >= 0. From m >= 1,
            # |B| < A/(m+1) < 2**(k-1) <= modulus, so adding modulus is
            # enough; the fold from m = 0 starts at D_0 = 1, so x = D_b >= 0.
            x += modulus
            r = x - ((x >> (k - 1)) * inv >> (k + 1)) * modulus
            while r >= modulus:
                r -= modulus
            return r

    while m < end:
        b = min(m + step, end)
        a, c = _run(m, b)
        d = reduce(d * a + c)
        m = b
    return d


def _product_tree(moduli: Sequence[int]) -> tuple:
    """(product, left, right) over the halves of moduli; a leaf is (modulus,)."""
    if len(moduli) == 1:
        return (moduli[0],)
    half = len(moduli) // 2
    left, right = _product_tree(moduli[:half]), _product_tree(moduli[half:])
    return (left[0] * right[0], left, right)


def _descend(d: int, moduli: Sequence[int], node: tuple, residues: list[int]) -> None:
    # d = D_(m-1) mod node[0] at m = moduli[0]
    if len(node) == 1:
        residues.append(d)
        return
    _, left, right = node
    half = len(moduli) // 2
    _descend(d % left[0], moduli[:half], left, residues)
    d = _advance(d % right[0], moduli[0] - 1, moduli[half] - 1, right[0])
    _descend(d, moduli[half:], right, residues)


def block_residues(primes: Sequence[int]) -> list[int]:
    """!p mod p for a strictly increasing block of primes.

    For a prime p, !p = D_(p-1) (mod p), where D is the derangement count:
    D_(p-1) is the sum over k < p of (-1)^k (p-1)!/k!, and
    (p-1)!/k! = (-1)^(p-1-k) (p-1-k)! (mod p), so for odd p, with p - 1
    even, the sum is !p; for p = 2 both sides are 0. D_m = m*D_(m-1) +
    (-1)^m is one running value, where !m needs the pair (m!, !m). The
    identity fails for composites (D_5 = 44 = 2 but !6 = 154 = 4 mod 6),
    so the block must hold primes.

    The block is folded once from D_0 = 1 to D_(p0-1), p0 its first prime,
    modulo M, the product of its primes, and then split down its product
    tree: a node holding D_(m-1) mod its product at its first prime m hands
    it reduced mod the left half's product to the left half, and advances
    it mod the right half's product to the right half's first prime. A
    single prime p then holds D_(p-1) mod p. This holds because each
    prime divides the product of every ancestor. Compared with folding to
    every prime mod M, each level of the descent re-walks only the left
    halves' spans, mod products half the size of the level above. The
    product tree costs about log2(len(primes)) copies of M's size, some
    100 KB for a full block near 1.5e5. _advance states the reduction each
    step takes: the fold and the top levels of a full block are wide, a
    block above 1e6 with a few dozen primes is narrow throughout.
    """
    if not primes:
        return []
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("block_residues requires strictly increasing moduli")
    if primes[0] < 2:
        raise ValueError("block_residues requires moduli >= 2")
    tree = _product_tree(primes)
    residues: list[int] = []
    _descend(_advance(1, 0, primes[0] - 1, tree[0]), primes, tree, residues)
    return residues


_CHECKPOINT_KEYS = ("lo", "hi", "last_completed", "counterexamples", "histogram", "wall_seconds", "finished", "version")


class SearchCheckpoint:
    """Resumable search state: primes in [lo, last_completed) are done."""

    __slots__ = _CHECKPOINT_KEYS

    def __init__(
        self,
        lo: int,
        hi: int,
        last_completed: int,
        counterexamples: list[int] | None = None,
        histogram: list[int] | None = None,
        wall_seconds: float = 0.0,
        finished: bool = False,
    ) -> None:
        self.lo, self.hi, self.last_completed = lo, hi, last_completed
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.histogram, self.wall_seconds, self.finished = histogram, wall_seconds, finished
        self.version = CHECKPOINT_VERSION

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchCheckpoint):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in _CHECKPOINT_KEYS)

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in _CHECKPOINT_KEYS}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _int(value: object, least: int, name: str) -> int:
    """value as an int >= least, counting integers as JSON Schema does: 3 and 3.0, not 3.5 or true."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < least:
        raise CheckpointFormatError(f"{name}: expected an integer >= {least}, got {value!r}")
    return value


def checkpoint_from_json(text: str) -> SearchCheckpoint:
    """Parse checkpoint JSON: each field once, with its type and minimum in
    data/checkpoint-schema.json, then the rules its description adds."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.keys() != set(_CHECKPOINT_KEYS):
        raise CheckpointFormatError(f"checkpoint must be a JSON object with the keys {sorted(_CHECKPOINT_KEYS)}")
    if _int(payload["version"], 1, "version") != CHECKPOINT_VERSION:
        raise CheckpointFormatError("unsupported checkpoint version")
    lo, hi = _int(payload["lo"], 2, "lo"), _int(payload["hi"], 3, "hi")
    last = _int(payload["last_completed"], 2, "last_completed")
    cex, hist = payload["counterexamples"], payload["histogram"]
    if not isinstance(cex, list):
        raise CheckpointFormatError("counterexamples must be a list")
    cex = [_int(p, 3, "counterexamples") for p in cex]
    if hist is not None and not (isinstance(hist, list) and len(hist) == HISTOGRAM_BUCKETS):
        raise CheckpointFormatError(f"histogram must be null or a list of {HISTOGRAM_BUCKETS}")
    hist = None if hist is None else [_int(c, 0, "histogram") for c in hist]
    wall, finished = payload["wall_seconds"], payload["finished"]
    # NaN fails any comparison, and an int past the largest double has no float
    if type(wall) not in (int, float) or not 0 <= wall <= sys.float_info.max:
        raise CheckpointFormatError("wall_seconds must be a finite number >= 0")
    if type(finished) is not bool:
        raise CheckpointFormatError("finished must be a boolean")
    if not (lo < hi and lo <= last <= hi) or finished and last != hi:
        raise CheckpointFormatError("checkpoint needs lo < hi, lo <= last_completed <= hi, and hi reached if finished")
    if cex != sorted(set(cex)) or not all(lo <= p < last for p in cex):
        raise CheckpointFormatError("counterexamples must increase strictly within [lo, last_completed)")
    return SearchCheckpoint(lo, hi, last, cex, hist, float(wall), finished)


def load_checkpoint(path: str) -> SearchCheckpoint:
    with open(path, encoding="utf-8") as fh:
        return checkpoint_from_json(fh.read())


def save_checkpoint(ck: SearchCheckpoint, path: str) -> None:
    """Write atomically: temp file in the same directory, then replace."""
    # only a run with a checkpoint pays for this import, which loads random and shutil
    import tempfile

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


def _block_worker(primes: list[int]) -> tuple[int, list[int], list[int]]:
    residues = block_residues(primes)
    cex = [p for p, r in zip(primes, residues) if r == 0 and p > 2]
    hist = [0] * HISTOGRAM_BUCKETS
    for p, r in zip(primes, residues):
        hist[HISTOGRAM_BUCKETS * r // p] += 1
    return primes[-1] + 1, cex, hist


def _chunked(it: Iterator[int], size: int) -> Iterator[list[int]]:
    chunk: list[int] = []
    for value in it:
        chunk.append(value)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _block_results(blocks: Iterator[list[int]], workers: int) -> Iterator[tuple[int, list[int], list[int]]]:
    """Yield _block_worker(block) for each block, in block order.

    Workers are capped at the usable CPUs, as more would only share them.
    One worker, or a single block, runs in process: a pool would only add
    its import, the forks and a pipe. Otherwise the workers share a
    multiprocessing.Pool, whose imap hands out blocks first in, first out
    and yields their results in block order, so the oldest block is always
    the one awaited. That costs no parallelism: each block folds further
    than the one before it, so blocks finish in submission order anyway.
    Only a short last block can finish early, and then nothing is left to
    hand out. imap draws the blocks in a thread of its own, but the pipe to
    the workers holds only 64 KiB on Linux, so the sieve stays a few full
    blocks ahead (at most 5 with 2 workers to 1e6). A worker's error is
    raised here, in the caller. Any early exit (an interrupt, an error, or
    closing the generator) leaves the with block, whose Pool.terminate
    kills the workers instead of waiting for the blocks they run, whose
    results nobody would commit, so the caller's save follows at once.
    """
    head = list(islice(blocks, 2))
    blocks = chain(head, blocks)
    workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers == 1 or len(head) < 2:
        yield from map(_block_worker, blocks)
        return
    # the pool import costs about 20 ms, so only a parallel run pays it
    import multiprocessing

    with multiprocessing.Pool(workers, initializer=_worker_signals) as pool:
        yield from pool.imap(_block_worker, blocks)


def _worker_signals() -> None:
    import signal

    # Ctrl-C at a terminal signals the workers too; they ignore it and leave
    # the interrupt to the caller, which terminates them. Pool.terminate
    # sends SIGTERM, so a worker drops any handler the caller installed for
    # it and ends at once, printing nothing.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def run_search(
    lo: int,
    hi: int,
    workers: int = 1,
    histogram: bool = False,
    checkpoint_path: str | None = None,
) -> SearchCheckpoint:
    """Search all primes in [lo, hi) for left factorial counterexamples.

    One loop commits the blocks' results in block order, whatever the
    worker count, so last_completed always bounds a fully searched prefix.
    With checkpoint_path the state is persisted atomically at least every
    CHECKPOINT_INTERVAL seconds and once more on any exit, an interrupt or
    an error included; an existing file for the same range is resumed.
    """
    if lo < 2:
        raise ValueError("run_search requires lo >= 2")
    if hi <= lo:
        raise ValueError("run_search requires hi > lo")
    if workers < 1:
        raise ValueError("run_search requires workers >= 1")

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
        if checkpoint_path is not None:
            save_checkpoint(ck, checkpoint_path)

    started = last_save = time.monotonic()
    base_wall = ck.wall_seconds
    blocks = _chunked(sieve_primes(ck.last_completed, hi), DEFAULT_LANES)
    try:
        for end, cex, block_hist in _block_results(blocks, workers):
            # one rebinding per block, so an interrupt never saves half a block
            ck = SearchCheckpoint(
                lo,
                hi,
                end,
                ck.counterexamples + cex,
                None if ck.histogram is None else [a + b for a, b in zip(ck.histogram, block_hist)],
                ck.wall_seconds,
            )
            now = time.monotonic()
            if checkpoint_path is not None and now - last_save >= CHECKPOINT_INTERVAL:
                ck.wall_seconds = base_wall + (now - started)
                save_checkpoint(ck, checkpoint_path)
                last_save = now
        ck = SearchCheckpoint(lo, hi, hi, ck.counterexamples, ck.histogram, ck.wall_seconds, finished=True)
    finally:
        ck.wall_seconds = base_wall + (time.monotonic() - started)
        if checkpoint_path is not None:
            save_checkpoint(ck, checkpoint_path)
    return ck


def bell_mod(n: int, p: int) -> int:
    """Bell number B_n mod p: row n of the Bell triangle, reduced mod p past 128 bits.

    Row k + 1 is the running sums of row k, started from its last entry.
    The entries are nonnegative, so the last is the largest, and a row is
    reduced mod p only once that entry reaches 2**128. Reducing is exact
    whenever it happens: every entry stays an integer congruent mod p to
    its Bell triangle entry, and sums of congruent numbers are congruent,
    so row[0] % p is B_n mod p. bell_mod(996, 997) reduces 53 of its 996
    rows, and on a 2-vCPU machine with CPython 3.11 takes about 15 ms,
    where reducing every entry took about 27 ms. It shares no arithmetic
    with left_factorial_mod, nor code with the exact Bell memo in
    sequences, so the congruence !p = B_(p-1) - 1 (mod p) compares two
    independent algorithms.
    """
    if n < 0:
        raise ValueError("bell_mod requires n >= 0")
    if p < 1:
        raise ValueError("bell_mod requires p >= 1")
    row = [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
        if row[-1] >= _BELL_REDUCE_AT:
            row = [v % p for v in row]
    return row[0] % p
