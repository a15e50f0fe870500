"""Recompute the search and frontier reference residues with the oracle loop.

    python3 bench/reference.py

writes bench/reference.json. Every residue comes from the plain
!p mod p loop in oracles.py over primes from its own sieve; no kurepa code
and no program output is read. It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORKERS = 2


def residues(pool, primes: list[int]) -> list[list[int]]:
    # largest first, so the two workers finish together
    order = sorted(primes, reverse=True)
    found = dict(zip(order, pool.map(oracles.left_factorial_mod, order, chunksize=1)))
    return [[p, found[p]] for p in primes]


def build() -> dict:
    base_lo, base_hi = workloads.SEARCH_LO, workloads.SEARCH_HI
    tail_hi = base_hi + workloads.SEARCH_HI_STEP * workloads.SEARCH_HI_CHOICES
    frontier_hi = workloads.FRONTIER_LO + workloads.FRONTIER_WIDTH * workloads.FRONTIER_CHOICES
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        base = residues(pool, oracles.primes_in(base_lo, base_hi))
        tail = residues(pool, oracles.primes_in(base_hi, tail_hi))
        frontier = residues(pool, oracles.primes_in(workloads.FRONTIER_LO, frontier_hi))
    return {
        "search": {
            "lo": base_lo,
            "hi": base_hi,
            "primes": len(base),
            "zeros": [p for p, r in base if r == 0 and p > 2],
            "histogram": oracles.histogram(base),
            "tail_hi": tail_hi,
            "tail": tail,
        },
        "frontier": {"lo": workloads.FRONTIER_LO, "hi": frontier_hi, "residues": frontier},
    }


def main() -> int:
    ref = build()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
