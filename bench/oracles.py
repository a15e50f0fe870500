"""Reference computations that share no code with kurepa.

Everything here is stdlib only and written from the textbook definitions,
so a fault in the program cannot hide by being copied into its check.
"""

from __future__ import annotations

import math

HISTOGRAM_BUCKETS = 256


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by a plain sieve of Eratosthenes up to hi."""
    if hi <= 2:
        return []
    mask = bytearray([1]) * hi
    mask[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi - 1) + 1):
        if mask[q]:
            mask[q * q :: q] = bytes(len(range(q * q, hi, q)))
    return [p for p in range(max(lo, 2), hi) if mask[p]]


def left_factorial_mod(p: int) -> int:
    """!p mod p = (0! + 1! + ... + (p-1)!) mod p, one k at a time."""
    f = 1
    acc = 1
    for k in range(1, p):
        f = f * k % p
        acc = (acc + f) % p
    return acc % p


def bucket(p: int, residue: int) -> int:
    """Histogram bucket of a residue under the uniform map floor(256 r / p)."""
    return HISTOGRAM_BUCKETS * residue // p


def histogram(pairs) -> list[int]:
    """Bucket counts of (p, residue) pairs."""
    counts = [0] * HISTOGRAM_BUCKETS
    for p, r in pairs:
        counts[bucket(p, r)] += 1
    return counts


def left_factorials(n_max: int) -> list[int]:
    """[!0, !1, ..., !n_max] as running factorial sums, with !0 = 0."""
    out = [0]
    f = 1
    for m in range(n_max):
        out.append(out[-1] + f)
        f *= m + 1
    return out


def bell_numbers(n_max: int) -> list[int]:
    """[B(0), ..., B(n_max)] from the Bell triangle (Aitken's array)."""
    out = [1]
    row = [1]
    while len(out) <= n_max:
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def touchard_holds(bells: list[int], p: int) -> bool:
    """Touchard's congruence B(p + n) = B(n) + B(n + 1) (mod p) wherever the list reaches."""
    return all((bells[p + n] - bells[n] - bells[n + 1]) % p == 0 for n in range(len(bells) - p))


def complementary_bells(n_max: int) -> list[int]:
    """Uppuluri-Carpenter numbers from B~(n+1) = -sum_k C(n, k) B~(k), B~(0) = 1."""
    out = [1]
    for n in range(n_max):
        binom = 1
        total = 0
        for k in range(n + 1):
            total += binom * out[k]
            binom = binom * (n - k) // (k + 1)
        out.append(-total)
    return out


def derangements(n_max: int) -> list[int]:
    """[D(0), ..., D(n_max)] from D(n) = (n - 1)(D(n - 1) + D(n - 2))."""
    out = [1, 0]
    for n in range(2, n_max + 1):
        out.append((n - 1) * (out[-1] + out[-2]))
    return out[: n_max + 1]


def stirling2_row(n: int) -> list[int]:
    """[S(n, 0), ..., S(n, n)] from the explicit inclusion-exclusion sum."""
    return [
        sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1)) // math.factorial(k)
        for k in range(n + 1)
    ]


def shifted_gcds(a: int, n_max: int) -> list[int]:
    """gcd(F(n) + a, F(n+1) + a) for n = 0..n_max, F(n) = sum of k! for k <= n.

    The printed tables take F(0) = 0 rather than the sum 0! = 1; the
    program follows that convention and so does this oracle.
    """
    sums = left_factorials(n_max + 2)
    f = [0] + sums[2:]
    return [math.gcd(f[n] + a, f[n + 1] + a) for n in range(n_max + 1)]


def greedy_decomposition_errors(target: int, terms: list[tuple[int, int]], bells: list[int]) -> list[str]:
    """Ways in which terms fail to be the greedy Bell decomposition of target."""
    errors = []
    indices = [m for m, _ in terms]
    if any(b >= a for a, b in zip(indices, indices[1:])):
        errors.append("indices are not strictly decreasing")
    if sum(q * bells[m] for m, q in terms) != target:
        errors.append("terms do not sum to the target")
    remainder = target
    for m, q in terms:
        # greedy: the largest Bell number not above the remainder (index 1 for value 1)
        if not (m >= 1 and bells[m] <= remainder < bells[m + 1]):
            errors.append(f"bell_{m} is not the largest Bell number below {remainder}")
            break
        if q != remainder // bells[m]:
            errors.append(f"coefficient of bell_{m} is not maximal")
            break
        remainder -= q * bells[m]
    return errors
