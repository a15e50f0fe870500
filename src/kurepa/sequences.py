"""Exact integer sequences around the left factorial.

Everything here is exact: plain Python ints, and each polynomial as the
tuple of its integer coefficients, constant term first. Two streams carry
the running state. `factorial_states` steps n! together
with !n, the alternating sum and D_n, so a table of any of them costs one
big-integer step per row; the point functions roll one cached state forward
with the same step. `bell_rows` builds Aitken's array for
a_(n+1) = sign * sum_k C(n, k) a_k: sign +1 gives the Bell numbers, -1 the
complementary Bell numbers, and with a modulus the same rows reduced mod m.
Both exact families are memoized, so their tables hold O(n^2) bits and one
row. Stirling numbers come from one rolling row. A request below the cached
state or row restarts from 0. No cache is locked: nothing reads them
concurrently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial is undefined for negative n")
    return math.factorial(n)


FactorialState = namedtuple("FactorialState", "n factorial left alt derangement")
FactorialState.__doc__ = """The running factorial family at one index n.

factorial is n!, left is !n = 0! + 1! + ... + (n-1)!, alt is the sum of
(-1)^m * m! over 0 <= m < n, and derangement is D_n.
"""


_ORIGIN = FactorialState(0, 1, 0, 0, 1)


def _advance(s: FactorialState) -> FactorialState:
    """The state at s.n + 1: one step of every running sum."""
    n = s.n + 1
    f = s.factorial * n
    alt = s.alt - s.factorial if s.n % 2 else s.alt + s.factorial
    der = n * s.derangement + (-1 if n % 2 else 1)
    return FactorialState(n, f, s.left + s.factorial, alt, der)


def factorial_states(lo: int = 0, hi: int | None = None) -> Iterator[FactorialState]:
    """The states for n = lo, lo + 1, ..., hi (without end when hi is None)."""
    s = _ORIGIN
    while hi is None or s.n <= hi:
        if s.n >= lo:
            yield s
        s = _advance(s)


# The last state a point function read; reads in increasing n cost one step each.
_factorial_state = _ORIGIN


def _state(n: int) -> FactorialState:
    global _factorial_state
    s = _factorial_state if _factorial_state.n <= n else _ORIGIN
    while s.n < n:
        s = _advance(s)
    _factorial_state = s
    return s


def left_factorial(n: int) -> int:
    """!n = 0! + 1! + ... + (n-1)! for n >= 1.

    The value at n = 0 (the empty sum) is deliberately rejected: the
    sequence is published starting at !1 = 1 and downstream consumers
    rely on that convention.
    """
    if n < 1:
        raise ValueError("left_factorial requires n >= 1")
    return _state(n).left


def alt_left_factorial(n: int) -> int:
    """Alternating variant: sum of (-1)^m * m! over 0 <= m < n, with value 0 at n = 0."""
    if n < 0:
        raise ValueError("alt_left_factorial requires n >= 0")
    return _state(n).alt


def guy_alternating(n: int) -> int:
    """Sum of (-1)^(n-m) * m! over 1 <= m <= n; empty sum is 0.

    Signs are anchored at the top so the m = n term is always +n!. The terms
    below it are (-1)^n times those of the alternating left factorial
    without its m = 0 term, so G_n = (-1)^n * (alt(n) - 1) + n!.
    """
    if n < 0:
        raise ValueError("guy_alternating requires n >= 0")
    s = _state(n)
    return (-1) ** n * (s.alt - 1) + s.factorial


def wagstaff(n: int) -> int:
    """!n - 1 for n >= 1."""
    return left_factorial(n) - 1


# The last Stirling row built: _stirling_row[k] = S(n, k) for 0 <= k <= n,
# where n = len(_stirling_row) - 1.
_stirling_row: list[int] = [1]


def _stirling(n: int) -> list[int]:
    """Row n of the Stirling triangle, rolled forward from the last row built."""
    global _stirling_row
    row = _stirling_row if len(_stirling_row) <= n + 1 else [1]
    for m in range(len(row), n + 1):  # building row m from row m-1
        row = [0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1]
    _stirling_row = row
    return row


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise ValueError("stirling2 requires 0 <= k <= n")
    return _stirling(n)[k]


def bell_rows(sign: int, modulus: int | None = None) -> Iterator[list[int]]:
    """Rows 0, 1, 2, ... of Aitken's array for a_(n+1) = sign * sum_k C(n, k) a_k, a_0 = 1.

    Row n + 1 is the running sums of row n, started from sign times its last
    entry, and a_n is the first entry of row n (Aitken 1933). With a modulus
    every entry is reduced mod it, so the rows give a_n mod m.
    """
    row = [1 if modulus is None else 1 % modulus]
    while True:
        yield row
        sums = accumulate(row, initial=sign * row[-1])
        row = list(sums) if modulus is None else [v % modulus for v in sums]


# Per sign: the values a_0, a_1, ... found so far and the live generator of rows.
_bell_memo = {sign: ([], bell_rows(sign)) for sign in (1, -1)}


def _bell_family(sign: int, n: int) -> int:
    values, rows = _bell_memo[sign]
    while len(values) <= n:
        values.append(next(rows)[0])
    return values[n]


def bell(n: int) -> int:
    """Bell number Bell_n: row n of the Bell triangle starts with it."""
    if n < 0:
        raise ValueError("bell requires n >= 0")
    return _bell_family(1, n)


def complementary_bell(n: int) -> int:
    """Complementary Bell number, the alternating Stirling row sum: sum of (-1)^k S(n, k).

    It is a_n of the signed Bell triangle, a_(n+1) = -sum_k C(n, k) a_k
    (Uppuluri and Carpenter), so no Stirling row is built.
    """
    if n < 0:
        raise ValueError("complementary_bell requires n >= 0")
    return _bell_family(-1, n)


def derangement(n: int) -> int:
    """Derangement count via D_n = n * D_{n-1} + (-1)^n, D_0 = 1."""
    if n < 0:
        raise ValueError("derangement requires n >= 0")
    return _state(n).derangement


def touchard_poly(n: int) -> tuple[int, ...]:
    """Ascending coefficients S(n, 0), ..., S(n, n); the last is S(n, n) = 1."""
    if n < 0:
        raise ValueError("touchard_poly requires n >= 0")
    # a copy: the cached row is the state the next _stirling call rolls on
    return tuple(_stirling(n))


def fubini_poly(n: int) -> tuple[int, ...]:
    """Ordered-set-partition polynomial: ascending coefficients k! * S(n, k), k = 0..n."""
    if n < 0:
        raise ValueError("fubini_poly requires n >= 0")
    return tuple(s.factorial * v for s, v in zip(factorial_states(), _stirling(n)))


def kurepa_poly(n: int) -> tuple[int, ...]:
    """Ascending coefficients 0!, 1!, ..., n!; at x = 1 the polynomial sums to !(n+1)."""
    if n < 0:
        raise ValueError("kurepa_poly requires n >= 0")
    return tuple(s.factorial for s in factorial_states(0, n))


def factorial_sum(n: int) -> int:
    """Sum of k! over 0 <= k <= n for n >= 1, with the published 0 at n = 0.

    This is the shifted left factorial !(n+1) away from the origin; the
    n = 0 value follows the table convention used by the gcd scans.
    """
    if n < 0:
        raise ValueError("factorial_sum requires n >= 0")
    return _state(n + 1).left if n else 0


def half_left_factorial(n: int) -> int:
    """r_n = factorial_sum(n) / 2, exact (the sum is even for n >= 1); r_0 = 0."""
    if n < 0:
        raise ValueError("half_left_factorial requires n >= 0")
    s = factorial_sum(n)
    if s % 2:
        raise ArithmeticError("factorial sum is odd, cannot halve exactly")
    return s // 2


def consecutive_factorial_sum(k: int, n: int) -> int:
    """Sum of n consecutive factorials starting at k!: k! + (k+1)! + ... + (k+n-1)!."""
    if k < 0 or n < 1:
        raise ValueError("consecutive_factorial_sum requires k >= 0 and n >= 1")
    return sum(s.factorial for s in factorial_states(k, k + n - 1))
