"""Exact integer sequences around the left factorial.

Everything here is exact: plain Python ints (and Decimal integers for the
printed columns below), and each polynomial as the tuple of its integer
coefficients, constant term first.

Each factorial family (n!, the left factorial !n and !n - 1, the
alternating sums, r_n = !(n+1) / 2 and the derangements D_n), the
complementary Bell numbers and the Stirling rows are each defined once, as
a scan that carries only the running values the family reads, whose start
value, 1 or Decimal(1), sets the number type. `FAMILIES` maps a `seq` name
to its family's point function, first index and scan; the Stirling rows,
which no `seq` column prints, have only a rolling read. A scan is read
three ways: `column` takes a whole column n = lo..hi; each point function
reads one rolling copy of its family's scan, so reads in increasing n cost
one step each and a lower n starts the scan again; and `gcdlab`, `decomp`
and the polynomials here walk a fresh scan. `factorial` itself is
math.factorial.

The Bell and complementary Bell numbers are read from Aitken's array for
a_(n+1) = sign * sum_k C(n, k) a_k, with sign +1 and -1. The Bell numbers
are read by number type through their scan, like every other family, but
the scan and `bell(n)` read a memo, one per number type, holding O(n^2)
bits and one row. It stays for two reasons: `decomp` reads Bell numbers
twice, in its greedy and then for its value column; and in one process
`decomp` extends the Decimal triangle that a `seq bell` column built (a
3000-digit target needs them to about index 1580). The verifier's
bell_mod builds its own rows mod p and shares no code with them. No read
is locked: nothing reads them concurrently.

Every point function in `FAMILIES` returns an int; `efactor` declares the
Dobinski and Fermi families in a table of its own, whose scans wrap the
Bell scan in e^s. `seq` prints, in every format, a column of exact
`Decimal` integers, computed under the `EXACT` context (no bound on digits
or exponent; any rounding or invalid operation raises). `column` enters
that context, so no value depends on the caller's. A `Decimal` prints in
time linear in its digit count and an int in quadratic time, and
converting a finished int to `Decimal` costs about as much as printing
it, so a column is a `Decimal` from its first step. That makes the factorial family's csv 5-8x faster at n = 1500, and
`bell`'s a little faster, as its triangle adds about as fast in `Decimal`.
The `invbell` scan yields ints in every format: its signed triangle adds
more slowly in `Decimal` than its values print as ints, and -1 * 0 is -0
there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from itertools import accumulate, count, cycle, islice
from operator import mul

# Integer arithmetic on Decimal with no bound on digits or exponent. Every
# field is set, since Context() copies unset ones from DefaultContext, which
# a caller may change; under ROUND_HALF_EVEN an exact zero sum is +0, and a
# result that would be rounded raises.
EXACT = Context(
    prec=MAX_PREC,
    rounding=ROUND_HALF_EVEN,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial is undefined for negative n")
    return math.factorial(n)


def _factorials(one=1):
    """0!, 1!, 2!, ...: one multiply per step."""
    return accumulate(count(1), mul, initial=one)


def _left_factorials(one=1, start=0):
    """start + !n for n = 0, 1, 2, ...: !n = 0! + ... + (n-1)!, one add per step."""
    return accumulate(_factorials(one), initial=one * start)


def _guy_step(g, f):
    """G_n = n! - G_(n-1), from the terms of guy_alternating's sum."""
    return f - g


def _derangement_step(d, n: int):
    """D_n = n * D_(n-1) + (-1)^n."""
    return n * d + (-1 if n % 2 else 1)


def _stirling_step(row: tuple, m: int) -> tuple:
    """Row m of the Stirling triangle from row m - 1: S(m, k) = k * S(m-1, k) + S(m-1, k-1)."""
    return (0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1)


class _Rolling:
    """Point reads of one scan: a read at or above the last steps the live
    scan on, one step per index, and a read below it starts the scan again."""

    __slots__ = ("scan", "n", "value", "rest")

    def __init__(self, scan) -> None:
        self.scan, self.n, self.rest = scan, -1, scan()

    def __call__(self, n: int):
        if n < self.n:
            self.n, self.rest = -1, self.scan()
        if n > self.n:
            self.value = next(islice(self.rest, n - self.n - 1, None))
            self.n = n
        return self.value


def left_factorial(n: int) -> int:
    """!n = 0! + 1! + ... + (n-1)! for n >= 1.

    The value at n = 0 (the empty sum) is deliberately rejected: the
    sequence is published starting at !1 = 1 and downstream consumers
    rely on that convention.
    """
    if n < 1:
        raise ValueError("left_factorial requires n >= 1")
    return _READS["left_factorial"](n)


def alt_left_factorial(n: int) -> int:
    """Alternating variant: sum of (-1)^m * m! over 0 <= m < n, with value 0 at n = 0."""
    if n < 0:
        raise ValueError("alt_left_factorial requires n >= 0")
    return _READS["alt_left"](n)


def guy_alternating(n: int) -> int:
    """Sum of (-1)^(n-m) * m! over 1 <= m <= n; empty sum is 0.

    Signs are anchored at the top so the m = n term is always +n!, and
    G_n = n! - G_(n-1).
    """
    if n < 0:
        raise ValueError("guy_alternating requires n >= 0")
    return _READS["guy_alt"](n)


def wagstaff(n: int) -> int:
    """!n - 1 for n >= 1."""
    return left_factorial(n) - 1


def _aitken(row: list, sign: int) -> Iterator[list]:
    """Rows of Aitken's array for a_(n+1) = sign * sum_k C(n, k) a_k, from `row`.

    Row n + 1 is the running sums of row n, started from sign times its last
    entry, and a_n is the first entry of row n (Aitken 1933).
    """
    while True:
        yield row
        row = list(accumulate(row, initial=sign * row[-1]))


# Per number type: the Bell numbers B_0, B_1, ... found so far and the live
# generator of rows (see the module docstring for why they are kept)
_bell_memo = {kind: ([], _aitken([kind(1)], 1)) for kind in (int, Decimal)}


def _bell(n: int, one: int | Decimal = 1) -> int | Decimal:
    values, rows = _bell_memo[type(one)]
    if len(values) <= n:
        # next(rows) runs the row's additions under the context current here
        with localcontext(EXACT):
            while len(values) <= n:
                values.append(next(rows)[0])
    return values[n]


def bell(n: int) -> int:
    """Bell number Bell_n: row n of the Bell triangle starts with it."""
    if n < 0:
        raise ValueError("bell requires n >= 0")
    return _bell(n)


def complementary_bell(n: int) -> int:
    """Complementary Bell number, the alternating Stirling row sum: sum of (-1)^k S(n, k).

    It is a_n of the signed Bell triangle, a_(n+1) = -sum_k C(n, k) a_k
    (Uppuluri and Carpenter), so no Stirling row is built.
    """
    if n < 0:
        raise ValueError("complementary_bell requires n >= 0")
    return _READS["invbell"](n)


def derangement(n: int) -> int:
    """Derangement count via D_n = n * D_{n-1} + (-1)^n, D_0 = 1."""
    if n < 0:
        raise ValueError("derangement requires n >= 0")
    return _READS["derangement"](n)


def touchard_poly(n: int) -> tuple[int, ...]:
    """Ascending coefficients S(n, 0), ..., S(n, n); the last is S(n, n) = 1."""
    if n < 0:
        raise ValueError("touchard_poly requires n >= 0")
    return _READS["stirling"](n)


def fubini_poly(n: int) -> tuple[int, ...]:
    """Ordered-set-partition polynomial: ascending coefficients k! * S(n, k), k = 0..n."""
    if n < 0:
        raise ValueError("fubini_poly requires n >= 0")
    return tuple(map(mul, _factorials(), _READS["stirling"](n)))


def kurepa_poly(n: int) -> tuple[int, ...]:
    """Ascending coefficients 0!, 1!, ..., n!; at x = 1 the polynomial sums to !(n+1)."""
    if n < 0:
        raise ValueError("kurepa_poly requires n >= 0")
    return tuple(islice(_factorials(), n + 1))


def factorial_sum(n: int) -> int:
    """Sum of k! over 0 <= k <= n for n >= 1, with the published 0 at n = 0.

    This is the shifted left factorial !(n+1) away from the origin; the
    n = 0 value follows the table convention used by the gcd scans.
    """
    if n < 0:
        raise ValueError("factorial_sum requires n >= 0")
    return _READS["left_factorial"](n + 1) if n else 0


def half_left_factorial(n: int) -> int:
    """r_n = factorial_sum(n) / 2, exact since !(n+1) = 2 + sum_{2<=k<=n} k! is even; r_0 = 0."""
    if n < 0:
        raise ValueError("half_left_factorial requires n >= 0")
    return factorial_sum(n) // 2


def consecutive_factorial_sum(k: int, n: int) -> int:
    """Sum of n consecutive factorials starting at k!: k! + (k+1)! + ... + (k+n-1)!."""
    if k < 0 or n < 1:
        raise ValueError("consecutive_factorial_sum requires k >= 0 and n >= 1")
    return sum(islice(_factorials(), k, k + n))


# seq name -> the family's point function, its first index, and its scan:
# scan(one) yields the values at n = 0, 1, 2, ... without end, exact in
# one's number type (1, or Decimal(1) under EXACT). Values below the first
# index are the scan's own. efactor declares the e-scaled families.
Family = namedtuple("Family", "read first scan")

FAMILIES = {
    "factorial": Family(factorial, 0, _factorials),
    "left_factorial": Family(left_factorial, 1, _left_factorials),
    "alt_left": Family(
        alt_left_factorial, 0, lambda one=1: accumulate(map(mul, _factorials(one), cycle((1, -1))), initial=one - 1)
    ),
    "guy_alt": Family(
        guy_alternating, 0, lambda one=1: accumulate(islice(_factorials(one), 1, None), _guy_step, initial=one - 1)
    ),
    "wagstaff": Family(wagstaff, 1, lambda one=1: _left_factorials(one, -1)),
    "bell": Family(bell, 0, lambda one=1: (_bell(n, one) for n in count())),
    # ints whatever one is: see the module docstring
    "invbell": Family(complementary_bell, 0, lambda one=1: (row[0] for row in _aitken([1], -1))),
    "derangement": Family(derangement, 0, lambda one=1: accumulate(count(1), _derangement_step, initial=one)),
    # r_n = !(n+1) / 2, halving a nonnegative value, so // is the floor; !1 // 2 = 0 = r_0
    "r": Family(half_left_factorial, 0, lambda one=1: (v // 2 for v in islice(_left_factorials(one), 1, None))),
}

# the point functions' rolling reads, by family; wagstaff, factorial_sum and
# r read the left factorials', touchard_poly and fubini_poly the Stirling
# rows S(n, 0..n), tuples of ints that no seq column reads
_READS = {
    name: _Rolling(FAMILIES[name].scan) for name in ("left_factorial", "alt_left", "guy_alt", "derangement", "invbell")
}
_READS["stirling"] = _Rolling(lambda: accumulate(count(1), _stirling_step, initial=(1,)))


def column(scan, lo: int, hi: int, one: int | Decimal = 1) -> list:
    """The values of `scan` at n = lo..hi, in one's number type, computed under EXACT."""
    with localcontext(EXACT):
        return list(islice(scan(one), lo, hi + 1))
