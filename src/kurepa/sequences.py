"""Exact integer sequences around the left factorial.

Everything here is exact: plain Python ints (and Decimal integers for the
printed columns below), and each polynomial as the tuple of its integer
coefficients, constant term first.

Each factorial family (n!, the left factorial !n and !n - 1, the
alternating sums, r_n = !(n+1) / 2 and the derangements D_n) is defined
once, as an `itertools.accumulate` scan that carries only the running
values the family reads: one or two big operations per row. `SCANS` maps
a family's point function to its scan, whose start value, 1 or
Decimal(1), sets the number type. A scan is read three ways: `column`
takes a whole column n = lo..hi; each point function reads one rolling
copy of its family's scan, so reads in increasing n cost one step each
and a lower n starts the scan again; and `gcdlab`, `decomp` and the
polynomials here walk a fresh scan. `factorial` itself is math.factorial.

The Bell and complementary Bell numbers are read from Aitken's array for
a_(n+1) = sign * sum_k C(n, k) a_k, with sign +1 and -1. Both families are
memoized, so their tables hold O(n^2) bits and one row. The verifier's
bell_mod builds its own rows mod p and shares no code with them. Stirling
numbers come from one rolling row, and a request below it restarts from
row 0. No cache is locked: nothing reads them concurrently.

Every point function returns an int, and every `seq` family has a scan in
`SCANS`, which `seq` reads in every format; `efactor` adds the Dobinski
and Fermi scans, which wrap the Bell scan in e^s. The JSON `seq` format
prints a column of ints; csv and plain print a column of exact `Decimal`
integers, computed under the `EXACT` context (no bound on digits or
exponent; any rounding or invalid operation raises). `column` enters that
context, so no value depends on the caller's. csv and plain print with
`str()`, which is linear in the digit count for a `Decimal` and quadratic
for an int, and converting a finished int to `Decimal` costs about as much
as printing it, so a column is a `Decimal` from its first step. That makes
the factorial family's csv 5-8x faster at n = 1500, and `bell`'s a little
faster, as its triangle adds about as fast in `Decimal`; the Bell triangle
keeps one memo per number type, its scan reads them, and `decomp` reads
the `Decimal` one. The `invbell` scan yields ints in every format: its
signed triangle adds more slowly in `Decimal` than its values print as
ints, and -1 * 0 is -0 there.
"""

from __future__ import annotations

import math
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


class _Rolling:
    """Point reads of one int scan: a read at or above the last steps the live
    scan on, one step per index, and a read below it starts the scan again."""

    __slots__ = ("scan", "n", "value", "rest")

    def __init__(self, scan) -> None:
        self.scan, self.n, self.rest = scan, -1, scan()

    def __call__(self, n: int) -> int:
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
    return _READS[left_factorial](n)


def alt_left_factorial(n: int) -> int:
    """Alternating variant: sum of (-1)^m * m! over 0 <= m < n, with value 0 at n = 0."""
    if n < 0:
        raise ValueError("alt_left_factorial requires n >= 0")
    return _READS[alt_left_factorial](n)


def guy_alternating(n: int) -> int:
    """Sum of (-1)^(n-m) * m! over 1 <= m <= n; empty sum is 0.

    Signs are anchored at the top so the m = n term is always +n!, and
    G_n = n! - G_(n-1).
    """
    if n < 0:
        raise ValueError("guy_alternating requires n >= 0")
    return _READS[guy_alternating](n)


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


def _aitken(row: list, sign: int) -> Iterator[list]:
    """Rows of Aitken's array for a_(n+1) = sign * sum_k C(n, k) a_k, from `row`.

    Row n + 1 is the running sums of row n, started from sign times its last
    entry, and a_n is the first entry of row n (Aitken 1933).
    """
    while True:
        yield row
        row = list(accumulate(row, initial=sign * row[-1]))


# Per (number type, sign): the values a_0, a_1, ... found so far and the live
# generator of rows. Only bell has a Decimal column (see the module docstring).
_bell_memo = {
    (kind, sign): ([], _aitken([kind(1)], sign)) for kind, sign in ((int, 1), (int, -1), (Decimal, 1))
}


def _bell_family(sign: int, n: int, kind: type = int) -> int | Decimal:
    values, rows = _bell_memo[kind, sign]
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
    return _bell_family(1, n)


def decimal_bell(n: int) -> Decimal:
    """Bell_n as an exact Decimal integer, from the Decimal memo."""
    if n < 0:
        raise ValueError("bell requires n >= 0")
    return _bell_family(1, n, Decimal)


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
    return _READS[derangement](n)


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
    return tuple(map(mul, _factorials(), _stirling(n)))


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
    return _READS[left_factorial](n + 1) if n else 0


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


# point function -> the scan of its family: scan(one) yields the values at
# n = 0, 1, 2, ... without end, exact in one's number type (1, or Decimal(1)
# under EXACT). Values below the family's first index are the scan's own.
# efactor adds the e-scaled families, which wrap the Bell scan.
SCANS = {
    factorial: _factorials,
    left_factorial: _left_factorials,
    wagstaff: lambda one=1: _left_factorials(one, -1),
    alt_left_factorial: lambda one=1: accumulate(map(mul, _factorials(one), cycle((1, -1))), initial=one - 1),
    guy_alternating: lambda one=1: accumulate(islice(_factorials(one), 1, None), _guy_step, initial=one - 1),
    # r_n = !(n+1) / 2, halving a nonnegative value, so // is the floor; !1 // 2 = 0 = r_0
    half_left_factorial: lambda one=1: (v // 2 for v in islice(_left_factorials(one), 1, None)),
    derangement: lambda one=1: accumulate(count(1), _derangement_step, initial=one),
    bell: lambda one=1: (_bell_family(1, n, type(one)) for n in count()),
    # ints whatever one is: see the module docstring
    complementary_bell: lambda one=1: (_bell_family(-1, n) for n in count()),
}

# the point functions' rolling reads; wagstaff, factorial_sum and r read the left factorials'
_READS = {func: _Rolling(SCANS[func]) for func in (left_factorial, alt_left_factorial, guy_alternating, derangement)}


def column(func, lo: int, hi: int, one: int | Decimal = 1) -> list:
    """func(n) for n = lo..hi from its family's scan, in one's number type, computed under EXACT."""
    with localcontext(EXACT):
        return list(islice(SCANS[func](one), lo, hi + 1))
