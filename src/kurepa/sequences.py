"""Exact integer sequences around the left factorial.

Everything here is exact: plain Python ints (and Decimal integers for the
printed columns below), and each polynomial as the tuple of its integer
coefficients, constant term first.

Each family (n!, the left factorial !n and !n - 1, the alternating sums,
r_n = !(n+1) / 2, the derangements D_n, the Bell and complementary Bell
numbers and the Stirling rows) is defined once, as a scan that carries
only the running values the family reads, whose start value, 1 or
Decimal(1), sets the number type. `FAMILIES` maps a `seq` name to its
family's point read, first index and scan. `column` reads a whole column
of a scan, and `gcdlab`, `decomp` and the polynomials here walk a fresh
one. Every point read but `factorial` (math.factorial) is a `_Memo` of its
row's scan, as is `touchard_poly`, the read of the Stirling rows.

The Bell and complementary Bell numbers are a_n of Aitken's array for
a_(n+1) = sign * sum_k C(n, k) a_k, with sign +1 and -1. The Bell scan
reads the Bell memo of its number type, so `decomp` extends the Decimal
triangle that a `seq bell` column built in the same process. The
verifier's bell_mod builds its own rows mod p.

`seq` prints, in every format, a column of exact `Decimal` integers,
computed under the `EXACT` context (no bound on digits or exponent; any
rounding or invalid operation raises), which `column` enters, so no value
depends on the caller's context. A `Decimal` prints in time linear in its
digit count and an int in quadratic time, and converting a finished int
costs about as much as printing it, so a column is a `Decimal` from its
first step: the factorial family's csv is 5-8x faster at n = 1500 that
way. The `invbell` scan yields ints: its signed triangle adds more slowly
in `Decimal` than its values print as ints, and -1 * 0 is -0 there. Every
point read in `FAMILIES` returns an int; `efactor` declares the e-scaled
Dobinski and Fermi families over the Bell scan.
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


def _factorials(one=1):
    """0!, 1!, 2!, ...: one multiply per step."""
    return accumulate(count(1), mul, initial=one)


def _left_factorials(one=1, start=0):
    """start + !n for n = 0, 1, 2, ...: !n = 0! + ... + (n-1)!, one add per step."""
    return accumulate(_factorials(one), initial=one * start)


def _stirling_step(row: tuple, m: int) -> tuple:
    """Row m of the Stirling triangle from row m - 1: S(m, k) = k * S(m-1, k) + S(m-1, k-1)."""
    return (0, *(k * row[k] + row[k - 1] for k in range(1, m)), 1)


class _Memo:
    """A checked point read of scan(one) that keeps every value it found.

    A read below `first` raises, a read past the last value steps the live
    scan on under EXACT, and any other read indexes the values. A step that
    raises leaves the whole values and a fresh scan past them. The values
    up to n take O(n^2 log n) bits (O(n^3 log n) for the Stirling rows), so
    a memo serves the report (n <= 21), physics ordering (n <= 8), decomp's
    Bell numbers (n <= 1980 below 10^4300) and Bell-scan columns, which hold
    the same values; `log` walks a fresh scan. No read is locked.
    """

    def __init__(self, name: str, first: int, scan, doc: str, one=1) -> None:
        self.__name__, self.first, self.__doc__ = name, first, doc
        self.scan, self.one, self.values, self.rest = scan, one, [], scan(one)

    def __call__(self, n: int):
        if n < self.first:
            raise ValueError(f"{self.__name__} requires n >= {self.first}")
        if n >= len(self.values):
            try:
                # the scan's additions run under the context current here
                with localcontext(EXACT):
                    self.values.extend(islice(self.rest, n + 1 - len(self.values)))
            except BaseException:
                # the step may have ended the scan (a generator) or spent an
                # index (accumulate); the values kept are whole
                self.rest = islice(self.scan(self.one), len(self.values), None)
                raise
        return self.values[n]


def _aitken(row: list, sign: int) -> Iterator:
    """a_0, a_1, ... from Aitken's array for a_(n+1) = sign * sum_k C(n, k) a_k, from
    `row`: row n + 1 is the running sums of row n, started from sign times its
    last entry, and a_n is the first entry of row n (Aitken 1933)."""
    while True:
        yield row[0]
        row = list(accumulate(row, initial=sign * row[-1]))


# the Bell numbers, one memo per number type, each over its own triangle
_BELL_DOC = "Bell number B_n: row n of the Bell triangle starts with it."
_BELLS = {kind: _Memo("bell", 0, lambda one: _aitken([one], 1), _BELL_DOC, kind(1)) for kind in (int, Decimal)}

# seq name -> the family's point read, its first index, and its scan:
# scan(one) yields the values at n = 0, 1, 2, ... without end, exact in
# one's number type (1, or Decimal(1) under EXACT). Values below the first
# index are the scan's own. Each read but factorial's is a memo read,
# named after its public function; bell's is the int Bell memo, which its
# scan reads too. efactor declares the e-scaled families.
Family = namedtuple("Family", "read first scan")


def _row(name: str, first: int, scan, doc: str) -> Family:
    """The row whose read is the memo read `name` of scan, checked against first."""
    return Family(_Memo(name, first, scan, doc), first, scan)


FAMILIES = {
    "factorial": Family(math.factorial, 0, _factorials),
    # the empty sum !0 is rejected, as the sequence is published from !1 = 1
    # and downstream consumers rely on it
    "left_factorial": _row("left_factorial", 1, _left_factorials, "Left factorial !n = 0! + ... + (n-1)!, n >= 1."),
    "alt_left": _row(
        "alt_left_factorial", 0,
        lambda one=1: accumulate(map(mul, _factorials(one), cycle((1, -1))), initial=one - 1),
        "Alternating left factorial: sum of (-1)^m * m! over 0 <= m < n, 0 at n = 0.",
    ),
    # the signs are anchored at the top, so the m = n term is always +n!, and
    # G_n = n! - G_(n-1)
    "guy_alt": _row(
        "guy_alternating", 0,
        lambda one=1: accumulate(islice(_factorials(one), 1, None), lambda g, f: f - g, initial=one - 1),
        "Guy's alternating factorial: sum of (-1)^(n-m) * m! over 1 <= m <= n, 0 at n = 0.",
    ),
    "wagstaff": _row("wagstaff", 1, lambda one=1: _left_factorials(one, -1), "Left factorial less one, !n - 1, n >= 1."),
    "bell": Family(_BELLS[int], 0, lambda one=1: map(_BELLS[type(one)], count())),
    # a_n of the signed Bell triangle, a_(n+1) = -sum_k C(n, k) a_k (Uppuluri
    # and Carpenter), so no Stirling row is built; ints whatever one is: see
    # the module docstring
    "invbell": _row(
        "complementary_bell", 0, lambda one=1: _aitken([1], -1),
        "Complementary Bell number: the alternating Stirling row sum sum_k (-1)^k S(n, k).",
    ),
    "derangement": _row(
        "derangement", 0,
        lambda one=1: accumulate(count(1), lambda d, n: n * d + (-1 if n % 2 else 1), initial=one),
        "Derangement number D_n = n * D_(n-1) + (-1)^n, D_0 = 1.",
    ),
    # exact since !(n+1) = 2 + sum_{2<=k<=n} k! is even; it halves a
    # nonnegative value, so // is the floor, and !1 // 2 = 0 = r_0
    "r": _row(
        "half_left_factorial", 0, lambda one=1: (v // 2 for v in islice(_left_factorials(one), 1, None)),
        "Half left factorial r_n = !(n+1) / 2.",
    ),
}

factorial = FAMILIES["factorial"].read
left_factorial = FAMILIES["left_factorial"].read
alt_left_factorial = FAMILIES["alt_left"].read
guy_alternating = FAMILIES["guy_alt"].read
wagstaff = FAMILIES["wagstaff"].read
bell = FAMILIES["bell"].read
complementary_bell = FAMILIES["invbell"].read
derangement = FAMILIES["derangement"].read
half_left_factorial = FAMILIES["r"].read
# tuples of ints, which no seq column reads; the last is S(n, n) = 1
touchard_poly = _Memo(
    "touchard_poly", 0, lambda one: accumulate(count(1), _stirling_step, initial=(one,)),
    "Touchard polynomial's ascending coefficients, the Stirling numbers S(n, 0), ..., S(n, n).",
)


def fubini_poly(n: int) -> tuple[int, ...]:
    """Ordered-set-partition polynomial: ascending coefficients k! * S(n, k), k = 0..n."""
    if n < 0:
        raise ValueError("fubini_poly requires n >= 0")
    return tuple(map(mul, _factorials(), touchard_poly(n)))


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
    return left_factorial(n + 1) if n else 0


def consecutive_factorial_sum(k: int, n: int) -> int:
    """Sum of n consecutive factorials starting at k!: k! + (k+1)! + ... + (k+n-1)!."""
    if k < 0 or n < 1:
        raise ValueError("consecutive_factorial_sum requires k >= 0 and n >= 1")
    return sum(islice(_factorials(), k, k + n))


def column(scan, lo: int, hi: int, one: int | Decimal = 1) -> list:
    """The values of `scan` at n = lo..hi, in one's number type, computed under EXACT."""
    with localcontext(EXACT):
        return list(islice(scan(one), lo, hi + 1))
