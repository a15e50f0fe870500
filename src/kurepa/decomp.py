"""Decompositions of left-factorial values over Bell-type bases.

A decomposition is a tuple of (index, coefficient) pairs, and a basis is
named by a string. The unsigned (Bell) basis admits a greedy canonical
form, which the `decomp` subcommand prints; it reads the Bell numbers up to
its target through their scan in `sequences.SCANS`, in the target's number
type, int or Decimal, on one code path. Published decompositions over
either basis, signed (complementary Bell) included, are only checked: report
reads them from data/decompositions.txt, re-sums their terms with
basis_coefficient and compares them with their targets.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from itertools import islice, takewhile

from .efactor import GUARD_DIGITS, format_significant
from .sequences import EXACT, SCANS, alt_left_factorial, bell, complementary_bell, left_factorial

# basis name -> the integer coefficient of its element k; the dobinski basis
# is the Bell basis on the e scale, Bell_k e = sum_j j^k/j!
_BASES = {"bell": bell, "dobinski": bell, "invbell": complementary_bell}


def basis_coefficient(basis: str, index: int) -> int:
    """Integer coefficient of basis element `index` (the e power is implied)."""
    try:
        coefficient = _BASES[basis]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}") from None
    return coefficient(index)


def greedy_bell_decomposition(target: int | Decimal) -> tuple[tuple[int, int | Decimal], ...]:
    """Canonical greedy decomposition of a nonnegative integer over Bell numbers.

    Each step takes the largest Bell number not exceeding the remainder with
    the largest possible coefficient. Ties at value 1 resolve to index 1, the
    larger index, which the "largest element" rule gives for free. Each
    remainder is below the Bell number just used, so one pass down the Bell
    numbers Bell_m..Bell_1 up to the target finds every term.

    The target's number type is the Bell scan's: an int target gives int
    coefficients, and a Decimal integer target reads the Decimal Bell memo
    and gives Decimal coefficients, computed under the exact context.
    """
    if target < 0:
        raise ValueError("greedy decomposition requires a nonnegative target")
    terms: list[tuple[int, int | Decimal]] = []
    remainder = target
    # divmod truncates a Decimal toward zero, the floor here: the remainder is never negative
    with localcontext(EXACT):
        bells = list(takewhile(lambda b: b <= target, SCANS[bell](type(target)(1))))
        for m in range(len(bells) - 1, 0, -1):
            if bells[m] <= remainder:
                q, remainder = divmod(remainder, bells[m])
                terms.append((m, q))
    return tuple(terms)


def kurepa_sequence_sum(n: int) -> int:
    """Sum of !i for 1 <= i <= n."""
    if n < 1:
        raise ValueError("kurepa_sequence_sum requires n >= 1")
    return sum(islice(SCANS[left_factorial](), 1, n + 1))


def alt_kurepa_sequence_sum(n: int) -> int:
    """Sum of the alternating variant over 1 <= i <= n."""
    if n < 1:
        raise ValueError("alt_kurepa_sequence_sum requires n >= 1")
    return sum(islice(SCANS[alt_left_factorial](), 1, n + 1))


def log_left_factorial(n: int, base="e", digits: int = 15) -> str:
    """log of !n in the given base ("e", 2 or 10), to `digits` significant figures."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    base = str(base)
    if base not in ("e", "2", "10"):
        raise ValueError("base must be e, 2 or 10")
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS
        ln = Decimal(left_factorial(n)).ln()
        if base != "e":
            ln /= Decimal(int(base)).ln()
        return format_significant(ln, digits)

