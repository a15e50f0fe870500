"""Decompositions of left-factorial values over Bell-type bases.

A decomposition is a tuple of (index, coefficient) pairs, and a basis is
named by a string. The unsigned (Bell) basis admits a greedy canonical
form, which the `decomp` subcommand prints. Published decompositions over
either basis, signed (complementary Bell) included, are only checked: report
re-sums the terms of the bundled fixtures, (label, value, basis, terms)
tuples, and compares them with their targets.
"""

from __future__ import annotations

import os
from decimal import Decimal, localcontext

from .efactor import GUARD_DIGITS, format_significant
from .sequences import bell, complementary_bell, factorial_states, left_factorial

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


def greedy_bell_decomposition(target: int) -> tuple[tuple[int, int], ...]:
    """Canonical greedy decomposition of a nonnegative integer over Bell numbers.

    Each step takes the largest Bell number not exceeding the remainder with
    the largest possible coefficient. Ties at value 1 resolve to index 1, the
    larger index, which the "largest element" rule gives for free. Each
    remainder is below the Bell number just used, so the index only walks down.
    """
    if target < 0:
        raise ValueError("greedy decomposition requires a nonnegative target")
    terms: list[tuple[int, int]] = []
    remainder = target
    m = 1
    while bell(m + 1) <= remainder:
        m += 1
    while remainder > 0:
        while bell(m) > remainder:
            m -= 1
        q, remainder = divmod(remainder, bell(m))
        terms.append((m, q))
    return tuple(terms)


def kurepa_sequence_sum(n: int) -> int:
    """Sum of !i for 1 <= i <= n."""
    if n < 1:
        raise ValueError("kurepa_sequence_sum requires n >= 1")
    return sum(s.left for s in factorial_states(1, n))


def alt_kurepa_sequence_sum(n: int) -> int:
    """Sum of the alternating variant over 1 <= i <= n."""
    if n < 1:
        raise ValueError("alt_kurepa_sequence_sum requires n >= 1")
    return sum(s.alt for s in factorial_states(1, n))


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


def load_fixtures() -> tuple[tuple[str, int, str, tuple[tuple[int, int], ...]], ...]:
    """Published decomposition rows from the bundled plain-text data file.

    Format: one row per line, `target_label target_value basis idx:coeff ...`;
    blank lines and # comments are skipped. Each row comes back as
    (label, value, basis, terms), terms being the printed (index, coeff) pairs.
    """
    # a plain open, since importlib.resources loads pathlib, tempfile and zipfile
    path = os.path.join(os.path.dirname(__file__), "data", "decompositions.txt")
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, value, basis, *raw = line.split()
        terms = tuple(
            (int(i), int(c)) for i, c in (pair.split(":") for pair in raw)
        )
        out.append((label, int(value), basis, terms))
    return tuple(out)
