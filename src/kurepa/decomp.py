"""Decompositions of left-factorial values over Bell-type bases.

The unsigned (Bell) basis admits a greedy canonical form, which the
`decomp` subcommand prints. Published decompositions over either basis,
signed (complementary Bell) included, are only checked: report re-sums the
terms of the bundled fixtures and compares them with their targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum

from .efactor import GUARD_DIGITS, format_significant
from .sequences import bell, complementary_bell, factorial_states, left_factorial


class Basis(str, Enum):
    BELL = "bell"
    DOBINSKI = "dobinski"
    INVBELL = "invbell"
    INVDOBINSKI = "invdobinski"


def basis_coefficient(basis: Basis, index: int) -> int:
    """Integer coefficient of basis element `index` (the e power is implied)."""
    if basis in (Basis.BELL, Basis.DOBINSKI):
        return bell(index)
    return complementary_bell(index)


@dataclass(frozen=True)
class Decomposition:
    """A verified sum of basis elements: sum of coeff * basis[index] = target.

    terms are (index, coeff) pairs with strictly decreasing indices and
    coeff >= 1; the identity is checked on construction.
    """

    basis: Basis
    terms: tuple[tuple[int, int], ...]
    target: int

    def __post_init__(self) -> None:
        basis = Basis(self.basis)
        object.__setattr__(self, "basis", basis)
        terms = tuple((int(i), int(c)) for i, c in self.terms)
        object.__setattr__(self, "terms", terms)
        last = None
        for index, coeff in terms:
            if index < 0 or coeff < 1:
                raise ValueError("terms need index >= 0 and coeff >= 1")
            if last is not None and index >= last:
                raise ValueError("term indices must strictly decrease")
            last = index
        total = sum(c * basis_coefficient(basis, i) for i, c in terms)
        if total != self.target:
            raise ValueError(
                f"decomposition does not sum to its target: {total} != {self.target}"
            )


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


@dataclass(frozen=True)
class DecompositionFixture:
    """One published decomposition row: label, target value, basis, raw terms."""

    label: str
    value: int
    basis: Basis
    terms: tuple[tuple[int, int], ...]


def load_fixtures() -> tuple[DecompositionFixture, ...]:
    """Published decomposition rows from the bundled plain-text data file.

    Format: one row per line, `target_label target_value basis idx:coeff ...`;
    blank lines and # comments are skipped.
    """
    from importlib import resources

    text = (
        resources.files("kurepa")
        .joinpath("data/decompositions.txt")
        .read_text(encoding="ascii")
    )
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, value, basis, *raw = line.split()
        terms = tuple(
            (int(i), int(c)) for i, c in (pair.split(":") for pair in raw)
        )
        out.append(
            DecompositionFixture(
                label=label, value=int(value), basis=Basis(basis), terms=terms
            )
        )
    return tuple(out)
