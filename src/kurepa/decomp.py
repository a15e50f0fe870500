"""Decompositions of left-factorial values over Bell-type bases.

The unsigned (Bell) basis admits a greedy canonical form. The signed
(complementary Bell) basis does not: no greedy rule terminates when basis
elements change sign, so witnesses come from a bounded exhaustive search
and "no witness within bounds" is an explicit, reportable outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction

from .efactor import GUARD_DIGITS, EScaled, format_significant
from .sequences import bell, complementary_bell, factorial_states, left_factorial

# bounds for the signed-basis witness search
SIGNED_INDEX_BOUND = 12
SIGNED_COEFF_BOUND = 10**6


class Basis(str, Enum):
    BELL = "bell"
    DOBINSKI = "dobinski"
    INVBELL = "invbell"
    INVDOBINSKI = "invdobinski"


_BASIS_EPOWER = {
    Basis.BELL: 0,
    Basis.DOBINSKI: 1,
    Basis.INVBELL: 0,
    Basis.INVDOBINSKI: -1,
}


def basis_coefficient(basis: Basis, index: int) -> int:
    """Integer coefficient of basis element `index` (the e power is implied)."""
    if basis in (Basis.BELL, Basis.DOBINSKI):
        return bell(index)
    return complementary_bell(index)


def basis_epower(basis: Basis) -> int:
    return _BASIS_EPOWER[Basis(basis)]


class NoWitnessError(ValueError):
    """Raised when the bounded signed-basis search finds no witness."""


@dataclass(frozen=True)
class Decomposition:
    """A verified sum of basis elements: sum of coeff * basis[index] = target.

    terms are (index, coeff) pairs with strictly decreasing indices and
    coeff >= 1; the identity is checked on construction.
    """

    basis: Basis
    terms: tuple[tuple[int, int], ...]
    target: int | EScaled

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
        if total != _target_coefficient(self.target, basis):
            raise ValueError(
                f"decomposition does not sum to its target: {total} != {self.target}"
            )


def _target_coefficient(target: int | EScaled, basis: Basis) -> int | Fraction:
    """Reduce a target to the implied-e-power coefficient scale of `basis`."""
    if isinstance(target, EScaled):
        if target.coeff != 0 and target.epower != basis_epower(basis):
            raise ValueError(
                f"target epower {target.epower} does not match basis {basis.value}"
            )
        return target.coeff
    return target


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


def _signed_witness(target: int) -> tuple[tuple[int, int], ...] | None:
    """First witness of `target` over the signed basis, by bounded DFS.

    Indices run SIGNED_INDEX_BOUND down to 0 (zero-valued elements are
    skipped), coefficients ascend from the smallest feasible value, and
    interval pruning keeps the search exact: if no witness is returned,
    none exists within the bounds.
    """
    entries = [
        (i, complementary_bell(i))
        for i in range(SIGNED_INDEX_BOUND, -1, -1)
        if complementary_bell(i) != 0
    ]
    # suffix attainable ranges: lo[j], hi[j] for entries[j:]
    lo = [0] * (len(entries) + 1)
    hi = [0] * (len(entries) + 1)
    for j in range(len(entries) - 1, -1, -1):
        v = entries[j][1]
        lo[j] = lo[j + 1] + min(0, v * SIGNED_COEFF_BOUND)
        hi[j] = hi[j + 1] + max(0, v * SIGNED_COEFF_BOUND)

    def dfs(j: int, t: int, acc: list[tuple[int, int]]):
        if j == len(entries):
            return list(acc) if t == 0 else None
        index, v = entries[j]
        # feasible coefficient interval against what the suffix can absorb
        if v > 0:
            c_lo = -(-(t - hi[j + 1]) // v)  # ceil
            c_hi = (t - lo[j + 1]) // v
        else:
            c_lo = -(-(t - lo[j + 1]) // v)
            c_hi = (t - hi[j + 1]) // v
        c_lo = max(c_lo, 0)
        c_hi = min(c_hi, SIGNED_COEFF_BOUND)
        for c in range(c_lo, c_hi + 1):
            if c > 0:
                acc.append((index, c))
            found = dfs(j + 1, t - c * v, acc)
            if c > 0:
                acc.pop()
            if found is not None:
                return found
        return None

    found = dfs(0, target, [])
    return tuple(found) if found is not None else None


def decompose_sequence(n: int, basis: Basis) -> Decomposition:
    """Decompose the cumulative sequence sum through n over the given basis."""
    basis = Basis(basis)
    if basis in (Basis.BELL, Basis.DOBINSKI):
        target = kurepa_sequence_sum(n)
        terms = greedy_bell_decomposition(target)
    elif basis in (Basis.INVBELL, Basis.INVDOBINSKI):
        target = alt_kurepa_sequence_sum(n)
        terms = _signed_witness(target)
        if terms is None:
            raise NoWitnessError(
                f"no signed witness for {target} with indices <= {SIGNED_INDEX_BOUND} "
                f"and coefficients <= {SIGNED_COEFF_BOUND}"
            )
    else:  # pragma: no cover
        raise ValueError(f"unknown basis {basis!r}")
    if basis in (Basis.DOBINSKI, Basis.INVDOBINSKI):
        wrapped = EScaled(Fraction(target), basis_epower(basis))
        return Decomposition(basis=basis, terms=terms, target=wrapped)
    return Decomposition(basis=basis, terms=terms, target=target)


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
