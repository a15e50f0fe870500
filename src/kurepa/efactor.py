"""Exact multiples of integer powers of e.

An EScaled value is q * e^s with q an exact rational and s a small integer.
Arithmetic never evaluates e, so nothing here is approximate. The module
also holds the shared rendering for the package's genuinely real-valued
checks (logs of left factorials, occupation numbers): they compute in
decimal with GUARD_DIGITS more digits than format_significant prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context
from fractions import Fraction

from .sequences import bell, complementary_bell

# extra working digits used by every approximate evaluation
GUARD_DIGITS = 10


@dataclass(frozen=True)
class EScaled:
    """q * e^s. The zero value is canonicalized to (0, 0)."""

    coeff: Fraction
    epower: int

    def __post_init__(self) -> None:
        c = self.coeff if isinstance(self.coeff, Fraction) else Fraction(self.coeff)
        object.__setattr__(self, "coeff", c)
        if c == 0:
            object.__setattr__(self, "epower", 0)

    def __add__(self, other: "EScaled") -> "EScaled":
        if not isinstance(other, EScaled):
            return NotImplemented
        # zero is the additive identity regardless of the stored epower
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.epower != other.epower:
            raise ValueError(
                f"cannot add e^{self.epower} and e^{other.epower} terms exactly"
            )
        return EScaled(self.coeff + other.coeff, self.epower)

    def __mul__(self, other: "EScaled | int | Fraction") -> "EScaled":
        if isinstance(other, EScaled):
            return EScaled(self.coeff * other.coeff, self.epower + other.epower)
        if isinstance(other, (int, Fraction)):
            return EScaled(self.coeff * other, self.epower)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "EScaled":
        return EScaled(-self.coeff, self.epower)

    def __str__(self) -> str:
        return f"{self.coeff}*e^{self.epower}"


def dobinski(n: int) -> EScaled:
    """Bell_n * e, the closed form of sum k^n / k!."""
    return EScaled(Fraction(bell(n)), 1)


def inv_dobinski(n: int) -> EScaled:
    """complementary_bell(n) / e, the closed form of sum (-1)^k k^n / k!."""
    return EScaled(Fraction(complementary_bell(n)), -1)


def fermi(n: int) -> EScaled:
    """Bell_n * e^2."""
    return EScaled(Fraction(bell(n)), 2)


def format_significant(value, digits: int) -> str:
    """Render a Decimal, float or int to `digits` significant figures.

    The exact value rounds half away from zero. Decimal exponents inside
    (min(-(digits // 3), -5), digits) print fixed, others as d.ddde+N, and a
    point with no digits after it stays ("120.", "3.e-30"). Zero prints as
    "0." and digits-1 zeros, to keep column widths stable.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if value == 0:
        return "0" if digits == 1 else "0." + "0" * (digits - 1)
    value = Context(prec=digits, rounding=ROUND_HALF_UP).create_decimal(value)
    text, exp = "".join(map(str, value.as_tuple().digits)).ljust(digits, "0"), value.adjusted()
    point, suffix = 1, f"e{exp:+d}"
    if min(-(digits // 3), -5) < exp < digits:
        text, point, suffix = "0" * -exp + text, max(exp, 0) + 1, ""
    return f"{'-' * value.is_signed()}{text[:point]}.{text[point:]}{suffix}"
