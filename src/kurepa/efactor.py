"""Exact multiples of integer powers of e.

An EScaled value is c * e^s with c an exact integer and s a small integer,
as the paper's e * Bell_n, e^2 * Bell_n and complementary_bell(n) / e are.
Nothing evaluates e, so nothing here is approximate. The module also holds
the shared rendering for the package's genuinely real-valued checks (logs
of left factorials, occupation numbers): they compute in decimal with
GUARD_DIGITS more digits than format_significant prints.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal

from .sequences import SCANS, bell, complementary_bell

# extra working digits used by every approximate evaluation
GUARD_DIGITS = 10


class EScaled:
    """c * e^s for an exact integer c: an int, or a Decimal integer in the seq
    columns. The zero value is canonicalized to (0, 0)."""

    __slots__ = ("coeff", "epower")

    def __init__(self, coeff: int | Decimal, epower: int) -> None:
        self.coeff = coeff
        self.epower = epower if coeff else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EScaled):
            return NotImplemented
        return (self.coeff, self.epower) == (other.coeff, other.epower)

    def __str__(self) -> str:
        return f"{self.coeff}*e^{self.epower}"


def dobinski(n: int) -> EScaled:
    """Bell_n * e, the closed form of sum k^n / k!."""
    return EScaled(bell(n), 1)


def inv_dobinski(n: int) -> EScaled:
    """complementary_bell(n) / e, the closed form of sum (-1)^k k^n / k!."""
    return EScaled(complementary_bell(n), -1)


def fermi(n: int) -> EScaled:
    """Bell_n * e^2."""
    return EScaled(bell(n), 2)


# the e-scaled columns wrap the Bell scan, in its number type
SCANS[dobinski] = lambda one=1: (EScaled(b, 1) for b in SCANS[bell](one))
SCANS[fermi] = lambda one=1: (EScaled(b, 2) for b in SCANS[bell](one))


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
