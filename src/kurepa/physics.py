"""Occupation numbers and ordering identities on the Fock diagonal.

(a+)^k a^k is diagonal in the number basis with eigenvalue m(m-1)...(m-k+1),
so every ordering identity reduces to an integer falling factorial identity,
which the expansions here evaluate exactly. The occupation curve side
(Planck distribution, Bell EGF round trip, de Bruijn growth envelope) runs
at 30 significant digits through mpmath. The module computes; report
compares the published claims against it. The one exception is
debruijn_bound_check, which judges its own row because the `physics
debruijn` table prints that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discrepancy import MATCH, MISMATCH, DiscrepancyReport
from .efactor import GUARD_DIGITS, format_significant
from .sequences import bell, stirling2

NORMAL = "normal"
ANTINORMAL = "antinormal"

PLANCK_DIGITS = 30
DEBRUIJN_ENVELOPE = 5
ASYMPTOTIC_MIN_N = 30
_SMALL_X = 1e-3

# sample points of the `physics occupation` and `physics debruijn` tables,
# also checked as report rows
PLANCK_SAMPLE_X = (0.01, math.log(2.0), 1.0, 5.0)
DEBRUIJN_SAMPLE_N = (10, 100, 300, 1000)


def falling(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1) for m, k >= 0; zero once k exceeds m."""
    if m < 0 or k < 0:
        raise ValueError("falling requires m >= 0 and k >= 0")
    return math.perm(m, k)


@dataclass(frozen=True)
class OrderingExpansion:
    """Coefficients of (a+)^k a^k, k = 1..n, for one ordering of (a+ a)^n."""

    n: int
    coeffs: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("OrderingExpansion requires n >= 1")
        if self.kind not in (NORMAL, ANTINORMAL):
            raise ValueError(f"unknown ordering kind {self.kind!r}")
        if len(self.coeffs) != self.n:
            raise ValueError("need one coefficient per k = 1..n")

    def coefficient(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in 1..{self.n}")
        return self.coeffs[k - 1]

    def eval_at(self, m: int) -> int:
        """Diagonal eigenvalue at Fock state m: sum of coeff_k * falling(m, k)."""
        return sum(c * falling(m, k) for k, c in enumerate(self.coeffs, start=1))


def normal_ordering(n: int) -> OrderingExpansion:
    """(a+ a)^n = sum_k S(n,k) (a+)^k a^k; coefficients are Stirling numbers."""
    if n < 1:
        raise ValueError("normal_ordering requires n >= 1")
    return OrderingExpansion(n=n, coeffs=tuple(stirling2(n, k) for k in range(1, n + 1)), kind=NORMAL)


def antinormal_ordering(n: int) -> OrderingExpansion:
    """Alternating-sign companion with a positive leading (k = n) term."""
    if n < 1:
        raise ValueError("antinormal_ordering requires n >= 1")
    coeffs = tuple((-1) ** (n - k) * stirling2(n, k) for k in range(1, n + 1))
    return OrderingExpansion(n=n, coeffs=coeffs, kind=ANTINORMAL)


def occupation(x: float, sigma: int) -> float:
    """Mean occupation 1/(e^x - sigma); sigma is +1 (Bose) or -1 (Fermi)."""
    if x <= 0:
        raise ValueError("occupation requires x > 0")
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    return 1.0 / (math.exp(x) - sigma)


def planck_routes(x):
    """Direct occupation, its Bell-EGF reading and their relative gap, at the caller's precision.

    x must be positive. The direct route is 1/(e^x - 1); the EGF route is 1/ln(e^(e^x - 1)).
    """
    from mpmath import mp

    x = mp.mpf(x)
    # series-safe e^x - 1: mpmath's expm1 below the cancellation threshold
    growth = mp.expm1(x) if x < _SMALL_X else mp.e**x - 1
    direct = 1 / growth
    through_egf = 1 / mp.log(mp.exp(growth))
    return direct, through_egf, abs(through_egf - direct) / direct


def planck_identity_gap(x) -> float:
    """Relative gap between the direct Bose occupation and its EGF reading."""
    if x <= 0:
        raise ValueError("planck_identity_gap requires x > 0")
    from mpmath import mp

    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        return float(planck_routes(x)[2])


def debruijn_bound_check(n: int) -> DiscrepancyReport:
    """Growth envelope for ln Bell_n / n against the five-term expansion.

    The difference from ln n - ln ln n - 1 + ln ln n/ln n + 1/ln n
    + (ln ln n/ln n)^2/2 must stay within 5 ln ln n/(ln n)^2. Below n = 30
    the check still runs but is flagged as outside the asymptotic regime.
    """
    if n < 10:
        raise ValueError("debruijn_bound_check requires n >= 10")
    from mpmath import mp

    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        lhs = mp.log(mp.mpf(bell(n))) / n
        log_n = mp.log(n)
        loglog_n = mp.log(log_n)
        ratio = loglog_n / log_n
        expansion = log_n - loglog_n - 1 + ratio + 1 / log_n + ratio**2 / 2
        diff = abs(lhs - expansion)
        bound = DEBRUIJN_ENVELOPE * loglog_n / log_n**2
        return DiscrepancyReport(
            claim_id=f"growth.debruijn.n{n}",
            location="sec6.theorem6.14",
            claimed=format_significant(bound, 12),
            computed=format_significant(diff, 12),
            status=MATCH if diff <= bound else MISMATCH,
            note="" if n >= ASYMPTOTIC_MIN_N else "below the asymptotic regime; informational",
        )
