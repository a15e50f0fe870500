"""Occupation numbers and ordering identities on the Fock diagonal.

Operator claims are checked where they are exact: (a+)^k a^k is diagonal in
the number basis with eigenvalue m(m-1)...(m-k+1), so every ordering identity
reduces to an integer falling factorial identity. The occupation curve side
(Planck distribution, Bell EGF round trip, de Bruijn growth envelope) runs
at 30 significant digits through mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomp import greedy_bell_decomposition, kurepa_sequence_sum
from .discrepancy import MATCH, MISMATCH, DiscrepancyReport, compare
from .efactor import GUARD_DIGITS, format_significant
from .sequences import bell, stirling2

NORMAL = "normal"
ANTINORMAL = "antinormal"

PLANCK_DIGITS = 30
PLANCK_AGREE_DIGITS = 28
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


def falling_factorial_check(n: int, m_max: int) -> DiscrepancyReport:
    """m^n = sum_k S(n,k) falling(m,k), exactly, for every 0 <= m <= m_max."""
    if n < 1 or m_max < 1:
        raise ValueError("falling_factorial_check requires n >= 1 and m_max >= 1")
    expansion = normal_ordering(n)
    computed = "exact"
    for m in range(m_max + 1):
        lhs = m**n
        rhs = expansion.eval_at(m)
        if lhs != rhs:
            computed = f"m={m}: {lhs} != {rhs}"
            break
    return compare(
        f"ordering.diagonal.n{n}", "sec6.1", "exact", computed, f"checked m = 0..{m_max}"
    )


def kurepa_normal_ordering(n: int) -> list[tuple[int, int, OrderingExpansion]]:
    """Greedy Bell split of the summed left factorials, one expansion per term."""
    if n < 1:
        raise ValueError("kurepa_normal_ordering requires n >= 1")
    target = kurepa_sequence_sum(n)
    terms = greedy_bell_decomposition(target)
    return [(index, coeff, normal_ordering(index)) for index, coeff in terms]


def kurepa_diagonal_check(n: int, m: int) -> DiscrepancyReport:
    """Diagonal consequence of the summed-left-factorial ordering at Fock state m.

    Each expansion evaluated at m collapses to m^index, so the weighted sum
    of expansions must equal the weighted sum of plain powers, exactly.
    """
    if m < 0:
        raise ValueError("kurepa_diagonal_check requires m >= 0")
    terms = kurepa_normal_ordering(n)
    lhs = sum(coeff * expansion.eval_at(m) for _, coeff, expansion in terms)
    rhs = sum(coeff * m**index for index, coeff, _ in terms)
    return compare(f"ordering.kurepa.n{n}.m{m}", "sec6.theorem6.7", rhs, lhs)


PHOTON = "photon"


def occupation(x: float, sigma) -> float:
    """Mean occupation 1/(e^x - sigma); sigma is +1 (Bose), -1 (Fermi), or "photon"."""
    if x <= 0:
        raise ValueError("occupation requires x > 0")
    if sigma == PHOTON:
        sigma = 1
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1, -1, or 'photon'")
    return 1.0 / (math.exp(x) - sigma)


def _planck_routes(x):
    """Direct occupation, its Bell-EGF reading and their relative gap, at the caller's precision.

    The direct route is 1/(e^x - 1); the EGF route is 1/ln(e^(e^x - 1)).
    """
    from mpmath import mp

    x = mp.mpf(x)
    # series-safe e^x - 1: mpmath's expm1 below the cancellation threshold
    growth = mp.expm1(x) if x < _SMALL_X else mp.e**x - 1
    direct = 1 / growth
    through_egf = 1 / mp.log(mp.exp(growth))
    return direct, through_egf, abs(through_egf - direct) / direct


def planck_bell_identity(x) -> DiscrepancyReport:
    """n(x) = 1/(e^x - 1) against 1/ln(B(x)) with B the Bell EGF value e^(e^x - 1).

    Algebraically exact; evaluated at 30 significant digits, both routes must
    agree to at least 28.
    """
    if x <= 0:
        raise ValueError("planck_bell_identity requires x > 0")
    from mpmath import mp

    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        direct, through_egf, rel = _planck_routes(x)
        status = MATCH if rel <= mp.mpf(f"1e-{PLANCK_AGREE_DIGITS}") else MISMATCH
        return DiscrepancyReport(
            claim_id=f"occupation.planck.x{float(x)}",
            location="sec6.proposition6.15",
            claimed=format_significant(direct, PLANCK_DIGITS),
            computed=format_significant(through_egf, PLANCK_DIGITS),
            status=status,
            note=f"relative difference {mp.nstr(rel, 3)}",
        )


def planck_identity_gap(x) -> float:
    """Relative gap between the direct Bose occupation and its EGF reading."""
    if x <= 0:
        raise ValueError("planck_identity_gap requires x > 0")
    from mpmath import mp

    with mp.workdps(PLANCK_DIGITS + GUARD_DIGITS):
        return float(_planck_routes(x)[2])


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
