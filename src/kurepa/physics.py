"""Occupation numbers and ordering identities on the Fock diagonal.

(a+)^k a^k is diagonal in the number basis with eigenvalue m(m-1)...(m-k+1),
so every ordering identity reduces to an integer falling factorial identity,
which the expansions here evaluate exactly. The occupation curve side
(Planck distribution, Bell EGF round trip, de Bruijn growth envelope) runs
in decimal: occupation and planck_routes at the caller's precision, the
checks at 30 significant digits. The module computes; report
compares the published claims against it. The one exception is
debruijn_bound_check, which judges its own row because the `physics
debruijn` table prints that row.

The growth check reads ln Bell_n from Dobinski's identity
e Bell_n = sum_k k^n/k!, summed exactly until the tail is below the
working precision, so it builds no Bell number. On a 2-vCPU machine with
CPython 3.11 that takes about 7 ms at n = 1000, against 0.17 s for the
exact Bell_1000 from 1001 rows of the Bell triangle.
"""

from __future__ import annotations

import math
import operator
from decimal import MAX_EMAX, Decimal, getcontext, localcontext

from .discrepancy import MATCH, MISMATCH, DiscrepancyReport
from .efactor import GUARD_DIGITS, format_significant
from .sequences import stirling2

PLANCK_DIGITS = 30
DEBRUIJN_ENVELOPE = 5
ASYMPTOTIC_MIN_N = 30

# sample points of the `physics occupation` and `physics debruijn` tables,
# also checked as report rows
PLANCK_SAMPLE_X = (0.01, math.log(2.0), 1.0, 5.0)
DEBRUIJN_SAMPLE_N = (10, 100, 300, 1000)


def falling(m: int, k: int) -> int:
    """m (m-1) ... (m-k+1) for m, k >= 0; zero once k exceeds m."""
    if m < 0 or k < 0:
        raise ValueError("falling requires m >= 0 and k >= 0")
    return math.perm(m, k)


class OrderingExpansion:
    """Coefficients of (a+)^k a^k, k = 1..n, for one ordering of (a+ a)^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        self.coeffs = coeffs

    @property
    def n(self) -> int:
        """The order n of (a+ a)^n: one coefficient per k = 1..n."""
        return len(self.coeffs)

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
    return OrderingExpansion(tuple(stirling2(n, k) for k in range(1, n + 1)))


def antinormal_ordering(n: int) -> OrderingExpansion:
    """Alternating-sign companion with a positive leading (k = n) term."""
    if n < 1:
        raise ValueError("antinormal_ordering requires n >= 1")
    coeffs = tuple((-1) ** (n - k) * stirling2(n, k) for k in range(1, n + 1))
    return OrderingExpansion(coeffs)


def _cancelling(x: Decimal):
    """The caller's context, widened for e^x - sigma and the EGF at x in (0, 42]."""
    ctx = getcontext().copy()
    # for small x, e^x - 1 cancels the leading digits of e^x and so does
    # ln of the EGF near 1: one more digit per decade that x lies below 1
    ctx.prec += max(0, -x.adjusted())
    # the EGF exceeds the default exponent range (10^999999) from x = 14.7
    # and the largest one on 64-bit builds, 10^MAX_EMAX, from x = 42.28
    ctx.Emax = MAX_EMAX
    return localcontext(ctx)


def occupation(x, sigma: int) -> Decimal:
    """Mean occupation 1/(e^x - sigma) at the caller's precision; sigma is +1 (Bose) or -1 (Fermi)."""
    if x <= 0:
        raise ValueError("occupation requires x > 0")
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    x = Decimal(x)
    with _cancelling(x):
        growth = x.exp() - sigma
    return 1 / growth


def planck_routes(x):
    """Direct occupation, its Bell-EGF reading and their relative gap, at the caller's precision.

    x must be in (0, 42]. The direct route is occupation(x, 1); the EGF route is 1/ln(e^(e^x - 1)).
    """
    x = Decimal(x)
    with _cancelling(x):
        egf_growth = (x.exp() - 1).exp().ln()
    direct, through_egf = occupation(x, 1), 1 / egf_growth
    return direct, through_egf, abs(through_egf - direct) / direct


def planck_identity_gap(x) -> float:
    """Relative gap between the direct Bose occupation and its EGF reading."""
    if not 0 < x <= 42:
        raise ValueError("planck_identity_gap requires 0 < x <= 42")
    with localcontext() as ctx:
        ctx.prec = PLANCK_DIGITS + GUARD_DIGITS
        return float(planck_routes(x)[2])


def _dobinski_partial(n: int) -> tuple[int, int]:
    """(N_K, K) with N_K = K! sum_(k<=K) k^n/k! and 0 < K! e Bell_n - N_K <= N_K 10^-(prec+2).

    N_K = K N_(K-1) + K^n from N_0 = 0, and the sum stops at the first K
    where 2 (K+1)^(n-1) <= K^n and K^n 10^(prec+2) <= N_K, prec being the
    context precision. The term ratio (1 + 1/k)^n/(k + 1) falls as k grows,
    and the first test says it is at most 1/2 from K on, so the tail
    sum_(k>K) k^n/k! is at most K^n/K!, and the second test makes that
    below 10^-(prec+2) of the partial sum.
    """
    scale = 10 ** (getcontext().prec + 2)
    partial, k, power = 0, 1, 1
    while True:
        partial = k * partial + power
        following = (k + 1) ** n
        if 2 * following <= (k + 1) * power and power * scale <= partial:
            return partial, k
        k, power = k + 1, following


def _ln_bell(n: int) -> Decimal:
    """ln Bell_n at the context precision, as ln(N_K/K!) - 1 from _dobinski_partial."""
    partial, k = _dobinski_partial(n)
    return (Decimal(partial) / math.factorial(k)).ln() - 1


def debruijn_bound_check(n: int) -> DiscrepancyReport:
    """Growth envelope for ln Bell_n / n against the five-term expansion.

    The difference from ln n - ln ln n - 1 + ln ln n/ln n + 1/ln n
    + (ln ln n/ln n)^2/2 must stay within 5 ln ln n/(ln n)^2. Below n = 30
    the check still runs but is flagged as outside the asymptotic regime.

    ln Bell_n comes from Dobinski's series (_dobinski_partial), not from the
    exact Bell number: the sum stops at K = 276 for n = 1000 and at K = 899
    for n = 5000, where the triangle would need n + 1 rows. n must be an
    int; a float is rejected even when it is integral.
    """
    n = operator.index(n)
    if n < 10:
        raise ValueError("debruijn_bound_check requires n >= 10")
    with localcontext() as ctx:
        ctx.prec = PLANCK_DIGITS + GUARD_DIGITS
        lhs = _ln_bell(n) / n
        log_n = Decimal(n).ln()
        loglog_n = log_n.ln()
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
