"""GCD machinery: Euclid, a traced binary (Stein) reducer, and scan checkers.

gcd_stein records every rewrite step so a trace can be replayed and audited;
gcd_euclid is the plain division chain kept as the reference oracle. Bulk
scans over thousand-digit values go through math.gcd for throughput; tests
pin all three routes to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .discrepancy import MATCH, MISMATCH, DiscrepancyReport
from .sequences import factorial, factorial_sum, factorial_states, half_left_factorial

BOTH_EVEN = "both-even"
ONE_EVEN = "one-even"
BOTH_ODD = "both-odd"
TERMINAL = "terminal"


def gcd_euclid(a: int, b: int) -> int:
    """Nonnegative gcd by the division chain; gcd(0, 0) = 0."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True)
class GcdStep:
    rule: str
    state: tuple[int, int]  # (u, v) after the rule fires


@dataclass(frozen=True)
class GcdTrace:
    inputs: tuple[int, int]
    steps: tuple[GcdStep, ...]
    result: int

    def replay(self) -> int:
        """Re-run the recorded rewrites, checking each step; returns the result.

        Raises ValueError if any recorded step disagrees with the rules.
        """
        u, v = self.inputs
        factor = 1
        for step in self.steps:
            if step.rule == BOTH_EVEN:
                if u % 2 or v % 2:
                    raise ValueError("both-even step on non-even state")
                u, v = u // 2, v // 2
                factor *= 2
            elif step.rule == ONE_EVEN:
                if u % 2 == 0 and v % 2 == 1:
                    u //= 2
                elif v % 2 == 0 and u % 2 == 1:
                    v //= 2
                else:
                    raise ValueError("one-even step needs exactly one even side")
            elif step.rule == BOTH_ODD:
                if u % 2 == 0 or v % 2 == 0:
                    raise ValueError("both-odd step on even state")
                if u >= v:
                    u = abs(u - v) // 2
                else:
                    v = abs(v - u) // 2
            elif step.rule == TERMINAL:
                if u and v:
                    raise ValueError("terminal step before a zero appeared")
            else:
                raise ValueError(f"unknown rule {step.rule!r}")
            if (u, v) != step.state:
                raise ValueError(f"replay diverged at {step}")
        if self.steps and self.steps[-1].rule != TERMINAL:
            raise ValueError("trace does not end in a terminal step")
        got = factor * (u or v)
        if got != self.result:
            raise ValueError(f"replayed result {got} != recorded {self.result}")
        return got


def gcd_stein(a: int, b: int) -> GcdTrace:
    """Binary gcd with a full step trace; requires nonnegative inputs.

    Rules, applied deterministically until one side is zero:
    both even -> halve both, carry a factor 2; one even -> halve it;
    both odd -> the larger becomes |u - v| / 2.
    """
    if a < 0 or b < 0:
        raise ValueError("gcd_stein requires nonnegative inputs")
    u, v = a, b
    factor = 1
    steps: list[GcdStep] = []
    while u and v:
        if u % 2 == 0 and v % 2 == 0:
            u, v = u // 2, v // 2
            factor *= 2
            steps.append(GcdStep(BOTH_EVEN, (u, v)))
        elif u % 2 == 0:
            u //= 2
            steps.append(GcdStep(ONE_EVEN, (u, v)))
        elif v % 2 == 0:
            v //= 2
            steps.append(GcdStep(ONE_EVEN, (u, v)))
        else:
            if u >= v:
                u = (u - v) // 2
            else:
                v = (v - u) // 2
            steps.append(GcdStep(BOTH_ODD, (u, v)))
    steps.append(GcdStep(TERMINAL, (u, v)))
    return GcdTrace(inputs=(a, b), steps=tuple(steps), result=factor * (u or v))


def check_equivalence_chain(n: int) -> DiscrepancyReport:
    """Check the divisor chain linking the factorial sum, its half and (n+1)!/2.

    Three clauses are evaluated: gcd(F_n, (n+1)!) = 2, gcd(r_n, (n+1)!/2) = 1,
    and the exact link gcd(F_n, (n+1)!) = 2 * gcd(r_n, (n+1)!/2).
    """
    if n < 1:
        raise ValueError("check_equivalence_chain requires n >= 1")
    fn = factorial_sum(n)
    rn = half_left_factorial(n)
    fac = factorial(n + 1)
    g1 = math.gcd(fn, fac)
    g2 = math.gcd(rn, fac // 2)
    linked = "linked" if g1 == 2 * g2 else "unlinked"
    computed = f"{g1}_{g2}_{linked}"
    claimed = "2_1_linked"
    return DiscrepancyReport(
        claim_id=f"equivalence.chain.n{n}",
        location="sec4.theorem4.17",
        claimed=claimed,
        computed=computed,
        status=MATCH if computed == claimed else MISMATCH,
    )


@dataclass(frozen=True)
class AlteredScanRow:
    """One scan cell: value = gcd(F_n + a, F_{n+1} + a)."""

    n: int
    a: int
    value: int


def scan_altered(a: int, ns: Iterable[int]) -> list[AlteredScanRow]:
    """gcd(F_n + a, F_(n+1) + a) for n in `ns`, from one walk of the factorial stream.

    The two terms differ by (n+1)! for n >= 1; F_0 = 0 and F_1 = 2 at n = 0.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("scan_altered requires n >= 0")
    wanted = set(ns)
    values = {}
    for s in factorial_states(1, max(ns, default=-1) + 1):
        n = s.n - 1
        if n in wanted:
            values[n] = math.gcd(s.left + a, s.factorial) if n else math.gcd(a, a + 2)
    return [AlteredScanRow(n=n, a=a, value=values[n]) for n in ns]


# published piecewise claims for the altered scans, by shift a
def claimed_altered(a: int, n: int) -> int:
    if a == 2:
        if n == 0:
            return 1
        if n == 1:
            return 2
        if n == 6:
            return 6
        return 12
    if a == 3:
        return 1 if n < 11 else 13
    if a == 4:
        return 1 if n == 0 else 2
    if a == 5:
        return 1 if n in (0, 1) else 3
    raise ValueError(f"no published claim for a={a}")

_CLAIM_LOCATIONS = {2: "sec4.lemma4.30", 3: "sec4.lemma4.31", 4: "sec4.lemma4.32", 5: "sec4.lemma4.33"}


def check_lemma_fixtures(a: int, n_max: int = 20) -> list[DiscrepancyReport]:
    """Compare the published piecewise claims for shift `a` against direct scans.

    Claims are fixtures, never assertions: several cells are contradicted by
    direct computation and the mismatches are the point of the report. For
    a = 3 the scan is repeated under the one-off origin convention (the raw
    left factorial rather than the factorial sum) because the published
    threshold sits between the two; both scans are reported.
    """
    location = _CLAIM_LOCATIONS[a]
    out = []
    for row in scan_altered(a, range(n_max + 1)):
        claim = claimed_altered(a, row.n)
        out.append(
            DiscrepancyReport(
                claim_id=f"altered.a{a}.n{row.n}",
                location=location,
                claimed=str(claim),
                computed=str(row.value),
                status=MATCH if claim == row.value else MISMATCH,
            )
        )
    if a == 3:
        for s in factorial_states(1, n_max):
            value = math.gcd(s.left + a, s.left + s.factorial + a)
            claim = claimed_altered(a, s.n)
            out.append(
                DiscrepancyReport(
                    claim_id=f"altered.a{a}.shifted.n{s.n}",
                    location=location,
                    claimed=str(claim),
                    computed=str(value),
                    status=MATCH if claim == value else MISMATCH,
                    note="origin shifted one step down",
                )
            )
    return out


def check_table9(n_lo: int = 2, n_hi: int = 10) -> list[DiscrepancyReport]:
    """gcd(|alternating sum|, !n) = 2 for n in [n_lo, n_hi], per the published table."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError("check_table9 requires 2 <= n_lo <= n_hi")
    out = []
    for s in factorial_states(n_lo, n_hi):
        g = math.gcd(abs(s.alt), s.left)
        out.append(
            DiscrepancyReport(
                claim_id=f"table9.n{s.n}",
                location="sec4.table9",
                claimed="2",
                computed=str(g),
                status=MATCH if g == 2 else MISMATCH,
            )
        )
    return out


def plus_minus_one(n: int, sign: int) -> int:
    """F_n + sign * (-1)^n, the two companion sequences of the scans."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return factorial_sum(n) + sign * (1 if n % 2 == 0 else -1)


def check_ab_sequences(n_max: int = 10) -> list[DiscrepancyReport]:
    """Check the three published gcd claims about the companion sequences.

    A_n = F_n + (-1)^n and B_n = F_n - (-1)^n; successive A gcds claim 1,
    successive B gcds claim a piecewise table, and the within-index pair
    claims 2 at the origin then 1.
    """
    if n_max < 1:
        raise ValueError("check_ab_sequences requires n_max >= 1")
    a_vals = [plus_minus_one(n, 1) for n in range(n_max + 2)]
    b_vals = [plus_minus_one(n, -1) for n in range(n_max + 2)]
    out = []
    for n in range(n_max + 1):
        g = math.gcd(a_vals[n], a_vals[n + 1])
        out.append(
            DiscrepancyReport(
                claim_id=f"aseq.gcd.n{n}",
                location="sec4.theorem4.37",
                claimed="1",
                computed=str(g),
                status=MATCH if g == 1 else MISMATCH,
            )
        )
    for n in range(n_max + 1):
        if n in (0, 1):
            claim = 3
        elif n == 3:
            claim = 11
        else:
            claim = 1
        g = math.gcd(b_vals[n], b_vals[n + 1])
        out.append(
            DiscrepancyReport(
                claim_id=f"bseq.gcd.n{n}",
                location="sec4.theorem4.38",
                claimed=str(claim),
                computed=str(g),
                status=MATCH if claim == g else MISMATCH,
            )
        )
    for n in range(n_max + 1):
        claim = 2 if n == 0 else 1
        g = math.gcd(a_vals[n], b_vals[n])
        out.append(
            DiscrepancyReport(
                claim_id=f"abpair.gcd.n{n}",
                location="sec4.lemma4.39",
                claimed=str(claim),
                computed=str(g),
                status=MATCH if claim == g else MISMATCH,
            )
        )
    return out
