"""GCD machinery: Euclid, a traced binary (Stein) reducer, and the shifted scan.

gcd_stein records every rewrite step so a trace can be replayed and audited;
gcd_euclid is the plain division chain kept as the reference oracle. Bulk
scans over thousand-digit values go through math.gcd for throughput; tests
pin all three routes to each other. The module only computes: the published
gcd claims are compared against these values in report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .sequences import factorial_states

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
