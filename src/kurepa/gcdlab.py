"""GCD machinery: Euclid, the binary (Stein) reducer, and the shifted scan.

report's theorem 4.17 binary-gcd column uses gcd_stein; gcd_euclid is the
plain division chain kept as the reference oracle; tests pin both to
math.gcd. scan_altered takes no gcd of factorial-sized values: it reads
each row's prime support from the residues !q mod q that the
counterexample search computes, and each exponent from a walk modulo a
prime power. Tests pin it to math.gcd over direct factorial sums. The
module only computes: the published gcd claims are compared against these
values in report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .verifier import block_residues, sieve_primes


def gcd_euclid(a: int, b: int) -> int:
    """Nonnegative gcd by the division chain; gcd(0, 0) = 0."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def gcd_stein(a: int, b: int) -> int:
    """Binary gcd of nonnegative inputs; gcd(0, 0) = 0.

    Rules, applied deterministically until one side is zero:
    both even -> halve both, carry a factor 2; one even -> halve it;
    both odd -> the larger becomes |u - v| / 2.
    """
    if a < 0 or b < 0:
        raise ValueError("gcd_stein requires nonnegative inputs")
    u, v = a, b
    factor = 1
    while u and v:
        if u % 2 == 0 and v % 2 == 0:
            u, v = u // 2, v // 2
            factor *= 2
        elif u % 2 == 0:
            u //= 2
        elif v % 2 == 0:
            v //= 2
        elif u >= v:
            u = (u - v) // 2
        else:
            v = (v - u) // 2
    return factor * (u or v)


@dataclass(frozen=True)
class AlteredScanRow:
    """One scan cell: value = gcd(F_n + a, F_{n+1} + a)."""

    n: int
    a: int
    value: int


def scan_altered(a: int, ns: Iterable[int]) -> list[AlteredScanRow]:
    """gcd(F_n + a, F_(n+1) + a) for n in `ns`, from the residues !q mod q.

    F_0 = 0 and F_1 = 2, so row 0 is gcd(a, a + 2). For n >= 1, F_n = !(n+1)
    and the terms differ by (n+1)!, so g(n) = gcd(!(n+1) + a, (n+1)!): the
    product of q**e over the primes q <= n + 1, where
    e = min(v_q(!(n+1) + a), v_q((n+1)!)).

    Support: k! = 0 (mod q) for k >= q, so !(n+1) = !q (mod q) whenever
    q <= n + 1. A prime q therefore divides g(n) exactly when q <= n + 1
    and !q + a = 0 (mod q). block_residues gives !q mod q for every prime
    q <= N = max(ns) + 1, and only the primes that pass are walked.

    Exponents: one walk per kept q carries (m!, !m) modulo q**E, where
    E = v_q(N!), while Legendre's count v_q(m!) grows by v_q(m) at each m.
    For x = !(n+1) + a and any e <= E, q**e divides x exactly when it
    divides x mod q**E, so v_q(x mod q**E) = v_q(x) whenever it is below
    E. A residue of 0 means v_q(x) >= E >= v_q((n+1)!), so the exponent is
    that cap. No exact !n or n! is built.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("scan_altered requires n >= 0")
    top = max(ns, default=0) + 1  # N
    values = [1] * top
    values[0] = math.gcd(a, a + 2)
    primes = list(sieve_primes(2, top + 1))
    for q, r in zip(primes, block_residues(primes)):
        if (r + a) % q:
            continue
        # q**E with E = v_q(N!) by Legendre: the sum of N // q**i
        modulus = q ** sum(top // q**i for i in range(1, top.bit_length()))
        shift = a % modulus
        f = s = 1  # (m!, !m) mod modulus at m = 1
        cap = 0  # v_q(m!), by Legendre's count
        for m in range(2, top + 1):
            s = (s + f) % modulus
            f = f * m % modulus
            k = m
            while k % q == 0:
                k //= q
                cap += 1
            if m >= q:
                # row n = m - 1; a residue of 0 counts up to the cap
                x, e = (s + shift) % modulus, 0
                while e < cap and x % q == 0:
                    x //= q
                    e += 1
                values[m - 1] *= q**e
    return [AlteredScanRow(n=n, a=a, value=values[n]) for n in ns]
