"""GCD machinery: the binary (Stein) reducer and the shifted scan.

report's theorem 4.17 binary-gcd column uses gcd_stein; tests pin it to
math.gcd and to a plain division chain kept outside the package.
scan_altered walks the left factorials once and takes one gcd per row, of
the shifted term and (n+1) times the previous row's value, so no
factorial-sized term is ever paired with (n+1)!. Tests pin it to math.gcd
over direct factorial sums. The module only computes: the published gcd
claims are compared against these values in report.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

from .sequences import FAMILIES


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


AlteredScanRow = namedtuple("AlteredScanRow", "n value")
AlteredScanRow.__doc__ = "One scan cell: value = gcd(F_n + a, F_{n+1} + a) for the scan's shift a."


def scan_altered(a: int, ns: Iterable[int]) -> list[AlteredScanRow]:
    """gcd(F_n + a, F_(n+1) + a) for n in `ns`, one recurrence step per row.

    F_0 = 0 and F_1 = 2, so row 0 is gcd(a, a + 2). For n >= 1, F_n = !(n+1)
    and the terms differ by (n+1)!, so with x_n = F_n + a,
    g(n) = gcd(x_n, (n+1)!) = gcd(x_n, (n+1) * g(n-1)):

    - x_n = x_(n-1) + n!, so gcd(x_n, n!) = gcd(x_(n-1), n!) = g(n-1).
    - Write x_n = g(n-1) * u and n! = g(n-1) * v with gcd(u, v) = 1. Then
      g(n) = g(n-1) * gcd(u, (n+1) * v) = g(n-1) * gcd(u, n+1), which is
      gcd(x_n, (n+1) * g(n-1)).
    - The seed is gcd(!1 + a, 1!) = 1. Row 0 is not the seed, because
      F_1 - F_0 = 2 is not 1!.

    The same step shows that g(n-1) divides g(n) for n >= 2. One walk of
    the left-factorial scan gives each x_n, one multiply and one add per
    row; the second gcd argument stays the size of the row's value.
    """
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("scan_altered requires n >= 0")
    values = [math.gcd(a, a + 2)]
    g = 1  # gcd(!1 + a, 1!)
    # left = !m = F_n at m = n + 1
    for m, left in enumerate(islice(FAMILIES["left_factorial"].scan(), 2, max(ns, default=0) + 2), 2):
        g = math.gcd(left + a, m * g)
        values.append(g)
    return [AlteredScanRow(n=n, value=values[n]) for n in ns]
