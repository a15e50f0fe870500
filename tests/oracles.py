"""Reference values from the textbook definitions, importing nothing from kurepa.

Tests compare the package's fast routes against these plain loops, so a
fault shared by the package's own helpers cannot hide in both sides.
"""

import math


def gcd_euclid(a: int, b: int) -> int:
    """Nonnegative gcd by the division chain; gcd(0, 0) = 0."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


# F_0, F_1, ... grown on demand by factorial_sum
_F = [0, 2]


def factorial_sum(n: int) -> int:
    """F_n = 0! + 1! + ... + n! for n >= 1, from math.factorial.

    F_0 = 0, the convention of the paper's section 4 tables (not the sum
    0! = 1), so F_1 = 2 and F_n = F_(n-1) + n! from there on.
    """
    while len(_F) <= n:
        _F.append(_F[-1] + math.factorial(len(_F)))
    return _F[n]
