"""Reference values from the textbook definitions, importing nothing from kurepa.

Tests compare the package's fast routes against these plain loops, so a
fault shared by the package's own helpers cannot hide in both sides. Each
family is its defining sum or binomial recurrence, not the step or
triangle recurrence the package computes it with, under the name of the
package's point function.
"""

import math
from math import factorial


def gcd_euclid(a: int, b: int) -> int:
    """Nonnegative gcd by the division chain; gcd(0, 0) = 0."""
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


# !0, !1, ... grown on demand by left_factorial
_LEFT = [0]


def left_factorial(n: int) -> int:
    """!n = 0! + 1! + ... + (n-1)!, with the empty sum !0 = 0, from math.factorial."""
    while len(_LEFT) <= n:
        _LEFT.append(_LEFT[-1] + factorial(len(_LEFT) - 1))
    return _LEFT[n]


def factorial_sum(n: int) -> int:
    """F_n = 0! + 1! + ... + n! = !(n+1) for n >= 1.

    F_0 = 0, the convention of the paper's section 4 tables (not the sum
    0! = 1), so F_1 = 2 and F_n = F_(n-1) + n! from there on.
    """
    return left_factorial(n + 1) if n else 0


def wagstaff(n: int) -> int:
    """!n - 1, so -1 at n = 0."""
    return left_factorial(n) - 1


def half_left_factorial(n: int) -> int:
    """r_n = F_n / 2, so r_0 = 0."""
    return factorial_sum(n) // 2


def alt_left_factorial(n: int) -> int:
    """Sum of (-1)^m m! over 0 <= m < n."""
    return sum((-1) ** m * factorial(m) for m in range(n))


def guy_alternating(n: int) -> int:
    """Sum of (-1)^(n-m) m! over 1 <= m <= n."""
    return sum((-1) ** (n - m) * factorial(m) for m in range(1, n + 1))


def derangement(n: int) -> int:
    """D_n by inclusion-exclusion: the sum of (-1)^k n!/k! over 0 <= k <= n."""
    return sum((-1) ** k * (factorial(n) // factorial(k)) for k in range(n + 1))


def stirling2(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion: the sum of (-1)^j C(k, j) (k-j)^n over j <= k, over k!."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def _binomial_recurrence(sign: int):
    """a_n with a_0 = 1 and a_(n+1) = sign * sum_k C(n, k) a_k, each value kept."""
    values = [1]

    def a(n: int) -> int:
        while len(values) <= n:
            m = len(values) - 1
            values.append(sign * sum(math.comb(m, k) * v for k, v in enumerate(values)))
        return values[n]

    return a


bell = _binomial_recurrence(1)
complementary_bell = _binomial_recurrence(-1)


def shifted_gcd(a: int, n: int) -> int:
    """gcd(F_n + a, F_(n+1) + a), the row n of the shifted gcd scan."""
    return math.gcd(factorial_sum(n) + a, factorial_sum(n + 1) + a)
