"""Unit tests for the exact integer sequences."""

import math
import pydoc

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import fresh_python
from kurepa.sequences import (
    FAMILIES,
    alt_left_factorial,
    bell,
    column,
    complementary_bell,
    consecutive_factorial_sum,
    derangement,
    factorial,
    factorial_sum,
    fubini_poly,
    guy_alternating,
    half_left_factorial,
    kurepa_poly,
    left_factorial,
    touchard_poly,
    wagstaff,
)
from kurepa.verifier import bell_mod, block_residues, left_factorial_mod

small_n = st.integers(min_value=0, max_value=120)


# every input check of a point function or residue oracle, with an argument just out of range
GUARDS = [
    *((func, (-1,), "requires n >= 0") for func in (
        alt_left_factorial, guy_alternating, bell, complementary_bell, derangement,
        touchard_poly, fubini_poly, kurepa_poly, factorial_sum, half_left_factorial,
    )),
    (left_factorial_mod, (0,), "requires p >= 1"),
    (bell_mod, (-1, 5), "requires n >= 0"),
    (bell_mod, (3, 0), "requires p >= 1"),
    (block_residues, ([7, 5, 11],), "strictly increasing"),
    (block_residues, ([1, 2, 3],), "moduli >= 2"),
]


@pytest.mark.parametrize(
    "func, args, message", GUARDS, ids=[f"{f.__name__}({', '.join(map(repr, a))})" for f, a, _ in GUARDS]
)
def test_input_checks_reject_out_of_range_arguments(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_factorial_values():
    assert [factorial(n) for n in range(9)] == [1, 1, 2, 6, 24, 120, 720, 5040, 40320]
    with pytest.raises(ValueError):
        factorial(-1)


def test_left_factorial_values():
    assert [left_factorial(n) for n in range(1, 9)] == [1, 2, 4, 10, 34, 154, 874, 5914]
    assert left_factorial(10) == 409114


def test_left_factorial_rejects_zero():
    # the empty-sum convention is applied by callers, not by the function
    with pytest.raises(ValueError):
        left_factorial(0)


@given(st.integers(min_value=1, max_value=200))
def test_left_factorial_difference(n):
    assert left_factorial(n + 1) - left_factorial(n) == math.factorial(n)


def test_factorial_sum_values():
    assert [factorial_sum(n) for n in range(9)] == [0, 2, 4, 10, 34, 154, 874, 5914, 46234]


@given(st.integers(min_value=1, max_value=200))
def test_factorial_sum_is_shifted_left_factorial(n):
    assert factorial_sum(n) == left_factorial(n + 1)


@given(st.integers(min_value=0, max_value=200))
def test_half_left_factorial_doubles_back(n):
    assert 2 * half_left_factorial(n) == factorial_sum(n)


def test_half_left_factorial_scan_halves_exactly():
    # !(n+1) = 2 + sum of k! for 2 <= k <= n is even for n >= 1, so the
    # scan's floor halving loses nothing
    halves = column(FAMILIES["r"].scan, 0, 2000)
    assert [2 * r for r in halves] == [factorial_sum(n) for n in range(2001)]


def test_half_left_factorial_values():
    assert [half_left_factorial(n) for n in range(6)] == [0, 1, 2, 5, 17, 77]


def test_alt_left_factorial_values():
    assert [alt_left_factorial(n) for n in range(9)] == [0, 1, 0, 2, -4, 20, -100, 620, -4420]


@given(st.integers(min_value=0, max_value=150))
def test_alt_left_factorial_recurrence(n):
    # adding the m = n term with sign (-1)^n
    sign = 1 if n % 2 == 0 else -1
    assert alt_left_factorial(n + 1) == alt_left_factorial(n) + sign * math.factorial(n)


def test_guy_alternating_values():
    assert [guy_alternating(n) for n in range(9)] == [0, 1, 1, 5, 19, 101, 619, 4421, 35899]


@given(st.integers(min_value=1, max_value=150))
def test_guy_alternating_recurrence(n):
    assert guy_alternating(n) + guy_alternating(n - 1) == math.factorial(n)


def test_wagstaff_is_left_factorial_minus_one():
    assert [wagstaff(n) for n in range(1, 9)] == [0, 1, 3, 9, 33, 153, 873, 5913]
    with pytest.raises(ValueError):
        wagstaff(0)


def test_bell_values():
    assert [bell(n) for n in range(10)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


@given(st.integers(min_value=0, max_value=60))
def test_bell_is_stirling_row_sum(n):
    assert bell(n) == sum(touchard_poly(n))


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_stirling_recurrence(n, k):
    if k > n:
        return
    # outside the triangle the count is zero
    def s(m, j):
        return touchard_poly(m)[j] if 0 <= j <= m else 0

    assert touchard_poly(n)[k] == k * s(n - 1, k) + s(n - 1, k - 1)


def test_stirling_row_after_a_higher_row():
    # the Stirling memo holds rows 0..40 here; row 5 is read from it
    assert touchard_poly(40)[1] == 1
    assert touchard_poly(5) == (0, 1, 15, 25, 10, 1)
    assert touchard_poly(4) == (0, 1, 7, 6, 1)
    assert touchard_poly(41)[40] == math.comb(41, 2)


def test_factorial_family_after_a_higher_index():
    # the point functions keep every value found; a lower n is read from the memo
    assert left_factorial(60) == sum(math.factorial(m) for m in range(60))
    assert derangement(61) == 61 * derangement(60) - 1
    assert [left_factorial(n) for n in (8, 3, 1)] == [5914, 4, 1]
    assert [guy_alternating(n) for n in (8, 2, 5)] == [35899, 1, 101]


def test_point_reads_carry_their_family_definitions():
    # help() shows a read's own __doc__, the definition in its FAMILIES row
    import kurepa

    assert kurepa.left_factorial.__doc__.startswith("Left factorial !n = 0! + ... + (n-1)!")
    assert kurepa.complementary_bell.__doc__.startswith("Complementary Bell number")
    assert "(n-1)!" in pydoc.render_doc(kurepa.left_factorial, renderer=pydoc.plaintext)
    for read in (*(row.read for row in FAMILIES.values()), touchard_poly):
        assert read.__doc__ and read.__doc__ != type(read).__doc__, read.__name__


def test_complementary_bell_memory_is_quadratic():
    # one live row of the signed Bell triangle: the traced peak is about
    # 1.0 MB at n = 800 and grows about 4.4x per doubling of n, where keeping
    # every Stirling row took about 100 MB at 800 and grew 8x per doubling.
    # A memo of the values (1.27 MB at 800, also quadratic) still passes.
    proc = fresh_python(
        "-c",
        "import tracemalloc\n"
        "from kurepa.sequences import complementary_bell\n"
        "tracemalloc.start()\n"
        "complementary_bell(800)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
        "tracemalloc.reset_peak()\n"
        "complementary_bell(1600)\n"
        "print(tracemalloc.get_traced_memory()[1])\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    peak_800, peak_1600 = map(int, proc.stdout.split())
    assert peak_800 < 2 * 2**20
    assert peak_1600 < 6 * peak_800


# a trace function raises KeyboardInterrupt on entry to the 50th step of
# the memo's scan: a resumed _aitken generator, or derangement's accumulate step
INTERRUPT_A_STEP = """
import sys
from kurepa import sequences
name, step = sys.argv[1:]
read, first, scan = sequences.FAMILIES[name]
steps = 0

def trace(frame, event, arg):
    global steps
    code = frame.f_code
    if code.co_filename == sequences.__file__ and code.co_name == step:
        steps += 1
        if steps == 50:
            raise KeyboardInterrupt

sys.settrace(trace)
try:
    read(100)
except KeyboardInterrupt:
    pass
else:
    raise SystemExit("no step was interrupted")
finally:
    sys.settrace(None)
values = sequences.column(scan, 0, 120)
ns = (120, 30, 49, 50, 119, 0)
assert [read(n) for n in ns] == [values[n] for n in ns], name
"""


@pytest.mark.parametrize("name, step", [("invbell", "_aitken"), ("bell", "_aitken"), ("derangement", "<lambda>")])
def test_memo_recovers_from_an_interrupted_step(name, step):
    # in a fresh interpreter, so a memo this breaks breaks no other test
    proc = fresh_python("-c", INTERRUPT_A_STEP, name, step, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_decimal_bell_ignores_the_callers_context():
    # a fresh interpreter, so the Decimal memo is built inside the caller's
    # 5-digit context, which would round every Bell number past B_8. The scan
    # is read directly: column would enter the exact context itself
    proc = fresh_python(
        "-c",
        "import decimal\n"
        "from itertools import islice\n"
        "from kurepa.sequences import FAMILIES, bell\n"
        "with decimal.localcontext() as ctx:\n"
        "    ctx.prec = 5\n"
        "    value = next(islice(FAMILIES['bell'].scan(decimal.Decimal(1)), 300, None))\n"
        "assert str(value) == str(bell(300)), value\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_complementary_bell_values():
    assert [complementary_bell(n) for n in range(9)] == [1, -1, 0, 1, 1, -2, -9, -9, 50]


@given(st.integers(min_value=0, max_value=200))
def test_complementary_bell_is_alternating_row_sum(n):
    want = sum((-1) ** k * oracles.stirling2(n, k) for k in range(n + 1))
    assert complementary_bell(n) == want


def test_derangement_values():
    assert [derangement(n) for n in range(9)] == [1, 0, 1, 2, 9, 44, 265, 1854, 14833]


@given(st.integers(min_value=1, max_value=200))
def test_derangement_recurrence(n):
    assert derangement(n) == n * derangement(n - 1) + (-1) ** n


def test_touchard_poly_at_special_points():
    assert touchard_poly(4) == (0, 1, 7, 6, 1)
    for n in range(12):
        coeffs = touchard_poly(n)
        assert sum(coeffs) == bell(n)
        assert sum((-1) ** k * c for k, c in enumerate(coeffs)) == complementary_bell(n)


def test_touchard_poly_does_not_share_the_stirling_row():
    coeffs = touchard_poly(6)
    with pytest.raises(TypeError):
        coeffs[1] = 99
    assert touchard_poly(6) == (0, 1, 31, 90, 65, 15, 1)


def test_fubini_poly():
    assert fubini_poly(3) == (0, 1, 6, 6)
    # ordered Bell numbers at x = 1
    assert [sum(fubini_poly(n)) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_kurepa_poly():
    assert kurepa_poly(0) == (1,)
    assert kurepa_poly(3) == (1, 1, 2, 6)
    for n in range(10):
        assert sum(kurepa_poly(n)) == left_factorial(n + 1)
        # at x = -1 the signed sum is the alternating left factorial one index up
        assert sum((-1) ** k * c for k, c in enumerate(kurepa_poly(n))) == alt_left_factorial(n + 1)


def test_consecutive_factorial_sum():
    assert consecutive_factorial_sum(2, 3) == 2 + 6 + 24
    assert consecutive_factorial_sum(0, 8) == left_factorial(8)
    with pytest.raises(ValueError):
        consecutive_factorial_sum(-1, 3)
    with pytest.raises(ValueError):
        consecutive_factorial_sum(0, 0)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
def test_consecutive_factorial_sum_telescopes(k, n):
    assert consecutive_factorial_sum(k, n) == left_factorial(k + n) - (
        left_factorial(k) if k else 0
    )
