"""Catalogue of published numeric claims, re-checked against exact recomputation.

Each function covers one table or theorem family and returns one
DiscrepancyReport per checkable cell; full_report() concatenates the lot
in source order. Published cells are transcribed verbatim (thousand
separators dropped, scientific notation expanded), nothing is corrected
before comparison, so misprints surface as mismatch rows whose note says
what the recomputation found instead.

This module alone decides which printed cell is checked against which
recomputation, under which claim id and location; the layer modules only
compute. A row is built one of three ways. A printed column goes through
_column, which pairs each cell with its recomputation fn(n); a single exact
claim calls discrepancy.compare directly, as _column does per cell. compare
sets the status: match when the two rendered strings are equal. The
real-valued claims (the log identities, the n = 5 log aggregate and the
Planck occupation rows) go through _near, which prints both sides to 30
significant digits and matches them by relative agreement. The growth
envelope rows come from physics.debruijn_bound_check, which the `physics
debruijn` table prints too.

Cell rendering is shared between the claimed and computed sides:
integers print plain, halves print as decimals ("0.5"), polynomial
coefficient lists join ascending with underscores (zero polynomial "0"),
and e-scaled values print as "q*e^s".
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .decomp import (
    alt_kurepa_sequence_sum,
    basis_coefficient,
    greedy_bell_decomposition,
    kurepa_sequence_sum,
    load_fixtures,
)
from .discrepancy import MATCH, MISMATCH, DiscrepancyReport, compare
from .efactor import GUARD_DIGITS, EScaled, dobinski, fermi, format_significant, inv_dobinski
from .gcdlab import gcd_stein, scan_altered
from .physics import (
    DEBRUIJN_SAMPLE_N,
    PLANCK_SAMPLE_X,
    antinormal_ordering,
    debruijn_bound_check,
    normal_ordering,
    planck_routes,
)
from .sequences import (
    alt_left_factorial,
    bell,
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
from .verifier import bell_mod, left_factorial_mod

CONGRUENCE_PRIMES = (2, 3, 5, 7, 11, 13, 101, 997)
CONJECTURE_SCAN_MAX = 200
# significant digits the real-valued claims print and compare at
_NEAR_DIGITS = 30


def _c(value) -> str:
    """Canonical cell string for int, Fraction or EScaled values."""
    if isinstance(value, EScaled):
        return str(value)
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    if f.denominator == 2:
        return f"{f.numerator / 2:.1f}"
    raise ValueError(f"no canonical cell form for {value!r}")


def _poly(coeffs) -> str:
    """Ascending coefficient list joined with underscores; zero poly is "0"."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return "0"
    return "_".join(_c(x) for x in cs)


def _at(coeffs, x):
    """Horner evaluation of the polynomial with ascending coefficients `coeffs` at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _lf0(n: int) -> int:
    # the empty left factorial: tables treat !0 as the empty sum 0
    return 0 if n == 0 else left_factorial(n)


def _kpoly(n: int) -> str:
    return _poly(kurepa_poly(n))


def _weights(ordering, n: int) -> str:
    """An ordering expansion as printed: "1" at order 0, else weight 0 then k = 1..n."""
    if n == 0:
        return "1"
    exp = ordering(n)
    return "_".join(["0"] + [str(exp.coefficient(k)) for k in range(1, n + 1)])


def _column(key, loc, cells, fn, start=0, note="", cell=_c) -> list[DiscrepancyReport]:
    """One compare() row per published cell: `key.n<n>` holds cell(published) against cell(fn(n)).

    n counts up from `start`. `note` is one string for every row, or a dict
    {n: note} for notes on some rows only.
    """
    return [
        compare(f"{key}.n{n}", loc, cell(published), cell(fn(n)),
                note.get(n, "") if isinstance(note, dict) else note)
        for n, published in enumerate(cells, start)
    ]


def _agree(a, b, rel_tol) -> bool:
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def _near(claim_id, loc, claimed, computed, rel_tol, note="") -> DiscrepancyReport:
    """A real-valued claim row, both sides printed to _NEAR_DIGITS significant digits.

    The row matches when the two values agree to `rel_tol` relative to the
    larger. Call it inside the decimal context that computed them.
    """
    return DiscrepancyReport(
        claim_id, loc, format_significant(claimed, _NEAR_DIGITS),
        format_significant(computed, _NEAR_DIGITS),
        MATCH if _agree(claimed, computed, rel_tol) else MISMATCH, note,
    )


# the factorial-coefficient polynomials f_0..f_5 as printed in tables 6, 7 and 11
_FPOLY = ("0", "1_1", "1_1_2", "1_1_2_6", "1_1_2_6_24", "1_1_2_6_24_120")
_FPOLY_NOTE = {0: "the constant term 0! never vanishes"}


# ---------------------------------------------------------------- section 1


def table1_rows() -> list[DiscrepancyReport]:
    """Headline table: factorials, left factorials and their companions."""
    loc = "sec1.table1"
    half = Fraction(1, 2)
    bells = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    return [
        *_column("table1.nfact", loc, (1, 1, 2, 6, 24, 120, 720, 5040, 40320), factorial),
        *_column("table1.kurepa", loc, (1, 2, 4, 10, 34, 154, 874, 5914), left_factorial,
                 start=1),
        *_column("table1.alt", loc, (1, 0, 2, -4, 20, -100, 620, -4420), alt_left_factorial,
                 start=1, note="row header reads (-1)^n !n; cells follow the alternating sum"),
        *_column("table1.diff", loc, (1, 0, 0, 2, 14, 86, 566, 4166, 34406),
                 lambda n: factorial(n) - _lf0(n)),
        *_column("table1.sum", loc, (1, 2, 4, 10, 34, 154, 874, 5914, 46234),
                 lambda n: _lf0(n) + factorial(n)),
        *_column("table1.halfdiff", loc, (half, 0, 0, 1, 7, 43, 283, 2083, 17203),
                 lambda n: Fraction(factorial(n) - _lf0(n), 2),
                 note="row header reads (!n - n!)/2; cells follow (n! - !n)/2"),
        *_column("table1.r", loc, (half, 1, 2, 5, 17, 77, 437, 2957),
                 lambda n: Fraction(left_factorial(n), 2), start=1),
        *_column("table1.gcd", loc, (1, 1, 2, 2, 2, 2, 2, 2, 2),
                 lambda n: math.gcd(_lf0(n), factorial(n))),
        *_column("table1.twor", loc, (1, 2, 4, 10, 34, 154, 874, 5914),
                 lambda n: 2 * Fraction(left_factorial(n), 2), start=1),
        *_column("table1.der", loc, (1, 0, 1, 2, 9, 44, 265, 1854, 14833), derangement),
        *_column("table1.bell", loc, bells, bell),
        *_column("table1.dob", loc, [EScaled(c, 1) for c in bells], dobinski),
        *_column("table1.invbell", loc, (1, -1, 0, 1, 1, -2, -9, -9, 50), complementary_bell),
    ]


def congruence_rows() -> list[DiscrepancyReport]:
    """Left factorial to Bell congruence !p = B_(p-1) - 1 mod p at sample primes.

    The two sides come from two algorithms that share no arithmetic.
    """
    note = "claimed side is the Bell residue, computed side the direct left factorial residue"
    return [
        compare(f"congruence.bell.p{p}", "sec1.congruence", (bell_mod(p - 1, p) - 1) % p,
                left_factorial_mod(p), note)
        for p in CONGRUENCE_PRIMES
    ]


# ---------------------------------------------------------------- section 2


def foundation_rows() -> list[DiscrepancyReport]:
    """Consecutive factorial sums at k = 0 and the signed Dobinski value list."""
    sums = [
        compare(f"sec2.consecutive.k0.n{n}", "sec2.sums", left_factorial(n),
                consecutive_factorial_sum(0, n))
        for n in (1, 5, 8, 12)
    ]
    inv = [EScaled(c, -1) for c in (-1, 0, 1, 1, -2, -9, -9)]
    return sums + _column("sec2.invdob", "sec2.invdob", inv, inv_dobinski, start=1,
                          note={2: "zero stores no e power"})


# ---------------------------------------------------------------- section 3


_FIXTURE_LOCATIONS = (
    ("thm3.18", "sec3.theorem3.18"),
    ("thm3.8", "sec3.theorem3.8"),
    ("thm3.9", "sec3.theorem3.9"),
    ("thm6.20", "sec6.theorem6.20"),
    ("thm6.7", "sec6.theorem6.7"),
    ("t2", "sec3.table2"),
    ("t3", "sec3.table3"),
)

_FIXTURE_NOTES = {
    "t2.k8e": "printed terms give 40 dob_4 + dob_5 = 652e",
    "t3.k8": "printed terms give 40 bell_4 + bell_5 = 652",
    "thm3.8.kseq8e": "printed coefficients sum to 1731, not the cumulative 6993",
    "thm3.9.kseq8": "printed coefficients sum to 1731, not the cumulative 6993",
    "thm3.9.kseq8.alt": "adjacent printed reading with 5 on index 2; sums to 1725",
    "thm3.18.aseq5": "terms track the alternating entries one past the stated range",
    "thm6.7.kseq4": "printed expansion sums to 21, one bell_2 beyond the target 17",
    "thm6.20.kseq5": "printed expansion sums to 47 against the target 51",
}


def decomposition_rows() -> list[DiscrepancyReport]:
    """Every published decomposition row from the bundled fixture file.

    The terms are re-summed as printed, repeated indices included; nothing
    is normalized before the comparison.
    """
    out = []
    for label, value, basis, terms in load_fixtures():
        location = next(
            (loc for prefix, loc in _FIXTURE_LOCATIONS if label.startswith(prefix + ".")),
            "adhoc",
        )
        total = sum(c * basis_coefficient(basis, i) for i, c in terms)
        out.append(compare(label, location, value, total, _FIXTURE_NOTES.get(label, "")))
    return out


# ---------------------------------------------------------------- section 4


def table4_rows() -> list[DiscrepancyReport]:
    """Alternating sums, left factorials, top-anchored alternating factorials."""
    loc = "sec4.table4"
    return [
        *_column("table4.asum", loc, (0, 1, 0, 2, -4, 20, -100, 620, -4420, 35900, -326980),
                 alt_left_factorial),
        *_column("table4.kurepa", loc, (0, 1, 2, 4, 10, 34, 154, 874, 5914, 46234, 409114),
                 _lf0, note={0: "empty left factorial taken as 0"}),
        *_column("table4.guy", loc, (0, 1, 1, 5, 19, 101, 619, 4421, 35899, 326981, 3301819),
                 guy_alternating, note="column header indexes n+1; cells follow index n"),
        *_column("table4.wagstaff", loc, (0, 0, 1, 3, 9, 33, 153, 873, 5913, 46233, 409113),
                 lambda n: _lf0(n) - 1 if n == 0 else wagstaff(n),
                 note={0: "empty left factorial minus one is -1"}),
    ]


def table5_rows() -> list[DiscrepancyReport]:
    """Index alignment: the f value one step down equals the left factorial."""
    return [
        compare(f"table5.align.n{n}", "sec4.table5", left_factorial(n), factorial_sum(n - 1))
        for n in range(2, 9)
    ]


def table6_rows() -> list[DiscrepancyReport]:
    """Fubini polynomials beside the factorial-coefficient polynomials."""
    loc = "sec4.table6"
    fub = ((1,), (0, 1), (0, 1, 2), (0, 1, 6, 6), (0, 1, 14, 36, 24), (0, 1, 30, 150, 240, 120))
    return [
        *_column("table6.fubini", loc, fub, fubini_poly, cell=_poly),
        *_column("table6.fpoly", loc, _FPOLY, _kpoly, note=_FPOLY_NOTE, cell=str),
    ]


def table7_rows() -> list[DiscrepancyReport]:
    """Half polynomials and values beside the full ones."""
    loc = "sec4.table7"
    h = Fraction(1, 2)
    rpoly = ((0,), (h, h), (h, h, 1), (h, h, 3, 3), (h, h, 3, 3, 12), (h, h, 3, 3, 12, 60))
    misprint = "printed x^2 coefficient 3; half of 2! is 1"
    return [
        *_column("table7.rpoly", loc, rpoly,
                 lambda n: [Fraction(c, 2) for c in kurepa_poly(n)], cell=_poly,
                 note={0: "zero against half the constant term", 3: misprint, 4: misprint,
                       5: misprint}),
        *_column("table7.r", loc, (0, 1, 2, 5, 17, 77), half_left_factorial),
        *_column("table7.fpoly", loc, _FPOLY, _kpoly, note=_FPOLY_NOTE, cell=str),
        *_column("table7.f", loc, (0, 2, 4, 10, 34, 154), factorial_sum),
    ]


def equivalence_rows() -> list[DiscrepancyReport]:
    """The halving equivalence: proof table columns plus the linked gcd chain."""
    loc = "sec4.theorem4.17.table"
    half = Fraction(1, 2)

    def chain(n):
        # gcd(F_n, (n+1)!) = 2, gcd(r_n, (n+1)!/2) = 1, and the first is twice the second
        g1 = math.gcd(factorial_sum(n), factorial(n + 1))
        g2 = math.gcd(half_left_factorial(n), factorial(n + 1) // 2)
        return f"{g1}_{g2}_{'linked' if g1 == 2 * g2 else 'unlinked'}"

    return [
        *_column("thm4.17.nfact", loc, (1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800),
                 factorial),
        *_column("thm4.17.t", loc,
                 (half, 1, 3, 12, 60, 360, 2520, 20160, 181440, 1814400, 19958400),
                 lambda n: Fraction(factorial(n + 1), 2), note={10: "printed in scientific form"}),
        *_column("thm4.17.f", loc, (2, 4, 10, 34, 154, 874, 5914, 46234, 409114, 4037914),
                 factorial_sum, start=1),
        *_column("thm4.17.r", loc, (1, 2, 5, 17, 77, 437, 2957, 23117, 204557, 2018957),
                 half_left_factorial, start=1),
        *_column("thm4.17.gcdrt", loc, (1,) * 10,
                 lambda n: math.gcd(half_left_factorial(n), factorial(n + 1) // 2), start=1),
        *_column("thm4.17.binary", loc, (2,) * 9,
                 lambda n: gcd_stein(factorial_sum(n), factorial(n + 1)), start=2),
        *_column("equivalence.chain", "sec4.theorem4.17", ("2_1_linked",) * 10, chain, start=1,
                 cell=str),
    ]


def corollary_poly_rows() -> list[DiscrepancyReport]:
    """Polynomial evaluations at 1 and -1 from the two worked corollaries."""
    loc = "sec4.corollary"
    return [
        *_column("cor.fone", loc, (2, 4, 10, 34, 154), lambda n: _at(kurepa_poly(n), 1),
                 start=1),
        *_column("cor.fminusone", loc, (0, 2, 4, 20, -100), lambda n: _at(kurepa_poly(n), -1),
                 start=1, note={3: "printed as the sum 1-1+2-6"}),
    ]


def table8_rows() -> list[DiscrepancyReport]:
    """Evaluations of the factorial-coefficient polynomial at 1 and -1."""
    loc = "sec4.table8"
    return [
        *_column("table8.fone", loc, (1, 2, 4, 10, 34, 154, 874, 5914, 46234),
                 lambda n: _at(kurepa_poly(n), 1)),
        *_column("table8.fminusone", loc, (0, 1, 0, 2, -4, 20, -100, 620, -4420),
                 lambda n: _at(kurepa_poly(n), -1),
                 note="printed cells sit one index below the evaluation"),
    ]


def table9_rows() -> list[DiscrepancyReport]:
    """gcd columns of the alternating-sum table, both index readings."""
    loc = "sec4.table9"

    def gcd_at(n):
        return math.gcd(abs(alt_left_factorial(n)), left_factorial(n))

    return [
        *_column("table9", loc, (1,) + (2,) * 9, gcd_at, start=1),
        *_column("table9.next", loc, (1, 2, 2, 2, 2, 2, 2, 2, 2, 2), lambda n: gcd_at(n + 1),
                 start=1, note={1: "gcd(0, 2) is 2"}),
    ]


def table10_rows() -> list[DiscrepancyReport]:
    """The altered-sequence table: shifts, differences, and small offsets."""
    loc = "sec4.table10"
    f = factorial_sum
    return [
        *_column("table10.f", loc, (0, 2, 4, 10, 34, 154, 874, 5914, 46234), f),
        *_column("table10.f2n", loc,
                 (0, 4, 34, 874, 46234, 4037914, 522956314, 93928268314, 22324392524314),
                 lambda n: f(2 * n)),
        *_column("table10.fnext", loc, (2, 4, 10, 34, 154, 874, 5914, 46234, 409114),
                 lambda n: f(n + 1)),
        *_column("table10.fnext2", loc, (4, 10, 34, 154, 874, 5914, 46234, 409114, 4037914),
                 lambda n: f(n + 2)),
        *_column("table10.diff2", loc, (2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800),
                 lambda n: f(n + 2) - f(n + 1)),
        *_column("table10.diff1", loc, (1, 2, 6, 24, 120, 720, 5040, 40320, 362880),
                 lambda n: f(n + 1) - f(n),
                 note="f_1 - f_0 = 2; the row label (n+1)! gives 1 at the origin"),
        *_column("table10.fplus1", loc, (1, 3, 5, 11, 35, 155, 875, 5915, 46235),
                 lambda n: f(n) + 1),
        *_column("table10.a", loc, (1, 1, 5, 9, 35, 153, 875, 5913, 46235),
                 lambda n: f(n) + (-1) ** n),
        *_column("table10.fplus2", loc, (2, 4, 6, 12, 36, 156, 876, 5916, 46236),
                 lambda n: f(n) + 2),
        *_column("table10.fminus2", loc, (-2, 0, 2, 8, 32, 152, 872, 5912, 46232),
                 lambda n: f(n) - 2),
        *_column("table10.nextplus1", loc, (2, 3, 5, 11, 35, 155, 875, 5915, 46235),
                 lambda n: f(n + 1) + 1,
                 note={0: "printed cell is f_1 = 2, without the added 1",
                       **dict.fromkeys(range(1, 9), "printed row repeats f_n + 1 rather than "
                                                    "advancing the index")}),
        *_column("table10.nextminus1", loc, (1, 3, 9, 33, 153, 873, 5913, 46233, 409113),
                 lambda n: f(n + 1) - 1),
        *_column("table10.anext", loc, (1, 5, 9, 35, 153, 875, 5913, 46235, 409113),
                 lambda n: f(n + 1) + (-1) ** (n + 1)),
        *_column("table10.bnext", loc, (3, 3, 11, 33, 155, 873, 5915, 46233, 409115),
                 lambda n: f(n + 1) - (-1) ** (n + 1)),
        *_column("table10.nextplus2", loc, (4, 6, 12, 36, 156, 876, 5916, 46236, 409116),
                 lambda n: f(n + 1) + 2),
        *_column("table10.nextminus2", loc, (0, 2, 8, 32, 152, 872, 5912, 46232, 409112),
                 lambda n: f(n + 1) - 2),
        # rows published only from n = 1 (the n = 0 cell prints NA)
        *_column("table10.fminus1", loc, (1, 3, 9, 33, 153, 873, 5913, 46233),
                 lambda n: f(n) - 1, start=1),
        *_column("table10.b", loc, (3, 3, 11, 33, 155, 873, 5915, 46233),
                 lambda n: f(n) - (-1) ** n, start=1),
    ]


def fourpart_rows() -> list[DiscrepancyReport]:
    """Four consecutive-gcd statements checked over n = 0..10."""
    loc = "sec4.theorem4.28"
    f = factorial_sum
    out = []
    for n in range(11):
        out.append(compare(f"fourpart.p1.n{n}", loc, 2, math.gcd(f(n + 1), f(n))))
        out.append(compare(f"fourpart.p2.n{n}", loc, 2, math.gcd(f(n + 2), f(n + 1))))
        g1 = math.gcd(f(n), f(n + 1) - f(n))
        g2 = math.gcd(f(n), factorial(n + 1))
        note = "f_1 - f_0 = 2 while 1! = 1; the chain splits at the origin" if n == 0 else ""
        out.append(compare(f"fourpart.p3.n{n}", loc, "2_2", f"{g1}_{g2}", note))
        window = f(n)
        for r in range(1, 4):
            window = math.gcd(window, f(n + r))
        out.append(compare(f"fourpart.p4.n{n}", loc, 2, window))
    return out


# the published piecewise claims of the shift lemmas for n = 0..20, by shift a
_ALTERED = (
    (2, "sec4.lemma4.30", (1, 2, 12, 12, 12, 12, 6) + (12,) * 14),
    (3, "sec4.lemma4.31", (1,) * 11 + (13,) * 10),
    (4, "sec4.lemma4.32", (1,) + (2,) * 20),
    (5, "sec4.lemma4.33", (1, 1) + (3,) * 19),
)


def altered_rows() -> list[DiscrepancyReport]:
    """Constant-offset gcd lemmas plus the boundedness conjecture itself.

    For a = 3 the scan is repeated under the one-off origin convention (the
    raw left factorial rather than the factorial sum), because the published
    threshold sits between the two; both scans are reported.
    """
    out = []
    for a, loc, cells in _ALTERED:
        scan = [row.value for row in scan_altered(a, range(len(cells)))]
        out += _column(f"altered.a{a}", loc, cells, scan.__getitem__)
        if a == 3:
            out += _column("altered.a3.shifted", loc, cells[1:],
                           lambda n: math.gcd(left_factorial(n) + 3, left_factorial(n + 1) + 3),
                           start=1, note="origin shifted one step down")
    loc = "sec4.conjecture4.41"
    for a in (0, 4):
        violations = [
            (row.n, row.value)
            for row in scan_altered(a, range(1, CONJECTURE_SCAN_MAX + 1))
            if row.value > 2
        ]
        if violations:
            first_n, first_g = violations[0]
            computed = f"exceeded_at_n{first_n}"
            note = "values above 2: " + ", ".join(
                f"n={n} gcd={g}" for n, g in violations
            ) + f" (scan 1..{CONJECTURE_SCAN_MAX})"
        else:
            computed = "bounded_by_2"
            note = f"scan 1..{CONJECTURE_SCAN_MAX}"
        out.append(compare(f"conjecture.bound.a{a}", loc, "bounded_by_2", computed, note))
    return out


def ab_rows() -> list[DiscrepancyReport]:
    """Parity-offset sequences A_n = f_n + (-1)^n and B_n = f_n - (-1)^n, and their gcds."""
    f = factorial_sum

    def a(n):
        return f(n) + (-1) ** n

    def b(n):
        return f(n) - (-1) ** n

    return [
        *_column("aseq.gcd", "sec4.theorem4.37", (1,) * 11, lambda n: math.gcd(a(n), a(n + 1))),
        *_column("bseq.gcd", "sec4.theorem4.38", (3, 3, 1, 11) + (1,) * 7,
                 lambda n: math.gcd(b(n), b(n + 1))),
        *_column("abpair.gcd", "sec4.lemma4.39", (2,) + (1,) * 10, lambda n: math.gcd(a(n), b(n))),
        *_column("pmpair.gcd", "sec4.lemma4.39", (2,) + (1,) * 10,
                 lambda n: math.gcd(f(n) + 1, abs(f(n) - 1)),
                 note={0: "f_0 - 1 is -1; the pair gcd at the origin is 1"}),
    ]


# ---------------------------------------------------------------- section 5


def kurepa_poly_rows() -> list[DiscrepancyReport]:
    """The polynomial definition list and the table that follows it."""
    printed = ("1", "1_1", "1_1_2", "1_1_2_6", "1_1_2_6_24", "1_1_2_6_24_120",
               "1_1_2_6_24_120_720", "1_1_2_6_24_120_720_5040")
    loc = "sec5.table11"
    return [
        *_column("deflist.kpoly", "sec5.definition", printed,
                 lambda n: "0" if n == 0 else _kpoly(n - 1), cell=str,
                 note="printed list runs one index past the stated upper limit n-1"),
        *_column("table11.kpoly", loc, printed[:6], lambda n: _kpoly(n - 1), start=1, cell=str),
        *_column("table11.fpoly", loc, _FPOLY, _kpoly, note=_FPOLY_NOTE, cell=str),
    ]


def log_rows() -> list[DiscrepancyReport]:
    """Logarithm identity for the summed sequence at small n, and its n = 5 aggregate.

    The published identity equates the sum of per-term logs with
    ln(sequence sum) + n. Summing logs telescopes to ln(product of terms) + n,
    so the product reading is the one that holds; each row's note records
    whether it does at the same tolerance.
    """
    out = []
    with localcontext() as ctx:
        ctx.prec = _NEAR_DIGITS + GUARD_DIGITS
        tol = Decimal("1e-25")
        for n in range(1, 9):
            values = [left_factorial(k) for k in range(1, n + 1)]
            lhs = sum(Decimal(v).ln() + 1 for v in values)
            product_ok = _agree(lhs, Decimal(math.prod(values)).ln() + n, tol)
            out.append(_near(f"log.identity.n{n}", "sec5.lemma5.1",
                             Decimal(sum(values)).ln() + n, lhs, tol,
                             f"product-reading {'holds' if product_ok else 'fails'} "
                             "at the same tolerance"))
        # the worked n = 5 aggregate: ln of the sum against 3 ln 2 + sum of
        # coefficient-weighted Bell logs, the grouping the proof prints
        lhs = Decimal(kurepa_sequence_sum(5)).ln()
        rhs = 3 * Decimal(2).ln() + sum(c * Decimal(bell(i)).ln()
                                        for i, c in ((1, 1), (2, 3), (3, 1), (4, 1)))
        out.append(_near("log.aggregate.n5", "sec5.theorem5.2", lhs, rhs, tol,
                         "per-term product expansions are exact; the printed "
                         "aggregation splits logs of sums"))
    return out


# ---------------------------------------------------------------- section 6


def table12_rows() -> list[DiscrepancyReport]:
    """Touchard polynomials and the normally ordered coefficient vectors."""
    loc = "sec6.table12"
    touch = ((1,), (0, 1), (0, 1, 1), (0, 1, 3, 1), (0, 1, 7, 6, 1))
    return [
        *_column("table12.touchard", loc, touch, touchard_poly, cell=_poly),
        *_column("table12.ordering", loc, ("1", "1_1", "0_1_1", "0_1_3_1", "0_1_7_6_1"),
                 lambda n: _weights(normal_ordering, n), cell=str,
                 note={1: "printed operator form carries a constant 1; the k=0 weight is 0"}),
    ]


def table13_rows() -> list[DiscrepancyReport]:
    """Signed ordering vectors against the positive-leading convention."""
    sign = "printed signs follow (-1)^k; odd orders differ by a global sign"
    return _column("table13.invordering", "sec6.table13",
                   ("1", "0_-1", "0_-1_1", "0_-1_3_-1", "0_-1_7_-6_1"),
                   lambda n: _weights(antinormal_ordering, n), note={1: sign, 3: sign}, cell=str)


def kad_rows() -> list[DiscrepancyReport]:
    """The grouped signed aggregate printed for the alternating sum at n = 5."""
    cb = complementary_bell
    grouped = cb(0) + cb(2) - 2 * cb(3) - 52 * (cb(5) + 20 * cb(4))
    note = ("the grouped line weights invbell_4 by 52*20; the section 3 "
            "reading of the same aggregate is kept as a fixture")
    return [compare("sec6.kad.aseq5", "sec6.kad", -alt_kurepa_sequence_sum(5), grouped, note)]


def fermi_rows() -> list[DiscrepancyReport]:
    """Shifted-exponent values and their printed aggregate through n = 8."""
    loc = "sec6.fermi"
    agg = fermi(1) + 8 * fermi(2) + 2 * fermi(3) + 56 * fermi(4) + fermi(5) + 4 * fermi(6)
    cells = [EScaled(c, 2) for c in (1, 2, 5, 15, 52, 203, 877)]
    return _column("fermi", loc, cells, fermi, start=1) + [
        compare("sec6.fermiagg.kseq8", loc, _c(EScaled(kurepa_sequence_sum(8), 2)), _c(agg),
                "printed coefficients reproduce the bell-basis proof sum 1731")
    ]


def gas_rows() -> list[DiscrepancyReport]:
    """Two-column gas table: the same coefficients under e and e^2."""
    loc = "sec6.lemma6.12"
    out = []
    for n, cell in enumerate((1, 1, 2, 5)):
        out.append(compare(f"gas.coeff.n{n}", loc, cell, bell(n)))
        out.append(compare(f"gas.boson.n{n}", loc, _c(EScaled(cell, 1)), _c(dobinski(n))))
        out.append(compare(f"gas.fermion.n{n}", loc, _c(EScaled(cell, 2)), _c(fermi(n))))
    return out


def physics_rows() -> list[DiscrepancyReport]:
    """Exact diagonal identities plus the numeric occupation and growth checks."""
    def power_gap(n):
        # m^n = sum_k S(n,k) falling(m,k) at every Fock state m = 0..12
        expansion = normal_ordering(n)
        bad = next((m for m in range(13) if expansion.eval_at(m) != m**n), None)
        return "exact" if bad is None else f"fails_at_m{bad}"

    out = _column("ordering.diagonal", "sec6.1", ("exact",) * 6, power_gap, start=1,
                  note="checked m = 0..12", cell=str)
    for n, m in ((4, 0), (4, 1), (4, 3), (4, 10), (8, 5)):
        # the greedy Bell split of the summed left factorials, one expansion
        # per term: each collapses to m^index at Fock state m
        terms = greedy_bell_decomposition(kurepa_sequence_sum(n))
        out.append(compare(f"ordering.kurepa.n{n}.m{m}", "sec6.theorem6.7",
                           sum(c * m**i for i, c in terms),
                           sum(c * normal_ordering(i).eval_at(m) for i, c in terms)))
    with localcontext() as ctx:
        ctx.prec = _NEAR_DIGITS + GUARD_DIGITS
        for x in PLANCK_SAMPLE_X:
            # n(x) = 1/(e^x - 1) against 1/ln B(x), B the Bell EGF e^(e^x - 1)
            direct, through_egf, rel = planck_routes(x)
            out.append(_near(f"occupation.planck.x{float(x)}", "sec6.proposition6.15", direct,
                             through_egf, Decimal("1e-28"),
                             f"relative difference {format_significant(rel, 3)}"))
    out.extend(debruijn_bound_check(n) for n in DEBRUIJN_SAMPLE_N)
    return out


# ---------------------------------------------------------------- aggregate


def full_report() -> list[DiscrepancyReport]:
    """Every catalogued claim, in source order."""
    out = []
    out.extend(table1_rows())
    out.extend(congruence_rows())
    out.extend(foundation_rows())
    out.extend(decomposition_rows())
    out.extend(table4_rows())
    out.extend(table5_rows())
    out.extend(table6_rows())
    out.extend(table7_rows())
    out.extend(equivalence_rows())
    out.extend(corollary_poly_rows())
    out.extend(table8_rows())
    out.extend(table9_rows())
    out.extend(table10_rows())
    out.extend(fourpart_rows())
    out.extend(altered_rows())
    out.extend(ab_rows())
    out.extend(kurepa_poly_rows())
    out.extend(log_rows())
    out.extend(table12_rows())
    out.extend(table13_rows())
    out.extend(kad_rows())
    out.extend(fermi_rows())
    out.extend(gas_rows())
    out.extend(physics_rows())
    return out

