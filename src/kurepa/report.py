"""Catalogue of published numeric claims, re-checked against exact recomputation.

SECTIONS lists the report's sections in the paper's order, one callable
per table or theorem family, each returning one DiscrepancyReport per
checkable cell; full_report() concatenates them. A section whose cells are
all printed in data/claims.txt is bound by name, as partial(_printed,
"<section>"), and that file's header for it says what it covers; the rest
are functions. Published cells are transcribed verbatim (thousand
separators dropped, scientific notation expanded), nothing is corrected
before comparison, so misprints surface as mismatch rows whose note says
what the recomputation found instead.

This module alone decides which printed cell is checked against which
recomputation, under which claim id and location; the layer modules only
compute. Every printed cell sits in a bundled data file, read line by line
by read_rows. data/claims.txt holds one cell per line: claim id, location,
printed cell and note. The id is a column key and .n<index>, and COLUMNS
maps each column key to its recomputation fn(index), grouped by the
claims-file section that reports it. data/decompositions.txt holds the
published decompositions, whose terms are re-summed as printed.
discrepancy.compare sets the status of each of these rows: match when the
printed cell and the rendered recomputation are the same text.

Rows whose claimed side is itself computed stay in code: the Bell
congruence, the consecutive sums, the table 5 alignment, the grouped
aggregates, the conjecture scans (their notes are computed) and the
diagonal checks of the summed left factorials. So do the real-valued
claims (the log identities, the n = 5 log aggregate and the Planck
occupation rows), which go through _near: it prints both sides to 30
significant digits and matches them by relative agreement. The growth
envelope rows come from physics.debruijn_bound_check, which the `physics
debruijn` table prints too.

Cell rendering (_cell) is shared between the data file and the computed
side: integers print plain, coefficient lists join ascending with
underscores (the empty list "0"), e-scaled values print as "q*e^s", and
strings print as they are. Any other type is an error. The half-integer
columns of the halving equivalence halve an exact integer in _half, which
prints an odd one's half as a decimal ("0.5").
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from decimal import Decimal, localcontext
from functools import cache, partial

from .decomp import (
    alt_kurepa_sequence_sum,
    basis_coefficient,
    greedy_bell_decomposition,
    kurepa_sequence_sum,
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
)
from .verifier import bell_mod, left_factorial_mod

CONGRUENCE_PRIMES = (2, 3, 5, 7, 11, 13, 101, 997)
CONJECTURE_SCAN_MAX = 200
# significant digits the real-valued claims print and compare at
_NEAR_DIGITS = 30

# a plain open, since importlib.resources loads pathlib, tempfile and zipfile
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CLAIMS_PATH = os.path.join(_DATA_DIR, "claims.txt")
_FIXTURES_PATH = os.path.join(_DATA_DIR, "decompositions.txt")


def read_rows(path: str, width: int) -> Iterator[tuple[str, ...]]:
    """Yield each row of a data file as `width` fields followed by its note.

    Fields are separated by whitespace, and the note, possibly empty, is
    the rest of the line. Blank lines and # comments are skipped.
    """
    with open(path, encoding="ascii") as fh:
        for line in fh:
            fields = line.split(None, width)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < width:
                raise ValueError(f"{path}: {line.strip()!r} has fewer than {width} fields")
            yield (*fields[:width], fields[width].rstrip() if len(fields) > width else "")


def _cell(value) -> str:
    """Canonical cell string for str, coefficient list, EScaled or int values."""
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "_".join(map(_cell, value)) or "0"
    if isinstance(value, (int, EScaled)):
        return str(value)
    raise ValueError(f"no canonical cell form for {value!r}")


def _half(x: int) -> str:
    """x / 2 as a cell: an integer when x is even, else the exact half with one decimal place ("0.5")."""
    return f"{'-' * (x < 0)}{abs(x) // 2}.5" if x % 2 else str(x // 2)


def _at(coeffs, x):
    """Horner evaluation of the polynomial with ascending coefficients `coeffs` at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# f_n = !(n+1) for n >= 1 and f_0 = 0: the factorial sum of the section 4 tables
_f = factorial_sum


def _lf0(n: int) -> int:
    # the empty left factorial: tables treat !0 as the empty sum 0
    return 0 if n == 0 else left_factorial(n)


def _weights(ordering, n: int) -> tuple[int, ...]:
    """An ordering expansion as printed: 1 at order 0, else weight 0 then k = 1..n."""
    return (1,) if n == 0 else (0, *ordering(n).coeffs)


def _chain(n: int) -> str:
    # gcd(F_n, (n+1)!) = 2, gcd(r_n, (n+1)!/2) = 1, and the first is twice the second
    g1 = math.gcd(factorial_sum(n), factorial(n + 1))
    g2 = math.gcd(half_left_factorial(n), factorial(n + 1) // 2)
    return f"{g1}_{g2}_{'linked' if g1 == 2 * g2 else 'unlinked'}"


def _alt_gcd(n: int) -> int:
    return math.gcd(abs(alt_left_factorial(n)), left_factorial(n))


def _a(n: int) -> int:
    # A_n = f_n + (-1)^n
    return _f(n) + (-1) ** n


def _b(n: int) -> int:
    # B_n = f_n - (-1)^n
    return _f(n) - (-1) ** n


def _poly_at(x: int):
    # the factorial-coefficient polynomial f_n(x) at a fixed x
    return lambda n: _at(kurepa_poly(n), x)


def _altered(a: int):
    # row n of the shifted gcd scan g_a(n)
    return lambda n: scan_altered(a, (n,))[0].value


def _power_gap(n: int) -> str:
    # m^n = sum_k S(n,k) falling(m,k) at every Fock state m = 0..12
    expansion = normal_ordering(n)
    bad = next((m for m in range(13) if expansion.eval_at(m) != m**n), None)
    return "exact" if bad is None else f"fails_at_m{bad}"


# section -> {column key: recomputation of the cell at index n}; the printed
# cells, locations and notes are the rows of data/claims.txt
COLUMNS = {
    "table1": {
        "table1.nfact": factorial,
        "table1.kurepa": left_factorial,
        "table1.alt": alt_left_factorial,
        "table1.diff": lambda n: factorial(n) - _lf0(n),
        "table1.sum": lambda n: _lf0(n) + factorial(n),
        "table1.halfdiff": lambda n: _half(factorial(n) - _lf0(n)),
        "table1.r": lambda n: _half(left_factorial(n)),
        "table1.gcd": lambda n: math.gcd(_lf0(n), factorial(n)),
        "table1.twor": left_factorial,
        "table1.der": derangement,
        "table1.bell": bell,
        "table1.dob": dobinski,
        "table1.invbell": complementary_bell,
    },
    "foundation": {"sec2.invdob": inv_dobinski},
    "table4": {
        "table4.asum": alt_left_factorial,
        "table4.kurepa": _lf0,
        "table4.guy": guy_alternating,
        "table4.wagstaff": lambda n: _lf0(n) - 1,
    },
    "table6": {"table6.fubini": fubini_poly, "table6.fpoly": kurepa_poly},
    "table7": {
        "table7.rpoly": lambda n: [_half(c) for c in kurepa_poly(n)],
        "table7.r": half_left_factorial,
        "table7.fpoly": kurepa_poly,
        "table7.f": _f,
    },
    "equivalence": {
        "thm4.17.nfact": factorial,
        "thm4.17.t": lambda n: _half(factorial(n + 1)),
        "thm4.17.f": _f,
        "thm4.17.r": half_left_factorial,
        "thm4.17.gcdrt": lambda n: math.gcd(half_left_factorial(n), factorial(n + 1) // 2),
        "thm4.17.binary": lambda n: gcd_stein(_f(n), factorial(n + 1)),
        "equivalence.chain": _chain,
    },
    "corollary_poly": {
        "cor.fone": _poly_at(1),
        "cor.fminusone": _poly_at(-1),
    },
    "table8": {
        "table8.fone": _poly_at(1),
        "table8.fminusone": _poly_at(-1),
    },
    "table9": {"table9": _alt_gcd, "table9.next": lambda n: _alt_gcd(n + 1)},
    "table10": {
        "table10.f": _f,
        "table10.f2n": lambda n: _f(2 * n),
        "table10.fnext": lambda n: _f(n + 1),
        "table10.fnext2": lambda n: _f(n + 2),
        "table10.diff2": lambda n: _f(n + 2) - _f(n + 1),
        "table10.diff1": lambda n: _f(n + 1) - _f(n),
        "table10.fplus1": lambda n: _f(n) + 1,
        "table10.a": _a,
        "table10.fplus2": lambda n: _f(n) + 2,
        "table10.fminus2": lambda n: _f(n) - 2,
        "table10.nextplus1": lambda n: _f(n + 1) + 1,
        "table10.nextminus1": lambda n: _f(n + 1) - 1,
        "table10.anext": lambda n: _a(n + 1),
        "table10.bnext": lambda n: _b(n + 1),
        "table10.nextplus2": lambda n: _f(n + 1) + 2,
        "table10.nextminus2": lambda n: _f(n + 1) - 2,
        "table10.fminus1": lambda n: _f(n) - 1,
        "table10.b": _b,
    },
    "fourpart": {
        "fourpart.p1": lambda n: math.gcd(_f(n + 1), _f(n)),
        "fourpart.p2": lambda n: math.gcd(_f(n + 2), _f(n + 1)),
        "fourpart.p3": lambda n: f"{math.gcd(_f(n), _f(n + 1) - _f(n))}_{math.gcd(_f(n), factorial(n + 1))}",
        "fourpart.p4": lambda n: math.gcd(_f(n), _f(n + 1), _f(n + 2), _f(n + 3)),
    },
    "altered": {
        "altered.a2": _altered(2),
        "altered.a3": _altered(3),
        # the a = 3 scan under the one-off origin convention, the raw left
        # factorial rather than the factorial sum: the published threshold
        # sits between the two
        "altered.a3.shifted": lambda n: math.gcd(left_factorial(n) + 3, left_factorial(n + 1) + 3),
        "altered.a4": _altered(4),
        "altered.a5": _altered(5),
    },
    "ab": {
        "aseq.gcd": lambda n: math.gcd(_a(n), _a(n + 1)),
        "bseq.gcd": lambda n: math.gcd(_b(n), _b(n + 1)),
        "abpair.gcd": lambda n: math.gcd(_a(n), _b(n)),
        "pmpair.gcd": lambda n: math.gcd(_f(n) + 1, abs(_f(n) - 1)),
    },
    "kurepa_poly": {
        "deflist.kpoly": lambda n: kurepa_poly(n - 1) if n else (),
        "table11.kpoly": lambda n: kurepa_poly(n - 1),
        "table11.fpoly": kurepa_poly,
    },
    "table12": {
        "table12.touchard": touchard_poly,
        "table12.ordering": lambda n: _weights(normal_ordering, n),
    },
    "table13": {"table13.invordering": lambda n: _weights(antinormal_ordering, n)},
    "fermi": {"fermi": fermi},
    "gas": {"gas.coeff": bell, "gas.boson": dobinski, "gas.fermion": fermi},
    "physics": {"ordering.diagonal": _power_gap},
}


@cache
def _claims(path: str) -> dict[str, list[tuple]]:
    """The rows of a claims file by section: (claim id, location, cell, note, fn, n)."""
    recompute = {key: (section, fn) for section, cols in COLUMNS.items() for key, fn in cols.items()}
    out = {section: [] for section in COLUMNS}
    for claim_id, location, cell, note in read_rows(path, 3):
        key, _, n = claim_id.rpartition(".n")
        if key not in recompute or not n.isdigit():
            raise ValueError(f"{path}: no recomputation for claim {claim_id}")
        section, fn = recompute[key]
        out[section].append((claim_id, location, cell, note, fn, int(n)))
    return out


def _printed(section: str) -> list[DiscrepancyReport]:
    """One compare() row per printed cell of the section, in file order."""
    return [
        compare(claim_id, location, cell, _cell(fn(n)), note)
        for claim_id, location, cell, note, fn, n in _claims(CLAIMS_PATH)[section]
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


# ---------------------------------------------------------------- section 1


table1_rows = partial(_printed, "table1")


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
    return sums + _printed("foundation")


# ---------------------------------------------------------------- section 3


def load_fixtures() -> list[tuple[str, str, int, str, tuple[tuple[int, int], ...], str]]:
    """Published decomposition rows from data/decompositions.txt.

    Each row is (label, location, value, basis, terms, note), the terms
    being the printed (index, coeff) pairs, written idx:coeff and joined
    with +.
    """
    return [
        (label, location, int(value), basis,
         tuple((int(i), int(c)) for i, c in (t.split(":") for t in terms.split("+"))), note)
        for label, location, value, basis, terms, note in read_rows(_FIXTURES_PATH, 5)
    ]


def decomposition_rows() -> list[DiscrepancyReport]:
    """Every published decomposition row from the bundled fixture file.

    The terms are re-summed as printed, repeated indices included; nothing
    is normalized before the comparison.
    """
    return [
        compare(label, location, value, sum(c * basis_coefficient(basis, i) for i, c in terms), note)
        for label, location, value, basis, terms, note in load_fixtures()
    ]


# ---------------------------------------------------------------- section 4


table4_rows = partial(_printed, "table4")


def table5_rows() -> list[DiscrepancyReport]:
    """Index alignment: the f value one step down equals the left factorial."""
    return [
        compare(f"table5.align.n{n}", "sec4.table5", left_factorial(n), factorial_sum(n - 1))
        for n in range(2, 9)
    ]


table6_rows = partial(_printed, "table6")
table7_rows = partial(_printed, "table7")
equivalence_rows = partial(_printed, "equivalence")
corollary_poly_rows = partial(_printed, "corollary_poly")
table8_rows = partial(_printed, "table8")
table9_rows = partial(_printed, "table9")
table10_rows = partial(_printed, "table10")
fourpart_rows = partial(_printed, "fourpart")


def altered_rows() -> list[DiscrepancyReport]:
    """Constant-offset gcd lemmas plus the boundedness conjecture itself.

    For a = 3 the scan is repeated under the one-off origin convention (the
    raw left factorial rather than the factorial sum), because the published
    threshold sits between the two; both scans are reported.
    """
    out = _printed("altered")
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


ab_rows = partial(_printed, "ab")


# ---------------------------------------------------------------- section 5


kurepa_poly_rows = partial(_printed, "kurepa_poly")


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


table12_rows = partial(_printed, "table12")
table13_rows = partial(_printed, "table13")


def kad_rows() -> list[DiscrepancyReport]:
    """The grouped signed aggregate printed for the alternating sum at n = 5."""
    cb = complementary_bell
    grouped = cb(0) + cb(2) - 2 * cb(3) - 52 * (cb(5) + 20 * cb(4))
    note = ("the grouped line weights invbell_4 by 52*20; the section 3 "
            "reading of the same aggregate is kept as a fixture")
    return [compare("sec6.kad.aseq5", "sec6.kad", -alt_kurepa_sequence_sum(5), grouped, note)]


def fermi_rows() -> list[DiscrepancyReport]:
    """Shifted-exponent values and their printed aggregate through n = 8."""
    agg = EScaled(bell(1) + 8 * bell(2) + 2 * bell(3) + 56 * bell(4) + bell(5) + 4 * bell(6), 2)
    return _printed("fermi") + [
        compare("sec6.fermiagg.kseq8", "sec6.fermi", _cell(EScaled(kurepa_sequence_sum(8), 2)),
                _cell(agg), "printed coefficients reproduce the bell-basis proof sum 1731")
    ]


gas_rows = partial(_printed, "gas")


def physics_rows() -> list[DiscrepancyReport]:
    """Exact diagonal identities plus the numeric occupation and growth checks."""
    out = _printed("physics")
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


# the report's sections in the paper's order, grouped by paper section, 1 to 6
SECTIONS = (
    table1_rows, congruence_rows,
    foundation_rows,
    decomposition_rows,
    table4_rows, table5_rows, table6_rows, table7_rows, equivalence_rows, corollary_poly_rows,
    table8_rows, table9_rows, table10_rows, fourpart_rows, altered_rows, ab_rows,
    kurepa_poly_rows, log_rows,
    table12_rows, table13_rows, kad_rows, fermi_rows, gas_rows, physics_rows,
)


def full_report() -> list[DiscrepancyReport]:
    """Every catalogued claim, section by section in SECTIONS order."""
    return [row for section in SECTIONS for row in section()]
