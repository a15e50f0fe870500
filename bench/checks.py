"""Checks of one round's outputs against oracles.py and reference.json.

check_outputs returns a list of problems; an empty list means every
output of the round is correct. Nothing here imports kurepa.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REPORT_CLAIMS = 798
# rows that state a bound, not a value: status is match when computed <= claimed
BOUND_CLAIM_PREFIX = "growth.debruijn."
# md5 of `kurepa report --format csv`; refactors must keep these bytes
REPORT_CSV_MD5 = "33affc09420c27073fa96628d3833ba0"
SAMPLED_PRIMES = 3
TOUCHARD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class Oracles:
    """Oracle tables, each grown once to the largest index any check asks for."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._bells: list[int] = []
        self._lf: list[int] = []
        self._cbell: list[int] = []
        self._der: list[int] = []

    def bells(self, n: int) -> list[int]:
        if len(self._bells) <= n:
            self._bells = oracles.bell_numbers(n)
            for p in self.rng.sample(TOUCHARD_PRIMES, 3):
                if not oracles.touchard_holds(self._bells, p):
                    raise AssertionError(f"oracle Bell triangle breaks Touchard's congruence mod {p}")
        return self._bells

    def left_factorials(self, n: int) -> list[int]:
        if len(self._lf) <= n:
            self._lf = oracles.left_factorials(n)
        return self._lf

    def complementary_bells(self, n: int) -> list[int]:
        if len(self._cbell) <= n:
            self._cbell = oracles.complementary_bells(n)
        return self._cbell

    def derangements(self, n: int) -> list[int]:
        if len(self._der) <= n:
            self._der = oracles.derangements(n)
        return self._der


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def lines_of(text: str) -> list[str]:
    return text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")


def expected_residues(lo: int, hi: int, reference: dict) -> list[tuple[int, int]]:
    """(p, !p mod p) for every prime in [lo, hi): from reference.json where it covers the range, else the oracle loop."""
    search, frontier = reference["search"], reference["frontier"]
    if lo == search["lo"] and search["hi"] <= hi <= search["tail_hi"]:
        return [(p, r) for p, r in search["tail"] if p < hi]
    if frontier["lo"] <= lo and hi <= frontier["hi"]:
        return [(p, r) for p, r in frontier["residues"] if lo <= p < hi]
    return [(p, oracles.left_factorial_mod(p)) for p in oracles.primes_in(lo, hi)]


def check_verify(argv, text, checkpoint_path, reference, orc) -> list[str]:
    lo, hi = int(argv[1]), int(argv[2])
    got = json.loads(text)
    search = reference["search"]
    pairs = expected_residues(lo, hi, reference)
    if lo == search["lo"] and search["hi"] <= hi <= search["tail_hi"]:
        hist = [a + b for a, b in zip(search["histogram"], oracles.histogram(pairs))]
        zeros = search["zeros"] + [p for p, r in pairs if r == 0]
        count = search["primes"] + len(pairs)
    else:
        hist = oracles.histogram(pairs)
        zeros = [p for p, r in pairs if r == 0 and p > 2]
        count = len(pairs)
    problems = []
    # guard reference.json itself: recompute a seeded sample of its residues with the oracle loop
    for p, r in orc.rng.sample(pairs, min(SAMPLED_PRIMES, len(pairs))):
        if oracles.left_factorial_mod(p) != r:
            problems.append(f"reference residue of {p} is wrong")
    if count != len(oracles.primes_in(lo, hi)):
        problems.append(f"reference prime count {count} differs from the sieve")
    want_hist = hist if "--histogram" in argv else None
    if zeros:
        problems.append(f"the oracle found counterexamples {zeros}; the reference needs a look")
    if got.get("counterexamples") != []:
        problems.append(f"counterexamples {got.get('counterexamples')}, expected none")
    if (got.get("lo"), got.get("hi"), got.get("last_completed"), got.get("finished")) != (lo, hi, hi, True):
        problems.append("verify did not finish the whole range")
    if got.get("histogram") != want_hist:
        problems.append("histogram differs from the oracle residues")
    if want_hist is not None and sum(got.get("histogram") or []) != count:
        problems.append("histogram total differs from the prime count")
    if checkpoint_path is not None:
        ck = json.loads(read(checkpoint_path))
        if not ck.get("finished") or ck.get("histogram") != want_hist or ck.get("last_completed") != hi:
            problems.append("final checkpoint does not match the finished search")
    return problems


def check_seq(argv, text, orc) -> list[str]:
    name, lo, hi = argv[1], int(argv[2]), int(argv[3])
    if name == "bell":
        want = orc.bells(hi)
    elif name == "left_factorial":
        want = orc.left_factorials(hi)
    elif name == "derangement":
        want = orc.derangements(hi)
    elif name == "invbell":
        want = orc.complementary_bells(hi)
    elif name == "dobinski":
        want = [f"{b}*e^1" for b in orc.bells(hi)]
    else:
        return [f"no oracle for seq {name}"]
    got = lines_of(text)
    expect = want[lo : hi + 1]
    parsed = got if name == "dobinski" else [int(x) for x in got]
    if parsed != expect:
        bad = next((lo + i for i, (a, b) in enumerate(zip(parsed, expect)) if a != b), lo + min(len(parsed), len(expect)))
        return [f"seq {name} differs from the oracle at n = {bad}"]
    return []


def check_gcd_scan(argv, text) -> list[str]:
    a, n_max = int(argv[1]), int(argv[2])
    want = [f"{n} {g}" for n, g in enumerate(oracles.shifted_gcds(a, n_max))]
    got = lines_of(text)
    if got != want:
        bad = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        return [f"gcd-scan {a} differs from the oracle at row {bad}"]
    return []


def check_decomp(argv, text, orc) -> list[str]:
    target = int(argv[1])
    csv = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    rows = lines_of(text)
    if csv:
        if rows[0] != "basis,index,coefficient,value":
            return ["decomp csv header changed"]
        cells = [row.split(",") for row in rows[1:]]
        terms = [(int(idx), int(q)) for _, idx, q, _ in cells]
    else:
        terms = []
        for row in rows:
            q, _, idx = row.partition("*bell_")
            terms.append((int(idx), int(q)))
    if not terms:
        return ["decomp returned no terms"] if target else []
    bells = orc.bells(terms[0][0] + 1)
    problems = oracles.greedy_decomposition_errors(target, terms, bells)
    if csv and any(c[0] != "bell" or int(c[3]) != bells[int(c[1])] for c in cells):
        problems.append("decomp value column differs from the oracle Bell numbers")
    return problems


def report_oracle(claim_id: str, orc) -> str | None:
    """The oracle's value for one report cell, for the families it covers."""
    family, _, index = claim_id.rpartition(".n")
    if not index.isdigit():
        return None
    n = int(index)
    if family == "table1.nfact":
        return str(math.factorial(n))
    if family in ("table1.kurepa", "table4.kurepa"):
        return str(orc.left_factorials(n)[n])
    if family == "table1.sum":
        return str(orc.left_factorials(n + 1)[n + 1])
    if family == "table1.bell":
        return str(orc.bells(n)[n])
    if family == "table1.dob":
        return f"{orc.bells(n)[n]}*e^1"
    if family == "table1.der":
        return str(orc.derangements(n)[n])
    if family == "table1.invbell":
        return str(orc.complementary_bells(n)[n])
    return None


def check_report(text, orc) -> list[str]:
    rows = lines_of(text)
    if rows[0] != "claim_id,location,claimed,computed,status":
        return ["report csv header changed"]
    cells = [row.split(",") for row in rows[1:]]
    problems = []
    if len(cells) != REPORT_CLAIMS or len({c[0] for c in cells}) != REPORT_CLAIMS:
        problems.append(f"report has {len(cells)} rows, expected {REPORT_CLAIMS} distinct claims")
    for c in cells:
        if len(c) != 5 or not c[2] or not c[3]:
            problems.append(f"report row {c[0]} lost a value")
            continue
        if c[0].startswith(BOUND_CLAIM_PREFIX):
            ok = (c[4] == "match") == (float(c[3]) <= float(c[2]))
        else:
            ok = c[4] in ("match", "mismatch") and (c[4] == "match") == (c[2] == c[3])
        if not ok:
            problems.append(f"report row {c[0]} has status {c[4]} for {c[2]} vs {c[3]}")
    for c in cells:
        want = report_oracle(c[0], orc) if len(c) == 5 else None
        if want is not None and c[3] != want:
            problems.append(f"report cell {c[0]} computed {c[3]}, oracle {want}")
    if hashlib.md5(text.encode("utf-8")).hexdigest() != REPORT_CSV_MD5:
        problems.append("report csv bytes differ from the pinned golden")
    return problems


def close(text: str, value: float, rel: float = 1e-12) -> bool:
    return math.isclose(float(text), value, rel_tol=rel)


def check_physics(argv, text, orc) -> list[str]:
    rows = [line.split(" ") for line in lines_of(text)]
    mode = argv[1]
    if mode == "occupation":
        ok = len(rows) == 4 and all(
            close(b, 1 / math.expm1(float(x))) and close(f, 1 / (math.exp(float(x)) + 1)) and abs(float(g)) < 1e-20
            for x, b, f, g in rows
        )
    elif mode == "ordering":
        ok = len(rows) == 8
        for n, (idx, normal, anti) in enumerate(rows, start=1):
            s = oracles.stirling2_row(n)[1:]
            ok = ok and idx == str(n)
            ok = ok and normal == "_".join(map(str, s))
            ok = ok and anti == "_".join(str((-1) ** (n - k) * v) for k, v in enumerate(s, start=1))
    else:
        ok = [int(r[0]) for r in rows] == [10, 100, 300, 1000]
        for n_text, bound, diff, status in rows:
            n = int(n_text)
            ln, lln = math.log(n), math.log(math.log(n))
            expansion = ln - lln - 1 + lln / ln + 1 / ln + (lln / ln) ** 2 / 2
            want = abs(math.log(orc.bells(n)[n]) / n - expansion)
            ok = ok and close(diff, want, rel=1e-9) and close(bound, 5 * lln / ln**2, rel=1e-9)
            ok = ok and status == ("match" if float(diff) <= float(bound) else "mismatch")
    return [] if ok else [f"physics {mode} table differs from the oracle"]


def check_log(argv, text, orc) -> list[str]:
    n = int(argv[1])
    base = {"2": 2.0, "10": 10.0}.get(argv[argv.index("--base") + 1] if "--base" in argv else "e", math.e)
    want = math.log(orc.left_factorials(n)[n], base)
    return [] if close(lines_of(text)[0], want) else [f"log {n} differs from the oracle"]


def check_op(argv, text, checkpoint_path, reference, orc) -> list[str]:
    cmd = argv[0]
    if cmd == "verify":
        return check_verify(argv, text, checkpoint_path, reference, orc)
    if cmd == "seq":
        return check_seq(argv, text, orc)
    if cmd == "gcd-scan":
        return check_gcd_scan(argv, text)
    if cmd == "decomp":
        return check_decomp(argv, text, orc)
    if cmd == "report":
        return check_report(text, orc)
    if cmd == "physics":
        return check_physics(argv, text, orc)
    if cmd == "log":
        return check_log(argv, text, orc)
    return [f"no check for {cmd}"]


def label(index: int, argv: list[str]) -> str:
    """How problem messages name an op; long arguments such as a decomp target are cut."""
    return f"op {index} (" + " ".join(a if len(a) <= 24 else a[:12] + "..." for a in argv[:3]) + ")"


def load_reference() -> dict:
    return json.loads(read(REFERENCE_PATH))


def check_outputs(ops, outputs: dict[int, tuple[str, str | None]], seed: int) -> list[str]:
    """outputs maps an op index to (output text, checkpoint path or None)."""
    orc = Oracles(random.Random(f"checks:{seed}"))
    reference = load_reference()
    problems = []
    for index, (text, checkpoint_path) in sorted(outputs.items()):
        problems.extend(f"{label(index, ops[index])}: {p}" for p in check_op(ops[index], text, checkpoint_path, reference, orc))
    return problems
