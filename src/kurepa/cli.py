"""Command line driver for the workbench.

Subcommands cover the sequence tables, greedy Bell decompositions, shifted
gcd scans, the modular counterexample search, the physics identity checks,
and the consolidated discrepancy report. Each one writes a single table to
stdout or --out, rendered as plain text, comma separated values, or a JSON
envelope {command, columns, rows, summary} that validates against
data/output-schema.json.

Exit codes: 0 success, 10 counterexample found, 2 usage, 3 I/O, 130 Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from decimal import localcontext
from typing import Iterable

# SEQUENCES holds functions of sequences and efactor; every other layer is
# imported by the builder that runs it, so a subcommand loads only its own
from .discrepancy import MISMATCH
from .efactor import GUARD_DIGITS, EScaled, dobinski, fermi, format_significant
from .sequences import (
    alt_left_factorial,
    bell,
    complementary_bell,
    derangement,
    factorial,
    guy_alternating,
    half_left_factorial,
    left_factorial,
    wagstaff,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 10
EXIT_USAGE = 2
EXIT_IO = 3
# the shell's code for a process ended by SIGINT (128 + 2)
EXIT_INTERRUPTED = 130

MAX_N_ENV = "KUREPA_MAX_N"
DEFAULT_MAX_N = 5000
ORDERING_MAX_N = 8
# `log 8` and `physics occupation` take under half a second at 1000 digits,
# seconds at 5000 and over a minute at 50000
MAX_DIGITS = 1000

# sequence-id -> (generator, smallest valid index)
SEQUENCES = {
    "factorial": (factorial, 0),
    "left_factorial": (left_factorial, 1),
    "alt_left": (alt_left_factorial, 0),
    "guy_alt": (guy_alternating, 0),
    "wagstaff": (wagstaff, 1),
    "bell": (bell, 0),
    "invbell": (complementary_bell, 0),
    "derangement": (derangement, 0),
    "r": (half_left_factorial, 0),
    "dobinski": (dobinski, 0),
    "fermi": (fermi, 0),
}


class UsageError(Exception):
    """Bad arguments caught after parsing: wrong range, capped size."""


@dataclass
class Table:
    """One subcommand's output: tabular cells plus a plain rendering.

    `plain` may be lazy: only the plain format reads it, so values whose text
    is costly (big ints) are converted once, by whichever renderer runs.
    """

    command: str
    columns: list[str]
    rows: list[list]
    summary: dict
    plain: Iterable[str]
    exit_code: int = EXIT_OK


def _json_cell(cell):
    if isinstance(cell, EScaled):
        return {"coeff": str(cell.coeff), "epower": cell.epower}
    return cell


def render_csv(columns, rows) -> str:
    """Comma separated, no quoting (cells never contain commas), LF endings."""
    lines = [",".join(columns)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    payload = {
        "command": table.command,
        "columns": table.columns,
        "rows": [[_json_cell(cell) for cell in row] for row in table.rows],
        "summary": table.summary,
    }
    return json.dumps(payload, indent=2) + "\n"


def render_plain(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _max_n() -> int:
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError(f"{MAX_N_ENV} must be >= 1")
    return cap


def _check_cap(label: str, n: int) -> None:
    cap = _max_n()
    if n > cap:
        raise UsageError(f"{label} {n} exceeds the cap of {cap}; raise {MAX_N_ENV} to go higher")


def _build_seq(args) -> Table:
    func, min_n = SEQUENCES[args.name]
    if args.n_lo < min_n:
        raise UsageError(f"{args.name} starts at n = {min_n}")
    if args.n_hi < args.n_lo:
        raise UsageError("need n_lo <= n_hi")
    _check_cap("n_hi", args.n_hi)
    ns = range(args.n_lo, args.n_hi + 1)
    values = [func(n) for n in ns]
    return Table(
        command="seq",
        columns=["n", args.name],
        rows=[[n, v] for n, v in zip(ns, values)],
        summary={"sequence": args.name, "n_lo": args.n_lo, "n_hi": args.n_hi, "count": len(values)},
        plain=map(str, values),
    )


def _build_verify(args) -> Table:
    from .verifier import canonical_report, run_search

    if args.lo < 3:
        raise UsageError("lo must be at least 3")
    if args.hi <= args.lo:
        raise UsageError("need lo < hi")
    ck = run_search(
        args.lo,
        args.hi,
        workers=args.workers,
        histogram=args.histogram,
        checkpoint_path=args.checkpoint,
    )
    rows = [
        ["version", ck.version],
        ["lo", ck.lo],
        ["hi", ck.hi],
        ["last_completed", ck.last_completed],
        ["finished", "true" if ck.finished else "false"],
        ["counterexample_count", len(ck.counterexamples)],
    ]
    rows.extend(["counterexample", p] for p in ck.counterexamples)
    if ck.histogram is not None:
        rows.append(["histogram", "_".join(str(c) for c in ck.histogram)])
    return Table(
        command="verify",
        columns=["field", "value"],
        rows=rows,
        summary={"counterexamples": list(ck.counterexamples), "finished": ck.finished},
        plain=[canonical_report(ck)],
        exit_code=EXIT_COUNTEREXAMPLE if ck.counterexamples else EXIT_OK,
    )


def _build_report(args) -> Table:
    from .report import full_report

    reports = full_report()
    return Table(
        command="report",
        columns=["claim_id", "location", "claimed", "computed", "status"],
        rows=[[r.claim_id, r.location, r.claimed, r.computed, r.status] for r in reports],
        summary={
            "total": len(reports),
            "mismatches": sum(1 for r in reports if r.status == MISMATCH),
            # only the JSON envelope shows the notes: csv and plain keep five columns
            "notes": {r.claim_id: r.note for r in reports if r.note},
        },
        plain=[r.as_line() for r in reports],
    )


def _build_decomp(args) -> Table:
    from .decomp import greedy_bell_decomposition

    if args.target < 0:
        raise UsageError("target must be nonnegative")
    terms = greedy_bell_decomposition(args.target)
    return Table(
        command="decomp",
        columns=["basis", "index", "coefficient", "value"],
        rows=[["bell", idx, coeff, bell(idx)] for idx, coeff in terms],
        summary={"target": args.target, "term_count": len(terms)},
        plain=[f"{coeff}*bell_{idx}" for idx, coeff in terms],
    )


def _build_gcd_scan(args) -> Table:
    from .gcdlab import scan_altered

    if args.n_max < 0:
        raise UsageError("n_max must be >= 0")
    _check_cap("n_max", args.n_max)
    scan = scan_altered(args.a, range(args.n_max + 1))
    peak = max(row.value for row in scan)
    return Table(
        command="gcd-scan",
        columns=["n", "gcd"],
        rows=[[row.n, row.value] for row in scan],
        summary={"a": args.a, "n_max": args.n_max, "max_gcd": peak, "bounded_by_2": peak <= 2},
        plain=[f"{row.n} {row.value}" for row in scan],
    )


def _build_physics(args) -> Table:
    from .physics import (
        DEBRUIJN_SAMPLE_N,
        PLANCK_SAMPLE_X,
        antinormal_ordering,
        debruijn_bound_check,
        normal_ordering,
        occupation,
        planck_identity_gap,
    )

    if args.mode == "occupation":
        columns = ["x", "boson", "fermion", "photon_identity_gap"]
        with localcontext() as ctx:
            ctx.prec = args.digits + GUARD_DIGITS
            rows = [
                [
                    format_significant(x, args.digits),
                    format_significant(occupation(x, 1), args.digits),
                    format_significant(occupation(x, -1), args.digits),
                    format_significant(planck_identity_gap(x), args.digits),
                ]
                for x in PLANCK_SAMPLE_X
            ]
        summary = {"mode": "occupation", "samples": len(rows)}
    elif args.mode == "ordering":
        columns = ["n", "normal", "antinormal"]
        rows = []
        for n in range(1, ORDERING_MAX_N + 1):
            nrm = normal_ordering(n)
            anm = antinormal_ordering(n)
            rows.append(
                [
                    n,
                    "_".join(str(nrm.coefficient(k)) for k in range(1, n + 1)),
                    "_".join(str(anm.coefficient(k)) for k in range(1, n + 1)),
                ]
            )
        summary = {"mode": "ordering", "n_max": ORDERING_MAX_N}
    else:
        columns = ["n", "bound", "difference", "status"]
        rows = []
        for n in DEBRUIJN_SAMPLE_N:
            rep = debruijn_bound_check(n)
            rows.append([n, rep.claimed, rep.computed, rep.status])
        summary = {"mode": "debruijn", "samples": len(rows)}
    return Table(
        command="physics",
        columns=columns,
        rows=rows,
        summary=summary,
        plain=[" ".join(str(cell) for cell in row) for row in rows],
    )


def _build_log(args) -> Table:
    from .decomp import log_left_factorial

    if args.n < 1:
        raise UsageError("log needs n >= 1")
    _check_cap("n", args.n)
    value = log_left_factorial(args.n, base=args.base, digits=args.digits)
    return Table(
        command="log",
        columns=["n", "base", "log"],
        rows=[[args.n, args.base, value]],
        summary={"n": args.n, "base": args.base, "digits": args.digits},
        plain=[value],
    )


_BUILDERS = {
    "seq": _build_seq,
    "verify": _build_verify,
    "report": _build_report,
    "decomp": _build_decomp,
    "gcd-scan": _build_gcd_scan,
    "physics": _build_physics,
    "log": _build_log,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _digits(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DIGITS}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format (default plain)",
    )
    common.add_argument("--out", metavar="PATH", default=None, help="write to PATH instead of stdout")
    common.add_argument(
        "--digits",
        type=_digits,
        default=15,
        help=f"significant digits for approximate values, 1 to {MAX_DIGITS} (default 15)",
    )

    parser = argparse.ArgumentParser(
        prog="kurepa",
        description="Exact workbench for left factorials and their Bell-number relatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("seq", parents=[common], help="emit a sequence over an inclusive index range")
    p.add_argument(
        "name",
        choices=sorted(SEQUENCES),
        metavar="name",
        help="one of: " + ", ".join(sorted(SEQUENCES)),
    )
    p.add_argument("n_lo", type=int)
    p.add_argument("n_hi", type=int)

    p = sub.add_parser(
        "verify", parents=[common], help="search primes in [lo, hi) for left factorial counterexamples"
    )
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--workers", type=_positive_int, default=1, help="parallel block workers (default 1)")
    p.add_argument("--checkpoint", metavar="PATH", default=None, help="resumable state file")
    p.add_argument("--histogram", action="store_true", help="accumulate the residue histogram")

    sub.add_parser("report", parents=[common], help="re-check every catalogued published claim")

    p = sub.add_parser("decomp", parents=[common], help="greedy Bell decomposition of a nonnegative target")
    p.add_argument("target", metavar="N", type=int)

    p = sub.add_parser("gcd-scan", parents=[common], help="gcd of consecutive shifted factorial sums")
    p.add_argument("a", type=int, help="shift added to both terms")
    p.add_argument("n_max", type=int)

    p = sub.add_parser("physics", parents=[common], help="occupation, ordering, or growth-envelope tables")
    p.add_argument("mode", choices=("occupation", "ordering", "debruijn"))

    p = sub.add_parser("log", parents=[common], help="log of the left factorial")
    p.add_argument("n", type=int)
    p.add_argument("--base", choices=("e", "2", "10"), default="e")

    return parser


def _render(args, table: Table) -> str:
    if args.format == "csv":
        return render_csv(table.columns, table.rows)
    if args.format == "json":
        return render_json(table)
    return render_plain(table.plain)


def _write(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already reported on the right stream
        return int(exc.code or 0)
    try:
        table = _BUILDERS[args.command](args)
        text = _render(args, table)
    except (UsageError, ValueError) as exc:
        print(f"kurepa: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"kurepa: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        saved = f"; progress saved in {checkpoint}" if checkpoint else ""
        print(f"kurepa: interrupted{saved}", file=sys.stderr)
        return EXIT_INTERRUPTED
    try:
        _write(args, text)
    except OSError as exc:
        print(f"kurepa: {exc}", file=sys.stderr)
        return EXIT_IO
    return table.exit_code


if __name__ == "__main__":
    sys.exit(main())
