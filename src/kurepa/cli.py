"""Command line driver for the workbench.

Subcommands cover the sequence tables, greedy Bell decompositions, shifted
gcd scans, the modular counterexample search, the physics identity checks,
and the consolidated discrepancy report. Each one writes a single table to
stdout or --out, rendered as plain text, comma separated values, or a JSON
envelope {command, columns, rows, summary} that validates against
data/output-schema.json. The renderers are line generators, and main writes
each line as it is produced, so output memory is one line plus the table's
values, however long the table.

`seq` reads every family's whole column from the scan in its `SEQUENCES`
entry, which holds `sequences.FAMILIES` and efactor's e-scaled families, as
exact Decimal integers, in every format: an int prints in time quadratic
in its digit count, a Decimal in linear time (`invbell`'s scan yields ints
all the same). `decomp` runs its greedy on a Decimal target, and its value
column is the Bell column up to the largest index. JSON prints a Decimal
cell as its digits, the bytes json prints for the equal int.
Before the destination is opened, main checks the widest number the format
will print against the interpreter's int-to-str digit limit, Decimals
included, so the 4300-digit wall is the same in every format: a table that
cannot be printed exits 2 with the interpreter's message, without writing
a byte or creating the --out file.

Exit codes: 0 success, 10 counterexample found, 2 usage, 3 I/O, 130 Ctrl-C
(SIGINT), 143 SIGTERM during `verify`. Either signal saves the committed
prefix of a `verify` run with --checkpoint before the exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from decimal import Decimal, localcontext

# SEQUENCES holds the families of sequences and efactor; every other layer
# is imported by the builder that runs it, so a subcommand loads only its own
from .efactor import GUARD_DIGITS, SCALED_FAMILIES, EScaled, format_significant
from .sequences import FAMILIES, column

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 10
EXIT_USAGE = 2
EXIT_IO = 3
# the shell's codes for a process ended by SIGINT (128 + 2) and SIGTERM (128 + 15)
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143

MAX_N_ENV = "KUREPA_MAX_N"
DEFAULT_MAX_N = 5000
ORDERING_MAX_N = 8
# `log 8` and `physics occupation` take under half a second at 1000 digits,
# seconds at 5000 and over a minute at 50000
MAX_DIGITS = 1000

# seq name -> Family(read, first, scan): the point function, the smallest
# valid index and the scan that prints the column
SEQUENCES = {**FAMILIES, **SCALED_FAMILIES}


class UsageError(Exception):
    """Bad arguments caught after parsing: wrong range, capped size."""


class Terminated(BaseException):
    """SIGTERM during `verify`: it unwinds the search as Ctrl-C does, saving the prefix."""


def _terminate(signum, frame):
    raise Terminated


class Table:
    """One subcommand's output: tabular cells plus a plain rendering.

    `plain` may be lazy: only the plain format reads it, so values whose text
    is costly (big ints) are converted once, by whichever renderer runs. The
    plain lines print only values that the cells hold, so the cells (and,
    for JSON, the summary) bound every integer that any format prints.
    """

    __slots__ = ("command", "columns", "rows", "summary", "plain", "exit_code")

    def __init__(self, command: str, columns: list[str], rows: list[list], summary: dict,
                 plain: Iterable[str], exit_code: int = EXIT_OK) -> None:
        self.command, self.columns, self.rows, self.summary = command, columns, rows, summary
        self.plain, self.exit_code = plain, exit_code


def _csv_lines(columns, rows) -> Iterator[str]:
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json_chunks(table: Table) -> Iterator[str]:
    """The envelope one row at a time, as json.dumps(indent=2) prints it with int cells.

    A Decimal cell prints as its digits; any other value is json's text,
    re-indented to its depth (json escapes the newlines inside strings).
    """
    # only the json format pays for this import
    import json

    encode = json.JSONEncoder(indent=2).encode

    def dumps(value, depth: int) -> str:
        if isinstance(value, Decimal):
            return str(value)
        if isinstance(value, EScaled):
            value = {"coeff": str(value.coeff), "epower": value.epower}
        return encode(value).replace("\n", "\n" + "  " * depth)

    def array(items: list, depth: int, show) -> Iterator[str]:
        pad = "\n" + "  " * depth
        for i, item in enumerate(items):
            yield ("," if i else "[") + pad + "  " + show(item)
        yield pad + "]" if items else "[]"

    yield f'{{\n  "command": {dumps(table.command, 1)},\n  "columns": {dumps(table.columns, 1)},\n  "rows": '
    yield from array(table.rows, 1, lambda row: "".join(array(row, 2, lambda cell: dumps(cell, 3))))
    yield f',\n  "summary": {dumps(table.summary, 1)}\n}}\n'


def _plain_lines(lines) -> Iterator[str]:
    return (line + "\n" for line in lines)


def render_csv(columns, rows) -> str:
    """Comma separated, no quoting (cells never contain commas), LF endings."""
    return "".join(_csv_lines(columns, rows))


def render_plain(lines) -> str:
    return "".join(_plain_lines(lines))


def _numbers(cells) -> Iterator[int | Decimal]:
    """Every integer printed for cells: ints, Decimals, EScaled coefficients, and what lists and dicts hold."""
    for cell in cells:
        if isinstance(cell, EScaled):
            cell = cell.coeff
        if isinstance(cell, (int, Decimal)):
            yield cell
        elif isinstance(cell, list):
            yield from _numbers(cell)
        elif isinstance(cell, dict):
            yield from _numbers(cell.values())


def _check_printable(args, table: Table) -> None:
    """Raise the interpreter's own ValueError if the format would print a too-wide integer.

    CPython refuses str(x) for an int x of more than sys.get_int_max_str_digits()
    digits (0 means no limit), that is when |x| >= 10**limit, and a Decimal
    integer, which prints at any width, is held to the same wall by its digit
    count, adjusted() + 1. str(10**limit) raises the error: its message names
    only the limit. Interpreters before 3.10.7 have no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    wall = 10**limit
    printed = [table.rows, table.summary] if args.format == "json" else table.rows
    if any(x.adjusted() >= limit if isinstance(x, Decimal) else abs(x) >= wall for x in _numbers(printed)):
        str(wall)


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
    _, first, scan = SEQUENCES[args.name]
    if args.n_lo < first:
        raise UsageError(f"{args.name} starts at n = {first}")
    if args.n_hi < args.n_lo:
        raise UsageError("need n_lo <= n_hi")
    _check_cap("n_hi", args.n_hi)
    values = column(scan, args.n_lo, args.n_hi, Decimal(1))
    return Table(
        command="seq",
        columns=["n", args.name],
        rows=[[n, v] for n, v in enumerate(values, args.n_lo)],
        summary={"sequence": args.name, "n_lo": args.n_lo, "n_hi": args.n_hi, "count": len(values)},
        plain=map(str, values),
    )


def _build_verify(args) -> Table:
    import signal

    from .verifier import canonical_report, run_search

    if args.lo < 3:
        raise UsageError("lo must be at least 3")
    if args.hi <= args.lo:
        raise UsageError("need lo < hi")
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        ck = run_search(
            args.lo,
            args.hi,
            workers=args.workers,
            histogram=args.histogram,
            checkpoint_path=args.checkpoint,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
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
    from .discrepancy import MISMATCH
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
    terms = greedy_bell_decomposition(Decimal(args.target))
    values = column(FAMILIES["bell"].scan, 0, terms[0][0] if terms else 0, Decimal(1))
    return Table(
        command="decomp",
        columns=["basis", "index", "coefficient", "value"],
        rows=[["bell", idx, coeff, values[idx]] for idx, coeff in terms],
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
        rows = [
            [n, "_".join(map(str, normal_ordering(n).coeffs)), "_".join(map(str, antinormal_ordering(n).coeffs))]
            for n in range(1, ORDERING_MAX_N + 1)
        ]
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
    p.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel block workers, at most one per usable CPU (default 1)"
    )
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


def _lines(args, table: Table) -> Iterator[str]:
    if args.format == "csv":
        return _csv_lines(table.columns, table.rows)
    if args.format == "json":
        return _json_chunks(table)
    return _plain_lines(table.plain)


def _write(args, lines: Iterator[str]) -> None:
    if args.out is None:
        sys.stdout.writelines(lines)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already reported on the right stream
        return int(exc.code or 0)
    try:
        table = _BUILDERS[args.command](args)
        _check_printable(args, table)
        _write(args, _lines(args, table))
    except (UsageError, ValueError) as exc:
        print(f"kurepa: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"kurepa: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyboardInterrupt, Terminated) as exc:
        checkpoint = getattr(args, "checkpoint", None)
        saved = f"; progress saved in {checkpoint}" if checkpoint else ""
        terminated = isinstance(exc, Terminated)
        print(f"kurepa: {'terminated' if terminated else 'interrupted'}{saved}", file=sys.stderr)
        return EXIT_TERMINATED if terminated else EXIT_INTERRUPTED
    return table.exit_code


if __name__ == "__main__":
    sys.exit(main())
