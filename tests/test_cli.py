"""End-to-end CLI behaviour: formats, exit codes, caps, and file output."""

import csv
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from decimal import Decimal
from importlib import resources
from itertools import count

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from kurepa import cli
from kurepa.cli import main, render_csv
from kurepa.efactor import EScaled
from kurepa import sequences
from kurepa.sequences import SCANS, bell, column
import oracles
from conftest import fresh_python


@pytest.fixture(scope="module")
def output_schema():
    text = resources.files("kurepa.data").joinpath("output-schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_scan(monkeypatch, name, value):
    """Make `seq name` print value(n) at each n, in every format, through its scan."""
    monkeypatch.setitem(SCANS, cli.SEQUENCES[name][0], lambda one=1: map(value, count()))


def test_seq_bell_plain(capsys):
    code, out, err = run(capsys, "seq", "bell", "0", "8")
    assert code == 0
    assert out == "1\n1\n2\n5\n15\n52\n203\n877\n4140\n"
    assert err == ""


def test_seq_left_factorial_plain(capsys):
    code, out, _ = run(capsys, "seq", "left_factorial", "1", "8")
    assert code == 0
    assert out == "1\n2\n4\n10\n34\n154\n874\n5914\n"


def test_seq_dobinski_scaled_form(capsys):
    code, out, _ = run(capsys, "seq", "dobinski", "3", "3")
    assert code == 0
    assert out == "5*e^1\n"


def test_seq_csv_exact(capsys):
    code, out, _ = run(capsys, "seq", "r", "0", "5", "--format", "csv")
    assert code == 0
    assert out == "n,r\n0,0\n1,1\n2,2\n3,5\n4,17\n5,77\n"


def test_seq_single_point_range(capsys):
    code, out, _ = run(capsys, "seq", "factorial", "5", "5")
    assert code == 0
    assert out == "120\n"


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_seq_converts_each_value_to_text_once(capsys, monkeypatch, fmt):
    # int-to-str is quadratic in the digit count, so a big table must not pay it twice
    calls = []

    class Counted(int):
        def __str__(self):
            calls.append(int(self))
            return int.__str__(self)

    patch_scan(monkeypatch, "bell", lambda n: Counted(bell(n)))
    code, out, _ = run(capsys, "seq", "bell", "0", "9", "--format", fmt)
    assert code == 0
    assert out.splitlines()[-1].endswith("21147")
    assert calls == [bell(n) for n in range(10)]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_seq_value_past_the_digit_limit_exits_2(capsys, monkeypatch, fmt):
    # CPython refuses int-to-str past 4300 digits; the error surfaces while rendering
    patch_scan(monkeypatch, "bell", lambda n: 10**5000 + n)
    code, out, err = run(capsys, "seq", "bell", "0", "2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "Exceeds the limit (4300 digits)" in err


ALL_JSON_COMMANDS = [
    ("seq", "bell", "0", "6"),
    ("seq", "dobinski", "0", "4"),
    ("seq", "fermi", "1", "4"),
    ("seq", "left_factorial", "1", "300"),
    ("verify", "3", "200"),
    ("report",),
    ("decomp", "5914"),
    ("decomp", "0"),
    ("gcd-scan", "4", "20"),
    ("physics", "occupation"),
    ("physics", "ordering"),
    ("physics", "debruijn"),
    ("log", "8"),
]


@pytest.mark.parametrize("argv", ALL_JSON_COMMANDS, ids=lambda a: "_".join(a))
def test_json_outputs_validate(capsys, output_schema, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, output_schema)


def _json_cell(cell):
    """The stdlib encoder's form of the cells it cannot encode itself."""
    if isinstance(cell, Decimal):
        return int(cell)
    if isinstance(cell, EScaled):
        return {"coeff": str(cell.coeff), "epower": cell.epower}
    raise TypeError(f"cannot encode {type(cell).__name__} as JSON")


RENDERERS = {
    "plain": lambda table: cli.render_plain(table.plain),
    "csv": lambda table: cli.render_csv(table.columns, table.rows),
    "json": lambda table: json.dumps(
        {"command": table.command, "columns": table.columns, "rows": table.rows, "summary": table.summary},
        indent=2, default=_json_cell,
    ) + "\n",
}


@pytest.mark.parametrize("fmt", list(RENDERERS))
@pytest.mark.parametrize("argv", ALL_JSON_COMMANDS, ids=lambda a: "_".join(a))
def test_streamed_file_equals_the_rendered_string(tmp_path, capsys, argv, fmt):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == 0
    assert out == ""
    args = cli.build_parser().parse_args([*argv, "--format", fmt])
    expected = RENDERERS[fmt](cli._BUILDERS[args.command](args))
    assert target.read_bytes().decode("utf-8") == expected


def test_out_file_needs_less_memory_than_its_size(tmp_path):
    # the table is written line by line, so the text never sits in memory whole
    target = tmp_path / "derangements.txt"
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        code = main(["seq", "derangement", "0", "1499", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert size > 2_000_000
    assert peak - start < size


# ways a seq value can carry an integer of a given width, each printed in
# every format: plain, negative, as an EScaled coefficient, and as a
# Decimal, bare or as an EScaled coefficient
WIDE_CELLS = [
    ("int", "bell", lambda x: x, ("plain", "csv", "json")),
    ("negative", "bell", lambda x: -x, ("plain", "csv", "json")),
    ("coefficient", "dobinski", lambda x: EScaled(x, 1), ("plain", "csv", "json")),
    ("decimal", "bell", Decimal, ("plain", "csv", "json")),
    ("negative_decimal", "bell", lambda x: Decimal(-x), ("plain", "csv", "json")),
    ("decimal_coefficient", "dobinski", lambda x: EScaled(Decimal(x), 1), ("plain", "csv", "json")),
]


@pytest.mark.parametrize(
    "name, wrap, fmt",
    [pytest.param(name, wrap, fmt, id=f"{wid}-{fmt}") for wid, name, wrap, fmts in WIDE_CELLS for fmt in fmts],
)
def test_digit_limit_is_checked_exactly(tmp_path, capsys, monkeypatch, name, wrap, fmt):
    target = tmp_path / "out.txt"
    # 10**4300 - 1 has 4300 digits, the most the interpreter converts
    patch_scan(monkeypatch, name, lambda n: wrap(10**4300 - 1 if n == 2 else n + 1))
    code, out, _ = run(capsys, "seq", name, "0", "2", "--format", fmt)
    assert code == 0
    assert "9" * 4300 in out
    patch_scan(monkeypatch, name, lambda n: wrap(10**4300 if n == 2 else n + 1))
    code, out, err = run(capsys, "seq", name, "0", "2", "--format", fmt, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "Exceeds the limit (4300 digits)" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_left_factorial_prints_up_to_the_digit_limit(tmp_path, capsys, fmt):
    # every format computes !n as a Decimal, whose str() has no limit of its own
    code, out, _ = run(capsys, "seq", "left_factorial", "1", "1559", "--format", fmt)
    assert code == 0
    widest = max(re.findall(r"\d+", out), key=len)
    assert len(widest) == 4300
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "seq", "left_factorial", "1", "1560", "--format", fmt, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "Exceeds the limit (4300 digits)" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_only_json_prints_the_summary_ints(tmp_path, capsys, monkeypatch, fmt):
    target = tmp_path / "out.txt"

    def build(width):
        return lambda args: cli.Table("log", ["n"], [[1]], {"n": 10**width}, ["1"])

    monkeypatch.setitem(cli._BUILDERS, "log", build(4299))
    assert run(capsys, "log", "1", "--format", fmt)[0] == 0
    monkeypatch.setitem(cli._BUILDERS, "log", build(4300))
    code, _, err = run(capsys, "log", "1", "--format", fmt, "--out", str(target))
    if fmt == "json":
        assert code == 2
        assert "Exceeds the limit (4300 digits)" in err
        assert not target.exists()
    else:
        assert code == 0
        assert target.exists()


@pytest.mark.parametrize("exc, expected", [(KeyboardInterrupt, 130), (OSError, 3), (ValueError, 2)])
def test_errors_while_writing_keep_their_exit_codes(tmp_path, capsys, monkeypatch, exc, expected):
    # rows are converted to text as they are written, after the first lines went out
    class Failing(int):
        def __str__(self):
            raise exc("raised while writing")

    patch_scan(monkeypatch, "bell", lambda n: Failing(n) if n == 2 else n)
    code, out, err = run(capsys, "seq", "bell", "0", "3", "--out", str(tmp_path / "out.txt"))
    assert code == expected
    assert out == ""
    assert err.startswith("kurepa: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_no_digit_limit_prints_5000_digits(capsys, monkeypatch, fmt):
    patch_scan(monkeypatch, "bell", lambda n: 10**4999)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, "seq", "bell", "0", "0", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert "1" + "0" * 4999 in out


SCANNED_FAMILIES = sorted(cli.SEQUENCES)
ORACLE_MAX = 400


@functools.cache
def oracle() -> dict[str, list]:
    """Each seq family at n = 0..ORACLE_MAX from its textbook definition."""
    loops = {
        "factorial": oracles.factorial,
        "left_factorial": oracles.left_factorial,
        "wagstaff": oracles.wagstaff,
        "alt_left": oracles.alt_left_factorial,
        "guy_alt": oracles.guy_alternating,
        "r": oracles.half_left_factorial,
        "derangement": oracles.derangement,
        "bell": oracles.bell,
        "invbell": oracles.complementary_bell,
        "dobinski": lambda n: EScaled(oracles.bell(n), 1),
        "fermi": lambda n: EScaled(oracles.bell(n), 2),
    }
    assert sorted(loops) == SCANNED_FAMILIES
    return {name: [loop(n) for n in range(ORACLE_MAX + 1)] for name, loop in loops.items()}


# no deadline: the first example builds the oracle
@settings(deadline=None)
@given(st.data())
def test_decimal_columns_print_the_int_point_values(data):
    name = data.draw(st.sampled_from(SCANNED_FAMILIES))
    func, min_n = cli.SEQUENCES[name]
    lo = data.draw(st.integers(min_value=min_n, max_value=ORACLE_MAX))
    hi = data.draw(st.integers(min_value=lo, max_value=ORACLE_MAX))
    ns = range(lo, hi + 1)
    assert [func(n) for n in ns] == oracle()[name][lo : hi + 1], name
    values = [str(func(n)) for n in ns]
    expected = {
        "plain": "".join(f"{v}\n" for v in values),
        "csv": f"n,{name}\n" + "".join(f"{n},{v}\n" for n, v in zip(ns, values)),
    }
    for fmt, text in expected.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["seq", name, str(lo), str(hi), "--format", fmt])
        assert code == 0
        assert out.getvalue() == text, (name, lo, hi, fmt)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["seq", name, str(lo), str(hi), "--format", "json"])
    assert code == 0
    cells = [{"coeff": str(v.coeff), "epower": v.epower} if isinstance(v, EScaled) else v for v in oracle()[name]]
    assert json.loads(out.getvalue())["rows"] == [[n, cells[n]] for n in ns], (name, lo, hi, "json")


def test_every_seq_family_is_a_scan_of_its_point_values():
    # seq reads every family through its scan, in the format's number type;
    # invbell's scan yields ints in both, so csv and plain print no -0
    for name, (func, min_n) in cli.SEQUENCES.items():
        assert func in SCANS, name
        points = [func(n) for n in range(min_n, 81)]
        assert column(func, min_n, 80) == points, name
        assert column(func, min_n, 80, Decimal(1)) == points, name
    assert all(type(v) is int for v in column(sequences.complementary_bell, 0, 80, Decimal(1)))


def test_point_reads_interleave_families():
    # each family rolls its own scan, so a read of one never moves another's,
    # and a read below a family's last one starts that family again
    reads = [
        (sequences.left_factorial, 300, "left_factorial", 300),
        (sequences.derangement, 5, "derangement", 5),
        (sequences.left_factorial, 301, "left_factorial", 301),
        (sequences.alt_left_factorial, 7, "alt_left", 7),
        (sequences.factorial_sum, 299, "left_factorial", 300),
        (sequences.guy_alternating, 2, "guy_alt", 2),
        (sequences.derangement, 400, "derangement", 400),
        (sequences.guy_alternating, 1, "guy_alt", 1),
        (sequences.wagstaff, 250, "wagstaff", 250),
        (sequences.alt_left_factorial, 3, "alt_left", 3),
        (sequences.half_left_factorial, 300, "r", 300),
        (sequences.derangement, 399, "derangement", 399),
        (sequences.left_factorial, 1, "left_factorial", 1),
    ]
    for func, n, name, at in reads:
        assert func(n) == oracle()[name][at], (func.__name__, n)


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_complementary_bell_prints_no_negative_zero(capsys, fmt):
    code, out, _ = run(capsys, "seq", "invbell", "0", "3", "--format", fmt)
    assert code == 0
    assert [line.rpartition(",")[2] for line in out.splitlines()[fmt == "csv":]] == ["1", "-1", "0", "1"]


def test_report_json_carries_notes(capsys, output_schema):
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, output_schema)
    notes = payload["summary"]["notes"]
    assert notes["t3.k8"] == "printed terms give 40 bell_4 + bell_5 = 652"
    # one entry per row that has a note, keyed by a claim id of the table
    assert set(notes) <= {row[0] for row in payload["rows"]}
    assert all(notes.values())


def test_json_scaled_cells_are_structured(capsys):
    _, out, _ = run(capsys, "seq", "dobinski", "3", "3", "--format", "json")
    payload = json.loads(out)
    cell = payload["rows"][0][1]
    assert cell == {"coeff": "5", "epower": 1}


def test_json_big_integers_survive(capsys):
    _, out, _ = run(capsys, "seq", "left_factorial", "40", "40", "--format", "json")
    payload = json.loads(out)
    from kurepa.sequences import left_factorial

    assert payload["rows"][0][1] == left_factorial(40)


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "nope", "0", "5"),
        ("seq", "left_factorial", "0", "3"),
        ("seq", "bell", "5", "3"),
        ("verify", "10", "3"),
        ("verify", "2", "10"),
        ("decomp", "-1"),
        ("gcd-scan", "4", "-1"),
        ("log", "0"),
        ("log", "5", "--base", "7"),
        ("seq", "bell", "0", "5", "--digits", "0"),
        ("log", "8", "--digits", "1001"),
        ("physics", "occupation", "--digits", "1001"),
        ("physics", "sideways"),
        (),
    ],
    ids=lambda a: "_".join(a) if a else "no_args",
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_usage_error_message_lands_on_stderr(capsys):
    _, _, err = run(capsys, "log", "0")
    assert err != ""


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "seq" in out


def test_digits_at_the_bound_runs(capsys):
    code, out, _ = run(capsys, "log", "8", "--digits", "1000")
    assert code == 0
    assert len(out.strip().replace(".", "")) == 1000


def test_max_n_cap(monkeypatch, capsys):
    monkeypatch.setenv("KUREPA_MAX_N", "10")
    assert run(capsys, "seq", "bell", "0", "10")[0] == 0
    assert run(capsys, "seq", "bell", "0", "11")[0] == 2
    assert run(capsys, "gcd-scan", "4", "11")[0] == 2
    assert run(capsys, "log", "11")[0] == 2
    # decomp targets are values, not indices: never capped
    assert run(capsys, "decomp", "5914")[0] == 0


def test_max_n_env_garbage_rejected(monkeypatch, capsys):
    monkeypatch.setenv("KUREPA_MAX_N", "abc")
    code, out, err = run(capsys, "seq", "bell", "0", "5")
    assert code == 2
    assert out == ""


def test_max_n_below_one_rejected(monkeypatch, capsys):
    monkeypatch.setenv("KUREPA_MAX_N", "0")
    code, out, err = run(capsys, "seq", "bell", "0", "0")
    assert code == 2
    assert out == ""
    assert "KUREPA_MAX_N must be >= 1" in err


def test_default_cap_allows_5000(monkeypatch, capsys):
    monkeypatch.delenv("KUREPA_MAX_N", raising=False)
    assert run(capsys, "log", "5000")[0] == 0
    assert run(capsys, "log", "5001")[0] == 2


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "bell.csv"
    code, out, _ = run(capsys, "seq", "bell", "0", "4", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == b"n,bell\n0,1\n1,1\n2,2\n3,5\n4,15\n"


def test_out_to_missing_directory_exits_3(capsys):
    code, out, err = run(capsys, "seq", "bell", "0", "4", "--out", "/nonexistent/dir/x.csv")
    assert code == 3
    assert out == ""
    assert err != ""


def test_verify_plain_is_canonical_report(capsys):
    from kurepa.verifier import canonical_report, run_search

    code, out, _ = run(capsys, "verify", "3", "500")
    assert code == 0
    assert out == canonical_report(run_search(3, 500)) + "\n"


def test_verify_checkpoint_rerun_is_identical(tmp_path, capsys):
    cp = str(tmp_path / "cp.json")
    code1, out1, _ = run(capsys, "verify", "3", "2000", "--checkpoint", cp)
    code2, out2, _ = run(capsys, "verify", "3", "2000", "--checkpoint", cp)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_checkpoint_range_clash_exits_2(tmp_path, capsys):
    cp = str(tmp_path / "cp.json")
    run(capsys, "verify", "3", "2000", "--checkpoint", cp)
    code, out, err = run(capsys, "verify", "3", "3000", "--checkpoint", cp)
    assert code == 2
    assert out == ""
    assert err != ""


def test_interrupt_without_checkpoint_exits_130(capsys, interrupt_after):
    # the real-SIGINT tests in test_verifier.py cover the checkpoint line
    interrupt_after(0)
    code, out, err = run(capsys, "verify", "3", "500")
    assert code == 130
    assert out == ""
    assert err == "kurepa: interrupted\n"


def test_verify_histogram_row(capsys):
    code, out, _ = run(capsys, "verify", "3", "500", "--histogram", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    hist = next(r for r in rows if r[0] == "histogram")
    assert hist[1].count("_") == 255
    assert sum(int(v) for v in hist[1].split("_")) == 94  # odd primes below 500


def test_csv_round_trip_byte_identity(capsys):
    for argv in (("report",), ("seq", "guy_alt", "0", "9"), ("gcd-scan", "0", "30")):
        _, out, _ = run(capsys, *argv, "--format", "csv")
        header, *rows = csv.reader(io.StringIO(out))
        assert render_csv(header, rows) == out


def test_line_endings_are_lf_only(capsys):
    for fmt in ("plain", "csv", "json"):
        _, out, _ = run(capsys, "report", "--format", fmt)
        assert "\r" not in out


def test_report_csv_shape(capsys):
    _, out, _ = run(capsys, "report", "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["claim_id", "location", "claimed", "computed", "status"]
    assert len(rows) == 798


def test_decomp_zero_prints_nothing(capsys):
    code, out, _ = run(capsys, "decomp", "0")
    assert code == 0
    assert out == ""


def test_decomp_plain_terms(capsys):
    _, out, _ = run(capsys, "decomp", "5914")
    assert out == "1*bell_8\n2*bell_7\n1*bell_4\n1*bell_3\n"


def test_occupation_digits_control(capsys):
    _, out, _ = run(capsys, "physics", "occupation", "--format", "csv", "--digits", "8")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["x", "boson", "fermion", "photon_identity_gap"]
    assert rows[0][1] == "99.500833"
    # at the default 15 digits a float route cancels digits at x = 0.01
    _, out, _ = run(capsys, "physics", "occupation", "--format", "csv")
    assert list(csv.reader(io.StringIO(out)))[1][1] == "99.5008333319444"


def test_log_bases(capsys):
    assert run(capsys, "log", "8")[1] == "8.68507770041242\n"
    assert run(capsys, "log", "8", "--base", "2", "--digits", "20")[1] == "12.529918528120324200\n"
    assert run(capsys, "log", "5", "--base", "10")[1] == "1.53147891704226\n"


SUBCOMMANDS = ("seq", "verify", "report", "decomp", "gcd-scan", "physics", "log")


@pytest.mark.skipif(
    shutil.which("kurepa") is None,
    reason="kurepa console script not on PATH (created by pip install)",
)
def test_console_script_help():
    proc = subprocess.run(["kurepa", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in SUBCOMMANDS:
        assert name in proc.stdout, name


def python(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `python flags -c code args` on this source tree in a fresh interpreter."""
    return fresh_python(*flags, "-c", code, *args, capture_output=True, text=True)


# dataclasses loads inspect, ast, dis and tokenize, which every fresh command would pay for
@pytest.mark.parametrize(
    "module", ["numpy", "multiprocessing", "mpmath", "json", "dataclasses", "inspect", "kurepa.discrepancy"]
)
def test_cli_import_does_not_load(module):
    proc = python(f"import kurepa.cli, sys; assert {module!r} not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_oracles_load_no_kurepa_module():
    # kurepa is importable here, so an import of it by the oracles would show
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    proc = python(
        f"import sys; sys.path.insert(0, {tests_dir!r})\n"
        "import oracles\n"
        "oracles.bell(9), oracles.stirling2(9, 4), oracles.shifted_gcd(4, 16), oracles.derangement(9)\n"
        "print(*(name for name in sys.modules if name.partition('.')[0] == 'kurepa'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_verify_without_checkpoint_does_not_load_tempfile():
    # -S skips site, whose .pth files may load tempfile on their own
    proc = python(
        "import contextlib, io, sys\n"
        "import kurepa.verifier\n"
        "from kurepa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '3', '3000'])\n"
        "assert code == 0, code\n"
        "assert 'tempfile' not in sys.modules\n",
        flags=("-S",),
    )
    assert proc.returncode == 0, proc.stderr


def test_computing_layers_do_not_load_discrepancy():
    # only report (and physics, for its growth-envelope row) builds claim rows
    proc = python(
        "import sys, kurepa.gcdlab, kurepa.verifier, kurepa.decomp\n"
        "assert 'kurepa.discrepancy' not in sys.modules, sorted(sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_import_kurepa_loads_no_submodule():
    proc = python("import kurepa, sys; print(sorted(m for m in sys.modules if m.startswith('kurepa')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['kurepa']\n"


def test_every_exported_name_resolves():
    import kurepa

    namespace = {}
    exec("from kurepa import *", namespace)
    for name in kurepa.__all__:
        assert namespace[name] is getattr(kurepa, name), name
    assert set(kurepa.__all__) <= set(dir(kurepa))
    assert kurepa.bell(5) == 52
    assert kurepa.run_search.__module__ == "kurepa.verifier"
    with pytest.raises(AttributeError):
        getattr(kurepa, "no_such_name")


# subcommands that must run on the standard library alone, the real-valued
# ones included, and the modules each must not load: kurepa layers by their
# short name, then top-level modules. verify's one block runs in process.
# Every cell is an exact integer, so no command loads fractions.
EXACT_COMMANDS = {
    ("verify", "3", "3000", "--workers", "2"): ("report", "decomp", "gcdlab", "physics", "multiprocessing", "fractions"),
    ("seq", "bell", "0", "8"): ("verifier", "report", "decomp", "gcdlab", "physics", "fractions"),
    ("seq", "dobinski", "3", "3"): ("verifier", "report", "decomp", "gcdlab", "physics", "fractions"),
    ("gcd-scan", "4", "200"): ("verifier", "report", "decomp", "physics", "fractions"),
    ("decomp", "5914"): ("verifier", "report", "gcdlab", "physics", "fractions"),
    ("physics", "ordering"): ("verifier", "report", "decomp", "gcdlab", "fractions"),
    ("report", "--format", "csv"): ("fractions",),
    ("log", "8", "--base", "2"): ("verifier", "report", "gcdlab", "physics", "fractions"),
    ("physics", "occupation"): ("verifier", "report", "decomp", "gcdlab", "fractions"),
    ("physics", "debruijn"): ("verifier", "report", "decomp", "gcdlab", "fractions"),
}


@pytest.mark.parametrize("argv", list(EXACT_COMMANDS), ids=lambda a: "_".join(a[:2]))
def test_subcommand_imports(argv):
    # typing and importlib.resources cost a fresh command several ms each,
    # but site's .pth files may load them on their own, so only the run
    # under -S (no site) can forbid them
    for flags, forbidden in (((), ()), (("-S",), ("typing", "importlib.resources"))):
        proc = python(
            "import contextlib, io, sys\n"
            "from kurepa.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, *sorted(sys.modules))\n",
            *argv,
            flags=flags,
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        assert code == "0"
        for name in (*EXACT_COMMANDS[argv], "mpmath", "dataclasses", *forbidden):
            assert name not in loaded and f"kurepa.{name}" not in loaded, (flags, name)


@pytest.mark.parametrize("argv", [("physics", "debruijn"), ("report", "--format", "csv")], ids=lambda a: a[0])
def test_growth_rows_build_no_big_bell_number(argv):
    # ln Bell_n comes from Dobinski's series; each number type's exact memo
    # keeps the Bell_0..Bell_9 that other rows read, not the 1001 rows of Bell_1000
    proc = python(
        "import contextlib, io, sys\n"
        "from decimal import Decimal\n"
        "from kurepa.cli import main\n"
        "from kurepa.sequences import _bell_memo\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *(len(_bell_memo[kind][0]) for kind in (int, Decimal)))\n",
        *argv,
    )
    assert proc.returncode == 0, proc.stderr
    code, *held = proc.stdout.split()
    assert code == "0"
    assert len(held) == 2
    assert all(int(n) <= 10 for n in held)


@pytest.mark.parametrize("argv", list(EXACT_COMMANDS), ids=lambda a: "_".join(a[:2]))
def test_exact_subcommands_need_only_the_stdlib(capsys, argv):
    # a None entry in sys.modules makes every `import mpmath` raise ImportError
    proc = python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from kurepa.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        *argv,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "kurepa", "seq", "bell", "0", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n1\n2\n5\n"
