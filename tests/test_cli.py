"""End-to-end CLI behaviour: formats, exit codes, caps, and file output."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from kurepa import cli
from kurepa.cli import main, render_csv
from kurepa.sequences import bell


@pytest.fixture(scope="module")
def output_schema():
    text = resources.files("kurepa.data").joinpath("output-schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    monkeypatch.setitem(cli.SEQUENCES, "bell", (lambda n: Counted(bell(n)), 0))
    code, out, _ = run(capsys, "seq", "bell", "0", "9", "--format", fmt)
    assert code == 0
    assert out.splitlines()[-1].endswith("21147")
    assert calls == [bell(n) for n in range(10)]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_seq_value_past_the_digit_limit_exits_2(capsys, monkeypatch, fmt):
    # CPython refuses int-to-str past 4300 digits; the error surfaces while rendering
    monkeypatch.setitem(cli.SEQUENCES, "bell", (lambda n: 10**5000 + n, 0))
    code, out, err = run(capsys, "seq", "bell", "0", "2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "Exceeds the limit (4300 digits)" in err


ALL_JSON_COMMANDS = [
    ("seq", "bell", "0", "6"),
    ("seq", "dobinski", "0", "4"),
    ("seq", "fermi", "1", "4"),
    ("verify", "3", "200"),
    ("report",),
    ("decomp", "5914"),
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


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `python -c code args` on this source tree in a fresh interpreter."""
    import kurepa

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(kurepa.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("module", ["numpy", "multiprocessing", "mpmath"])
def test_cli_import_does_not_load(module):
    proc = python(f"import kurepa.cli, sys; assert {module!r} not in sys.modules")
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
# ones included, and the layers each must not load
EXACT_COMMANDS = {
    ("verify", "3", "3000", "--workers", "2"): ("report", "decomp", "gcdlab", "physics"),
    ("seq", "bell", "0", "8"): ("verifier", "report", "decomp", "gcdlab", "physics"),
    ("gcd-scan", "4", "200"): ("verifier", "report", "decomp", "physics"),
    ("decomp", "5914"): ("verifier", "report", "gcdlab", "physics"),
    ("physics", "ordering"): ("verifier", "report", "decomp", "gcdlab"),
    ("report", "--format", "csv"): (),
    ("log", "8", "--base", "2"): ("verifier", "report", "gcdlab", "physics"),
    ("physics", "occupation"): ("verifier", "report", "decomp", "gcdlab"),
    ("physics", "debruijn"): ("verifier", "report", "decomp", "gcdlab"),
}


@pytest.mark.parametrize("argv", list(EXACT_COMMANDS), ids=lambda a: "_".join(a[:2]))
def test_subcommand_imports(argv):
    proc = python(
        "import contextlib, io, sys\n"
        "from kurepa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules))\n",
        *argv,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    for name in (*(f"kurepa.{layer}" for layer in EXACT_COMMANDS[argv]), "mpmath"):
        assert name not in loaded, name


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
