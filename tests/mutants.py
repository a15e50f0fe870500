"""Mutation runner: would the tests notice a fault in a fast path?

Each mutant is one exact `old -> new` edit of a file under src/kurepa, with
the tests that must fail on it. Run it as a script (pytest does not
collect it), with mpmath, pytest, hypothesis and jsonschema installed:

    python tests/mutants.py

It first runs every mutant's tests on an unmutated copy of the tree, as a
failure counts as a kill only where they pass. Then, for each
mutant, it copies src, tests, bench (a report test reads
bench/workloads.py) and pyproject.toml to a temporary directory, applies
the edit there, runs the mutant's tests with `pytest -x` and prints one
line:

- killed: a test failed;
- survived: every test passed;
- stale: `old` is not in the file exactly once, or pytest did not run the
  tests (an error while collecting, or no test by that name).

A mutant with a reason in `equivalent` computes what the program computes,
so its survival is reported as equivalent and passes. The exit status is 1
if the tests fail on the unmutated copy, any other mutant survived or any
mutant is stale; else 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new tests equivalent", defaults=(None,))

MUTANTS = [
    Mutant(
        "derangement-sign", "src/kurepa/sequences.py",
        "n * d + (-1 if n % 2 else 1)", "n * d + (1 if n % 2 else -1)",
        ["tests/test_sequences.py::test_derangement_values"],
    ),
    Mutant(
        "report-a-sign", "src/kurepa/report.py",
        "return _f(n) + (-1) ** n", "return _f(n) - (-1) ** n",
        ["tests/test_report.py::test_family_cells_match_the_textbook_oracles"],
    ),
    Mutant(
        "greedy-exact-context", "src/kurepa/decomp.py",
        "with localcontext(EXACT):", "with localcontext():",
        ["tests/test_decomp.py::test_greedy_matches_rescan"],
    ),
    Mutant(
        "greedy-takes-bell-equal-to-target", "src/kurepa/decomp.py",
        "lambda b: b <= target", "lambda b: b < target",
        ["tests/test_decomp.py::test_greedy_matches_rescan"],
    ),
    Mutant(
        "bell-mod-final-reduction", "src/kurepa/verifier.py",
        "return row[0] % p", "return row[0]",
        ["tests/test_verifier.py::test_bell_mod_matches_exact"],
    ),
    Mutant(
        "barrett-correction-once", "src/kurepa/verifier.py",
        "while r >= modulus:", "if r >= modulus:",
        ["tests/test_verifier.py::test_advance_when_barrett_falls_two_moduli_short"],
    ),
    Mutant(
        "memo-rebuilds-its-scan", "src/kurepa/sequences.py",
        "self.rest = islice(self.scan(self.one), len(self.values), None)", "pass",
        ["tests/test_sequences.py::test_memo_recovers_from_an_interrupted_step"],
    ),
    Mutant(
        "canonical-report-keeps-wall-seconds", "src/kurepa/verifier.py",
        'del payload["wall_seconds"]', "pass",
        ["tests/test_verifier.py::test_canonical_report_hides_wall_seconds"],
    ),
    Mutant(
        "histogram-merge-keeps-last-block", "src/kurepa/verifier.py",
        "[a + b for a, b in zip(ck.histogram, block_hist)]", "block_hist",
        ["tests/test_verifier.py::test_canonical_report_golden[3-30000-1-64]"],
    ),
    Mutant(
        "loader-accepts-extra-keys", "src/kurepa/verifier.py",
        "payload.keys() != set(SearchCheckpoint._fields)", "not payload.keys() >= set(SearchCheckpoint._fields)",
        ["tests/test_verifier.py::test_checkpoint_rejects_bad_payloads"],
    ),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml")
SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")


def pytest_on_copy(tests: list[str], path: str | None = None, text: str = "") -> int:
    """pytest's exit code for `tests` on a copy of the tree, with `text` as the copy's `path` if one is given."""
    with tempfile.TemporaryDirectory(prefix="kurepa-mutant-") as work:
        for name in COPIED:
            source, target = os.path.join(ROOT, name), os.path.join(work, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=SKIPPED)
            else:
                shutil.copy(source, target)
        if path is not None:
            with open(os.path.join(work, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> str:
    """The mutant's outcome: killed, survived, equivalent or stale, with a reason for stale."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return f"stale ({mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path})"
    code = pytest_on_copy(mutant.tests, mutant.path, text.replace(mutant.old, mutant.new))
    if code == 1:
        return "killed"
    if code == 0:
        return f"equivalent ({mutant.equivalent})" if mutant.equivalent else "survived"
    return f"stale (pytest exited {code})"


def main() -> int:
    code = pytest_on_copy(sorted({test for m in MUTANTS for test in m.tests}))
    if code != 0:
        print(f"the mutants' tests do not pass on the unmutated tree (pytest exited {code})", file=sys.stderr)
        return 1
    failed = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        failed += outcome.startswith(("survived", "stale"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
