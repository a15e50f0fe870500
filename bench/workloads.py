"""Workload inputs, made from the seed alone.

Each workload is a list of ops; an op is the argument list of one kurepa
command, before the runner adds --out (and --checkpoint for search and
frontier). The seed moves inputs only where the cost of a round stays the
same, so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("search", "frontier", "tables", "session")

# search: verify [SEARCH_LO, hi) with hi = SEARCH_HI + SEARCH_HI_STEP * (seed mod SEARCH_HI_CHOICES)
SEARCH_LO = 3
SEARCH_HI = 150_000
SEARCH_HI_STEP = 64
SEARCH_HI_CHOICES = 8

# frontier: verify [lo, lo + FRONTIER_WIDTH), lo = FRONTIER_LO + FRONTIER_WIDTH * (seed mod FRONTIER_CHOICES)
FRONTIER_LO = 1_000_000
FRONTIER_WIDTH = 1000
FRONTIER_CHOICES = 8

VERIFY_FLAGS = ["--workers", "2", "--histogram", "--checkpoint", "{checkpoint}"]

TABLES_LEFT_FACTORIAL_HI = 2000
TABLES_ROWS = 1500
TABLES_INVBELL_HI = 900
TABLES_DECOMP_DIGITS = 3000

# the one op expected to fail on every round: !n for n >= 1560 has more than
# 4300 digits, the interpreter's limit for int-to-str conversion
DIGIT_LIMIT_OP = ["seq", "left_factorial", "1", str(TABLES_LEFT_FACTORIAL_HI)]
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"

# the README examples, each run twice per session round
README_COMMANDS = (
    ["report", "--format", "csv"],
    ["physics", "occupation"],
    ["physics", "ordering"],
    ["physics", "debruijn"],
    ["seq", "bell", "0", "8"],
    ["seq", "dobinski", "3", "3"],
    ["decomp", "5914"],
    ["log", "8", "--base", "2"],
    ["verify", "3", "3000"],
    ["gcd-scan", "4", "200"],
)
SESSION_REPEATS = 2

# README-sized ops that give the per-layer metrics of layers a workload does not use
PROBE_OPS = {
    "verifier": ["verify", "3", "3000"],
    "sequences.left_factorial": ["seq", "left_factorial", "1", "8"],
    "sequences.bell": ["seq", "bell", "0", "8"],
    "sequences.derangement": ["seq", "derangement", "0", "8"],
    "sequences.complementary_bell": ["seq", "invbell", "0", "8"],
    "gcdlab.scan_altered": ["gcd-scan", "4", "200"],
    "decomp.greedy": ["decomp", "5914"],
    "physics.planck": ["physics", "occupation"],
    "physics.ordering": ["physics", "ordering"],
    "physics.debruijn": ["physics", "debruijn"],
}
PROBE_INVBELL_HI = 8

# full_report's section functions, in the order it calls them
REPORT_SECTIONS = (
    "table1_rows",
    "congruence_rows",
    "foundation_rows",
    "decomposition_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "table7_rows",
    "equivalence_rows",
    "corollary_poly_rows",
    "table8_rows",
    "table9_rows",
    "table10_rows",
    "fourpart_rows",
    "altered_rows",
    "ab_rows",
    "kurepa_poly_rows",
    "log_rows",
    "table12_rows",
    "table13_rows",
    "kad_rows",
    "fermi_rows",
    "gas_rows",
    "physics_rows",
)


def search_range(seed: int) -> tuple[int, int]:
    return SEARCH_LO, SEARCH_HI + SEARCH_HI_STEP * (seed % SEARCH_HI_CHOICES)


def frontier_range(seed: int) -> tuple[int, int]:
    lo = FRONTIER_LO + FRONTIER_WIDTH * (seed % FRONTIER_CHOICES)
    return lo, lo + FRONTIER_WIDTH


def make_inputs(workload: str, seed: int) -> dict:
    """ops: the commands of one round; expected_failure: index of the known failing op or None."""
    rng = random.Random(f"{workload}:{seed}")
    expected_failure = None
    if workload in ("search", "frontier"):
        lo, hi = search_range(seed) if workload == "search" else frontier_range(seed)
        ops = [["verify", str(lo), str(hi), *VERIFY_FLAGS]]
    elif workload == "tables":
        target = rng.randrange(10 ** (TABLES_DECOMP_DIGITS - 1), 10**TABLES_DECOMP_DIGITS)
        ops = [
            DIGIT_LIMIT_OP,
            ["gcd-scan", "4", str(TABLES_ROWS - 1)],
            ["seq", "bell", "0", str(TABLES_ROWS - 1)],
            ["seq", "derangement", "0", str(TABLES_ROWS - 1)],
            ["seq", "invbell", "0", str(TABLES_INVBELL_HI)],
            ["decomp", str(target), "--format", "csv"],
        ]
        expected_failure = 0
    elif workload == "session":
        ops = [list(cmd) for cmd in README_COMMANDS * SESSION_REPEATS]
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"ops": ops, "expected_failure": expected_failure}


def probe_ops(span_names: set[str]) -> list[list[str]]:
    """README-sized ops for the layers that have no span in the workload's own replay."""
    return [op for layer, op in PROBE_OPS.items() if not any(name.startswith(layer) for name in span_names)]
