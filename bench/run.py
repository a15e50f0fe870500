"""The kurepa benchmark.

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload (see workloads.py) until --seconds have
passed, checks the first round's outputs against oracles.py and
reference.json, and prints one JSON line: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
each round is followed by a traced replay, layer by layer, and the metrics
are the per-layer ones. Spans and the result are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans
import workloads
from speed import Bracketed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
PYTHON = sys.executable
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
CPUS = sorted(os.sched_getaffinity(0))
# workloads whose program work runs in one process at a time; they run pinned to one CPU
PINNED = ("frontier", "tables", "session")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# (name, unit, better); the per-layer metrics every traced run emits
LAYER_METRICS = [
    ("verifier.sieve_s", "s", "lower"),
    ("verifier.primes", "count", "higher"),
    ("verifier.blocks", "count", "lower"),
    ("verifier.kernel_s", "s", "lower"),
    ("verifier.kernel_steps", "count", "lower"),
    ("verifier.modmuls", "count", "lower"),
    ("verifier.lane_use", "ratio", "higher"),
    ("verifier.kernel_ns_per_modmul", "ns", "lower"),
    ("verifier.checkpoint_write_s", "s", "lower"),
    ("verifier.checkpoint_read_s", "s", "lower"),
    ("verifier.checkpoint_bytes", "bytes", "lower"),
    ("verifier.parallel_speedup", "ratio", "higher"),
    ("sequences.left_factorial_s", "s", "lower"),
    ("sequences.bell_s", "s", "lower"),
    ("sequences.derangement_s", "s", "lower"),
    ("sequences.complementary_bell_s", "s", "lower"),
    ("sequences.complementary_bell_peak_mb", "MB", "lower"),
    ("gcdlab.scan_altered_s", "s", "lower"),
    ("decomp.greedy_s", "s", "lower"),
    ("decomp.terms", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("physics.planck_s", "s", "lower"),
    ("physics.ordering_s", "s", "lower"),
    ("physics.debruijn_s", "s", "lower"),
    ("report.cold_s", "s", "lower"),
    ("report.warm_s", "s", "lower"),
    ("report.rows", "count", "higher"),
    *((f"report.section.{name}_s", "s", "lower") for name in workloads.REPORT_SECTIONS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(Exception):
    """The benchmark could not run: no program in the checkout, or a child crashed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str]) -> subprocess.CompletedProcess:
    """Run a Python process from the checkout root with src/ on its path; stdout is dropped."""
    return subprocess.run(
        [PYTHON, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def run_child(mode: str, spec: dict, workdir: str) -> tuple[dict, float]:
    """Run child.py in a fresh process; returns its result and its wall time from outside."""
    os.makedirs(workdir, exist_ok=True)
    spec = dict(spec, workdir=workdir, result=os.path.join(workdir, f"{mode}.result.json"))
    spec_path = os.path.join(workdir, f"{mode}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    start = time.perf_counter()
    proc = spawn([CHILD, mode, spec_path])
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), wall


def calibrate_each_cpu() -> float:
    """Mean of calibrate() run at the same time on every CPU, one pinned process each."""
    procs = [
        subprocess.Popen([PYTHON, CHILD, "calibrate", str(cpu)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        for cpu in CPUS
    ]
    times = []
    for proc in procs:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"calibration exited {proc.returncode}")
        times.append(float(out))
    return statistics.mean(times)


def measure_setup(workload: str, seed: int) -> Bracketed:
    """Times for a fresh process to import kurepa.cli and build the workload's inputs.

    The caller pins this process, and so its children, to one CPU, so the
    in-process calibrations measure the CPU the samples ran on.
    """
    samples = Bracketed()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = spawn([CHILD, "setup", workload, str(seed)])
        if proc.returncode != 0:
            raise BenchError(f"setup exited {proc.returncode}: {proc.stderr[-2000:]}")
        samples.add(time.perf_counter() - start)
    return samples


def output_path(round_dir: str, index: int) -> str:
    return os.path.join(round_dir, f"op-{index}.txt")


def checkpoint_path(round_dir: str, index: int) -> str:
    return os.path.join(round_dir, f"op-{index}.checkpoint.json")


def command_line(op: list[str], round_dir: str, index: int) -> list[str]:
    argv = [arg.replace("{checkpoint}", checkpoint_path(round_dir, index)) for arg in op]
    return argv + ["--out", output_path(round_dir, index)]


def run_round(workload: str, ops: list[list[str]], round_dir: str, calibrate: bool) -> dict:
    """One round of the workload, untraced.

    wall is the sum of the ops' times, which run back to back. With
    calibrate (only for pinned workloads) a calibration runs on the same
    CPU before the first op and after each, and scaled is the sum of the
    ops' scaled times; calibrations are not counted in wall.
    """
    os.makedirs(round_dir)
    argvs = [command_line(op, round_dir, i) for i, op in enumerate(ops)]
    if workload == "session":
        timer = Bracketed() if calibrate else None
        results = []
        for argv in argvs:
            start = time.perf_counter()
            proc = spawn(["-m", "kurepa", *argv])
            seconds = time.perf_counter() - start
            results.append({"code": proc.returncode, "seconds": seconds, "stderr": proc.stderr})
            if timer:
                timer.add(seconds)
        scaled = sum(timer.scaled()) if timer else None
    else:
        result, _ = run_child("round", {"ops": argvs, "calibrate": calibrate}, round_dir)
        results, scaled = result["ops"], result["scaled"]
    wall = sum(res["seconds"] for res in results)
    return {"wall": wall, "scaled": scaled, "ops": results, "dir": round_dir}


def file_digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def round_digests(rnd: dict, count: int) -> list[str | None]:
    return [file_digest(output_path(rnd["dir"], i)) for i in range(count)]


def op_problems(rnd: dict, inputs: dict) -> list[str]:
    """Exit codes: every op succeeds except the known digit-limit failure."""
    problems = []
    for i, res in enumerate(rnd["ops"]):
        if res["code"] == 0:
            continue
        if i == inputs["expected_failure"] and res["code"] == 2 and workloads.DIGIT_LIMIT_MESSAGE in res["stderr"]:
            continue
        problems.append(f"{checks.label(i, inputs['ops'][i])} exited {res['code']}: {res['stderr'][-300:]}")
    return problems


def outputs_to_check(rnd: dict, ops: list[list[str]]) -> dict:
    found = {}
    for i, res in enumerate(rnd["ops"]):
        if res["code"] == 0:
            with open(output_path(rnd["dir"], i), encoding="utf-8") as fh:
                text = fh.read()
            ck = checkpoint_path(rnd["dir"], i) if "{checkpoint}" in ops[i] else None
            found[i] = (text, ck)
    return found


class Rounds:
    """Runs rounds, keeps the first round's files and compares every later round with it."""

    def __init__(self, workload: str, inputs: dict, workdir: str, scale: bool) -> None:
        """scale: report scaled walls, calibrating in the round when pinned, around it otherwise."""
        self.workload, self.inputs, self.workdir = workload, inputs, workdir
        self.pinned = scale and workload in PINNED
        self.outer = Bracketed(calibrate_each_cpu) if scale and not self.pinned else None
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.op_walls: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict | None = None
        self._digests: list[str | None] = []

    def run(self) -> dict:
        ops = self.inputs["ops"]
        rnd = run_round(self.workload, ops, os.path.join(self.workdir, f"round-{len(self.walls)}"), self.pinned)
        self.walls.append(rnd["wall"])
        if self.outer:
            self.outer.add(rnd["wall"])
            self.scaled.append(self.outer.scaled()[-1])
        elif self.pinned:
            self.scaled.append(rnd["scaled"])
        self.op_walls.append([res["seconds"] for res in rnd["ops"]])
        self.attempted += len(ops)
        self.failed += sum(1 for res in rnd["ops"] if res["code"] != 0)
        self.problems.extend(op_problems(rnd, self.inputs))
        digests = round_digests(rnd, len(ops))
        if self.first is None:
            self.first, self._digests = rnd, digests
        elif digests != self._digests:
            self.problems.append(f"round {len(self.walls) - 1} output differs from round 0")
        return rnd

    def discard(self, rnd: dict) -> None:
        """Remove a round's files, except the first round's, which the checks read."""
        if rnd is not self.first:
            shutil.rmtree(rnd["dir"])

    def check(self, seed: int) -> list[str]:
        return self.problems + checks.check_outputs(self.inputs["ops"], outputs_to_check(self.first, self.inputs["ops"]), seed)


def peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant (ru_maxrss is in KiB on Linux).

    Only children run program code; this process runs none, and leaving it
    out keeps its own numpy import (for the calibration) from flooring the figure.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    os.sched_setaffinity(0, CPUS[-1:])
    setup = measure_setup(workload, seed)
    if workload not in PINNED:
        os.sched_setaffinity(0, CPUS)
    rounds = Rounds(workload, workloads.make_inputs(workload, seed), workdir, scale=True)
    start = time.perf_counter()
    while not rounds.walls or time.perf_counter() - start < seconds:
        rounds.discard(rounds.run())
    peak = peak_rss_mb()
    problems = rounds.check(seed)
    metrics = {
        "wall_s": statistics.median(rounds.scaled),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup.scaled()),
    }
    return {"rounds": rounds, "problems": problems, "metrics": metrics, "spans": []}


# ---------------------------------------------------------------- traced run


def replay(workload: str, ops: list[list[str]], rnd: dict, workdir: str, label: str) -> tuple[list[dict], float, list[str]]:
    """Replay the round's ops layer by layer; returns spans, traced wall and problems.

    session replays each command in its own fresh process and its traced
    wall runs from the first start to the last exit, as in the untraced
    round; the other workloads replay in one process and their traced wall
    is the replay span, first op start to last op end.
    """
    groups = [[i] for i in range(len(ops))] if workload == "session" else [list(range(len(ops)))]
    found: list[dict] = []
    failures: dict[int, str] = {}
    wall = 0.0
    for g, indices in enumerate(groups):
        gdir = os.path.join(workdir, f"group-{g}")
        result, child_wall = run_child("replay", {"ops": [ops[i] for i in indices], "trace_id": f"{label}.replay.{g}"}, gdir)
        found.extend(result["spans"])
        for local, message in result["failures"].items():
            failures[indices[int(local)]] = message
        if workload == "session":
            wall += child_wall
        else:
            wall += spans.total(result["spans"], "replay")
        for local, i in enumerate(indices):
            path = os.path.join(gdir, f"replay-{local}.txt")
            if file_digest(path) != file_digest(output_path(rnd["dir"], i)):
                failures.setdefault(i, "replay output differs from the untraced output")
    problems = []
    for i, res in enumerate(rnd["ops"]):
        message = failures.get(i)
        if (res["code"] == 0) != (message is None) or (message and workloads.DIGIT_LIMIT_MESSAGE not in message):
            problems.append(f"replay of {checks.label(i, ops[i])}: {message or 'succeeded where the command failed'}")
    return found, wall, problems


def median_span(found: list[dict], name: str) -> float:
    return statistics.median(spans.duration(s) for s in found if s["name"] == name)


def layer_metrics(own: list[dict], extra: list[dict], peak_bytes: int, traced_wall: float, untraced_wall: float) -> dict:
    every = own + extra

    def total(name: str) -> float:
        return spans.total(every, name)

    blocks = [s for s in every if s["name"] == "verifier.block_residues"]
    modmuls = spans.count(every, "verifier.block_residues", "modmuls")
    kernel = total("verifier.block_residues")
    m = {
        "verifier.sieve_s": total("verifier.sieve"),
        "verifier.primes": spans.count(every, "verifier.sieve", "primes"),
        "verifier.blocks": len(blocks),
        "verifier.kernel_s": kernel,
        "verifier.kernel_steps": spans.count(every, "verifier.block_residues", "kernel_steps"),
        "verifier.modmuls": modmuls,
        "verifier.lane_use": modmuls / spans.count(every, "verifier.block_residues", "lane_slots"),
        "verifier.kernel_ns_per_modmul": kernel * 1e9 / modmuls,
        "verifier.checkpoint_write_s": total("verifier.checkpoint_write"),
        "verifier.checkpoint_read_s": total("verifier.checkpoint_read"),
        "verifier.checkpoint_bytes": spans.count(every, "verifier.checkpoint_write", "bytes"),
        "verifier.parallel_speedup": total("verifier.replay") / total("verifier.run_search"),
        "sequences.left_factorial_s": total("sequences.left_factorial"),
        "sequences.bell_s": total("sequences.bell"),
        "sequences.derangement_s": total("sequences.derangement"),
        "sequences.complementary_bell_s": total("sequences.complementary_bell"),
        "sequences.complementary_bell_peak_mb": peak_bytes / 2**20,
        "gcdlab.scan_altered_s": total("gcdlab.scan_altered"),
        "decomp.greedy_s": total("decomp.greedy"),
        "decomp.terms": spans.count(every, "decomp.greedy", "terms"),
        "cli.import_s": median_span(every, "cli.import"),
        "cli.render_s": spans.total(own, "cli.render"),
        "cli.output_bytes": spans.count(own, "cli.render", "bytes"),
        "physics.planck_s": total("physics.planck"),
        "physics.ordering_s": total("physics.ordering"),
        "physics.debruijn_s": total("physics.debruijn"),
        "report.cold_s": total("report.cold"),
        "report.warm_s": total("report.warm"),
        "report.rows": spans.count(every, "report.cold", "rows"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in workloads.REPORT_SECTIONS:
        m[f"report.section.{name}_s"] = total(f"report.section.{name}")
    return m


def run_traced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    ops = inputs["ops"]
    rounds = Rounds(workload, inputs, workdir, scale=False)
    per_iteration: list[dict] = []
    all_spans: list[dict] = []
    problems: list[str] = []
    start = time.perf_counter()
    while not per_iteration or time.perf_counter() - start < seconds:
        k = len(per_iteration)
        rnd = rounds.run()
        own, traced_wall, replay_problems = replay(workload, ops, rnd, os.path.join(workdir, f"replay-{k}"), f"it{k}")
        problems.extend(replay_problems)
        rounds.discard(rnd)

        def fresh(mode: str, spec: dict) -> dict:
            return run_child(mode, dict(spec, trace_id=f"it{k}.{mode}"), os.path.join(workdir, f"{mode}-{k}"))[0]

        extra = fresh("probe", {"ops": workloads.probe_ops({s["name"] for s in own})})["spans"]
        extra += fresh("sections", {})["spans"]
        n_hi = workloads.TABLES_INVBELL_HI if workload == "tables" else workloads.PROBE_INVBELL_HI
        peak = fresh("peak", {"n_hi": n_hi})["peak_bytes"]
        per_iteration.append(layer_metrics(own, extra, peak, traced_wall, rnd["wall"]))
        all_spans.extend(own + extra)
    problems = rounds.problems + problems + checks.check_outputs(ops, outputs_to_check(rounds.first, ops), seed)
    metrics = {name: statistics.median(it[name] for it in per_iteration) for name, _, _ in LAYER_METRICS}
    return {"rounds": rounds, "problems": problems, "metrics": metrics, "spans": all_spans}


# ---------------------------------------------------------------- entry point


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="kurepa benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "kurepa", "cli.py")):
        print(f"bench: no kurepa sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        run = run_traced if args.trace else run_untraced
        outcome = run(args.workload, args.seed, args.seconds, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds, problems = outcome["rounds"], outcome["problems"]
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    units = END_TO_END if not args.trace else {name: unit for name, unit, _ in LAYER_METRICS}
    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, round_walls=rounds.walls, scaled_walls=rounds.scaled, op_walls=rounds.op_walls, problems=problems), fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans.with_self_times(outcome["spans"]), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
