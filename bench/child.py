"""One fresh process of the benchmark: python3 bench/child.py <mode> <spec.json>.

Modes:
  calibrate time speed.calibrate() pinned to one CPU and print it
  setup    import kurepa.cli and build the workload's inputs, then exit
  round    run each op through kurepa.cli.main, timing it from outside
  replay   run each op again as direct calls into the layers, with spans
  probe    cold and warm full_report, then ops at README sizes, with spans
  sections each report section function in full_report order, with spans
  peak     tracemalloc peak of complementary_bell over an index range

A spec is a JSON file; every mode except calibrate and setup writes its result as JSON
to spec["result"].
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import spans
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    sys.path.insert(0, SRC)
    import kurepa.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "kurepa") + os.sep):
        raise SystemExit(f"kurepa was imported from {cli.__file__}, not from {SRC}")
    return cli


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def run_round(spec: dict) -> dict:
    """Each op through cli.main; with spec["calibrate"], a calibration before the first op and after each."""
    cli = import_cli()
    timer = speed.Bracketed() if spec["calibrate"] else None
    results = []
    for argv in spec["ops"]:
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        end = time.perf_counter()
        results.append({"code": code, "seconds": end - start, "stderr": err.getvalue()})
        if timer:
            timer.add(end - start)
    return {"ops": results, "scaled": sum(timer.scaled()) if timer else None}


class Replayer:
    """Direct layer calls that rebuild the bytes kurepa.cli writes for an op."""

    def __init__(self, tracer: spans.Tracer, workdir: str) -> None:
        self.tr = tracer
        self.workdir = workdir
        with tracer.span("cli.import"):
            self.cli = import_cli()
        from kurepa import decomp, efactor, gcdlab, physics, report, sequences, verifier

        self.decomp, self.efactor, self.gcdlab = decomp, efactor, gcdlab
        self.physics, self.report, self.sequences, self.verifier = physics, report, sequences, verifier

    def op(self, index: int, argv: list[str]) -> str | None:
        """Replay one op and write its output; returns None, or the error message when rendering fails."""
        with self.tr.span("op." + argv[0]):
            lines = getattr(self, "_" + argv[0].replace("-", "_"))(index, argv)
            with self.tr.span("cli.render") as rec:
                try:
                    text = lines()
                except ValueError as exc:
                    return str(exc)
                rec["counts"]["bytes"] = len(text.encode("utf-8"))
        with open(os.path.join(self.workdir, f"replay-{index}.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return None

    def plain(self, lines):
        return lambda: self.cli.render_plain([str(line) for line in lines])

    def _verify(self, index, argv):
        v = self.verifier
        lo, hi = int(argv[1]), int(argv[2])
        with self.tr.span("verifier.replay"):
            with self.tr.span("verifier.sieve") as rec:
                primes = list(v.sieve_primes(lo, hi))
            rec["counts"]["primes"] = len(primes)
            width = v.DEFAULT_LANES
            residues: list[int] = []
            for at in range(0, len(primes), width):
                block = primes[at : at + width]
                steps = block[-1] - 1
                useful = sum(p - 1 for p in block)
                with self.tr.span("verifier.block_residues", kernel_steps=steps, modmuls=useful, lane_slots=steps * len(block)):
                    residues.extend(v.block_residues(block))
            with self.tr.span("verifier.fold"):
                hist = [0] * v.HISTOGRAM_BUCKETS
                found = []
                for p, r in zip(primes, residues):
                    hist[v.HISTOGRAM_BUCKETS * r // p] += 1
                    if r == 0 and p > 2:
                        found.append(p)
            ck = v.SearchCheckpoint(
                lo=lo,
                hi=hi,
                last_completed=hi,
                counterexamples=found,
                histogram=hist if "--histogram" in argv else None,
                finished=True,
            )
            path = os.path.join(self.workdir, f"replay-{index}.checkpoint.json")
            with self.tr.span("verifier.checkpoint_write") as rec:
                v.save_checkpoint(ck, path)
            rec["counts"]["bytes"] = os.path.getsize(path)
            with self.tr.span("verifier.checkpoint_read"):
                ck = v.load_checkpoint(path)
            with self.tr.span("verifier.canonical_report"):
                line = v.canonical_report(ck)
        return self.plain([line])

    _SEQ_SPANS = {
        "left_factorial": "sequences.left_factorial",
        "bell": "sequences.bell",
        "derangement": "sequences.derangement",
        "invbell": "sequences.complementary_bell",
        "dobinski": "efactor.dobinski",
    }

    def _seq(self, index, argv):
        name, lo, hi = argv[1], int(argv[2]), int(argv[3])
        func = self.cli.SEQUENCES[name][0]
        with self.tr.span(self._SEQ_SPANS[name]):
            values = [func(n) for n in range(lo, hi + 1)]
        return self.plain(values)

    def _gcd_scan(self, index, argv):
        with self.tr.span("gcdlab.scan_altered"):
            scan = self.gcdlab.scan_altered(int(argv[1]), range(int(argv[2]) + 1))
        return self.plain(f"{row.n} {row.value}" for row in scan)

    def _decomp(self, index, argv):
        with self.tr.span("decomp.greedy") as rec:
            terms = self.decomp.greedy_bell_decomposition(int(argv[1]))
        rec["counts"]["terms"] = len(terms)
        if flag(argv, "--format") == "csv":
            bell = self.sequences.bell
            rows = [["bell", idx, coeff, bell(idx)] for idx, coeff in terms]
            return lambda: self.cli.render_csv(["basis", "index", "coefficient", "value"], rows)
        return self.plain(f"{coeff}*bell_{idx}" for idx, coeff in terms)

    def _report(self, index, argv):
        with self.tr.span("report.full_report") as rec:
            reports = self.report.full_report()
        rec["counts"]["rows"] = len(reports)
        rows = [[r.claim_id, r.location, r.claimed, r.computed, r.status] for r in reports]
        return lambda: self.cli.render_csv(["claim_id", "location", "claimed", "computed", "status"], rows)

    def _physics(self, index, argv):
        ph, fmt = self.physics, self.efactor.format_significant
        mode = argv[1]
        if mode == "occupation":
            with self.tr.span("physics.planck"):
                rows = [
                    [fmt(x, 15), fmt(ph.occupation(x, 1), 15), fmt(ph.occupation(x, -1), 15), fmt(ph.planck_identity_gap(x), 15)]
                    for x in self.report.PLANCK_SAMPLE_X
                ]
        elif mode == "ordering":
            with self.tr.span("physics.ordering"):
                rows = []
                for n in range(1, self.cli.ORDERING_MAX_N + 1):
                    nrm, anm = ph.normal_ordering(n), ph.antinormal_ordering(n)
                    rows.append(
                        [
                            n,
                            "_".join(str(nrm.coefficient(k)) for k in range(1, n + 1)),
                            "_".join(str(anm.coefficient(k)) for k in range(1, n + 1)),
                        ]
                    )
        else:
            with self.tr.span("physics.debruijn"):
                reps = [ph.debruijn_bound_check(n) for n in self.report.DEBRUIJN_SAMPLE_N]
                rows = [[n, r.claimed, r.computed, r.status] for n, r in zip(self.report.DEBRUIJN_SAMPLE_N, reps)]
        return self.plain(" ".join(str(cell) for cell in row) for row in rows)

    def _log(self, index, argv):
        with self.tr.span("decomp.log_left_factorial"):
            value = self.decomp.log_left_factorial(int(argv[1]), base=flag(argv, "--base", "e"), digits=15)
        return self.plain([value])

    def baseline(self, index: int, argv: list[str]) -> None:
        """The 2-worker run_search on the op's range, untraced inside: the parallel baseline."""
        path = os.path.join(self.workdir, f"baseline-{index}.checkpoint.json")
        with self.tr.span("verifier.run_search"):
            self.verifier.run_search(
                int(argv[1]), int(argv[2]), workers=2, histogram="--histogram" in argv, checkpoint_path=path
            )


def run_replay(spec: dict, tracer: spans.Tracer, replayer: Replayer | None = None) -> dict:
    replayer = replayer or Replayer(tracer, spec["workdir"])
    failures = {}
    with tracer.span("replay"):
        for index, argv in enumerate(spec["ops"]):
            message = replayer.op(index, argv)
            if message is not None:
                failures[index] = message
    for index, argv in enumerate(spec["ops"]):
        if argv[0] == "verify":
            replayer.baseline(index, argv)
    return {"failures": failures}


def run_probe(spec: dict, tracer: spans.Tracer) -> dict:
    replayer = Replayer(tracer, spec["workdir"])
    for name in ("report.cold", "report.warm"):
        with tracer.span(name) as rec:
            rec["counts"]["rows"] = len(replayer.report.full_report())
    return run_replay(spec, tracer, replayer)


def run_sections(spec: dict, tracer: spans.Tracer) -> dict:
    import_cli()
    from kurepa import report

    rows = 0
    for name in workloads.REPORT_SECTIONS:
        with tracer.span("report.section." + name):
            rows += len(getattr(report, name)())
    return {"rows": rows}


def run_peak(spec: dict) -> dict:
    import tracemalloc

    import_cli()
    from kurepa.sequences import complementary_bell

    tracemalloc.start()
    for n in range(spec["n_hi"] + 1):
        complementary_bell(n)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"peak_bytes": peak}


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "calibrate":
        os.sched_setaffinity(0, {int(argv[2])})
        print(speed.calibrate())
        return 0
    if mode == "setup":
        import_cli()
        workloads.make_inputs(argv[2], int(argv[3]))
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = spans.Tracer(spec.get("trace_id", mode))
    if mode == "round":
        result = run_round(spec)
    elif mode == "replay":
        result = run_replay(spec, tracer)
    elif mode == "probe":
        result = run_probe(spec, tracer)
    elif mode == "sections":
        result = run_sections(spec, tracer)
    elif mode == "peak":
        result = run_peak(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
