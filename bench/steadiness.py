"""Run the benchmark on several seeds and report the spread of each end-to-end metric.

    python3 bench/steadiness.py --workloads search frontier tables session --seeds 10 --first-seed 1

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json, plus the failed share of operations.
Raw results go to bench/out/steadiness-<stamp>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs = raw.setdefault(workload, [])
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd], cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, failed share {sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {(q3 - q1) / q2:.3f}  bound {bound}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
