"""Run the benchmark over workloads and seeds and print one table each.

    python3 bench/report.py                          # all three workloads, seed 0, untraced and traced
    python3 bench/report.py --workloads route --seeds 0 1 2 3 4 --trace 0

Each run is ``bench/run.py`` in its own process, one after another. With
two or more seeds the table gives the median, the quartiles and their
distance as a share of the median (``statistics.quantiles(n=4)``), which
is the run-to-run spread a metric's bound in BENCHMARK.json must cover.
Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for trace in args.trace:
        for workload in args.workloads:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in args.seeds:
                command = [
                    sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} failed={result['failed']}")
                    print("\n".join(line for line in lines if line.startswith("gate ")))
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            print(f"\n== {workload}, trace {trace}, seeds {args.seeds}, {args.seconds} s per run")
            print(f"{'metric':36} {'unit':>11} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
            for name, series in values.items():
                median = statistics.median(series)
                q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median, 0, median)
                spread = (q3 - q1) / median if median else 0.0
                bound = f"{bounds[name]:.2f}" if name in bounds else ""
                print(f"{name:36} {units[name]:>11} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
