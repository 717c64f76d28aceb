"""Steadiness check: run one workload k times, each in its own process
with its own seed (1 to k) for ``run_seconds`` from ``BENCHMARK.json``,
and print every metric's median, quartiles and run-to-run spread next to
its bound.

    python3 perfbench/steady.py --workload fleet-many --runs 10

The spread is (Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A metric is steady
when its spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"run with seed {seed} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, benchmark["run_seconds"])
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    steady = all(r["correct"] for r in results) and len(shares) == 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else "UNSTEADY"
        steady = steady and verdict == "steady"
        print(f"{name:32s} {median:14.6f} {q1:14.6f} {q3:14.6f} {spread:8.4f} "
              f"{bound:>6}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
