"""Run one workload of the benchmark.

    python3 perfbench/run.py --workload inproc-mix --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload untraced and then traced, prints the per-layer ledger with the
tracing overhead and writes the spans under ``.perfbench_out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("inproc-mix", "fleet-durable", "fleet-many")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    # The script's own directory is on sys.path; the benchmark's modules
    # are imported as the ``perfbench`` package instead.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from perfbench import common, fleet, inproc

    if args.workload == "inproc-mix":
        report = inproc.run(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        report = fleet.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if report.tracer is not None:
        path = os.path.join(
            common.out_dir(ROOT), f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        )
        report.tracer.write(path)
        print(f"spans: {report.tracer.span_count()} written to {path}")
    print(f"workload {args.workload}: {report.attempted} queries attempted, "
          f"{report.failed} failed, outputs {'correct' if report.correct else 'WRONG'}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    print(report.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
