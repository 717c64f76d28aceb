"""The benchmark of the query path: three closed-loop workloads, their
end-to-end metrics and a traced per-layer ledger.  Run it with
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root."""
