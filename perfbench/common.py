"""What every workload shares: the run record, timing summaries and the
reduction of a traced pass to per-layer metrics."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.tracing import Probes, Tracer

#: scratch space inside the checkout (spans, data directories)
OUT_DIR = ".perfbench_out"


def out_dir(root: str) -> str:
    path = os.path.join(root, OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples
    (steadier than the nearest rank when a run holds few queries)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One timed section: a fixed list of queries run closed loop."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    loadq_bytes: int = 0
    #: workload-specific per-query figures (rounds, contributions, wire bytes ...)
    extra: dict[str, float] = field(default_factory=dict)
    #: (wall, cpu) when the pass began and after each query ended
    begin: tuple[float, float] = (0.0, 0.0)
    marks: list[tuple[float, float]] = field(default_factory=list)
    #: queries per block for the block medians
    block: int = 1

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time()))

    def block_medians(self) -> tuple[float, float]:
        """Median wall and CPU seconds of one block of ``block`` consecutive
        query completions.  Medians over blocks keep a transient stall of
        the host from moving the whole run's figure."""
        points = [self.begin] + self.marks[self.block - 1 :: self.block]
        walls = [b[0] - a[0] for a, b in zip(points, points[1:])]
        cpus = [b[1] - a[1] for a, b in zip(points, points[1:])]
        return statistics.median(walls), statistics.median(cpus)


class Clock:
    """Brackets a pass: records where it began (wall, process CPU over
    all threads) and its wall time."""

    def __init__(self, result: Pass) -> None:
        self.result = result

    def __enter__(self) -> "Clock":
        self.result.begin = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc: Any) -> None:
        self.result.wall_s = time.perf_counter() - self.result.begin[0]


def end_to_end(result: Pass, setup_s: float) -> dict[str, tuple[float, str]]:
    """Throughput and CPU are medians over blocks of queries; latency
    percentiles are over every query that completed correctly."""
    done = max(1, result.attempted)
    block_wall, block_cpu = result.block_medians()
    latencies = result.latencies or [result.wall_s]
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (result.block / block_wall, "1/s"),
        "query_s_p50": (statistics.median(latencies), "s"),
        "query_s_p90": (p90(latencies), "s"),
        "cpu_s_per_query": (block_cpu / result.block, "s"),
        "loadq_bytes_per_query": (result.loadq_bytes / done, "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


#: per-layer metrics that are self times of one span name
SELF_TIME_METRICS = {
    "sql.parse_s": "sql.parse",
    "sql.exec_s": "sql.exec",
    "tds.open_s": "tds.open",
    "tds.collect_s": "tds.collect",
    "tds.aggregate_s": "tds.aggregate",
    "tds.filter_s": "tds.filter",
    "crypto.seal_s": "crypto.seal",
    "crypto.open_s": "crypto.open",
    "codec.encode_s": "codec.encode",
    "codec.decode_s": "codec.decode",
    "protocols.discovery_s": "protocols.discovery",
    "protocols.driver_s": "protocols.driver",
    "querier.envelope_s": "querier.envelope",
    "querier.decrypt_s": "querier.decrypt",
    "ssi.facade_s": "ssi.facade",
    "ssi.admission_s": "ssi.admission",
    "ssi.dispatch_cpu_s": "ssi.dispatch",
    "net.rpc_cpu_s": "net.rpc",
    "store.append_s": "store.append",
    "store.sync_cpu_s": "store.sync",
}

PER_LAYER_UNITS = {
    "sql.parse_calls": "count",
    "crypto.bytes": "bytes",
    "codec.calls": "count",
    "protocols.discovery_hit_ratio": "ratio",
    "protocols.aggregation_rounds": "count",
    "protocols.tlocal_bytes_max": "bytes",
    "ssi.calls": "count",
    "ssi.requests": "count",
    "ssi.dispatch_s": "s",
    "net.rpc_s": "s",
    "net.rpc_wait_s": "s",
    "net.tds_wire_bytes": "bytes",
    "net.poll_useful_ratio": "ratio",
    "ssi.admission_rejections": "count",
    "store.appends": "count",
    "store.append_bytes": "bytes",
    "store.syncs": "count",
    "store.sync_s": "s",
    "store.recovery_s": "s",
    "fleet.contributions": "count",
    "fleet.partitions": "count",
    "ledger.wall_s": "s",
    "ledger.residual_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
    **{name: "s" for name in SELF_TIME_METRICS},
}


def per_layer(
    tracer: Tracer,
    probes: Probes,
    traced: Pass,
    untraced: Pass,
    extra: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Reduce the traced pass to per-query layer figures.  The self-time
    metrics plus ``ledger.residual_s`` add up to ``ledger.wall_s``."""
    queries = max(1, traced.attempted)
    self_s = tracer.self_seconds()
    wall = tracer.wall_seconds()
    values: dict[str, float] = {
        metric: self_s.get(span, 0.0) / queries
        for metric, span in SELF_TIME_METRICS.items()
    }
    covered = sum(self_s.values())
    values["ledger.wall_s"] = traced.wall_s / queries
    values["ledger.residual_s"] = (traced.wall_s - covered) / queries
    values["sql.parse_calls"] = tracer.calls["sql.parse"] / queries
    values["crypto.bytes"] = tracer.counts["crypto.bytes"] / queries
    values["codec.calls"] = tracer.counts["codec.calls"] / queries
    values["ssi.calls"] = tracer.calls["ssi.facade"] / queries
    values["ssi.requests"] = tracer.calls["ssi.dispatch"] / queries
    values["ssi.dispatch_s"] = wall.get("ssi.dispatch", 0.0) / queries
    values["net.rpc_s"] = wall.get("net.rpc", 0.0) / queries
    values["net.rpc_wait_s"] = values["net.rpc_s"] - values["ssi.dispatch_s"]
    polls = tracer.counts["net.polls"]
    useful = tracer.counts["net.useful_fetches"] + (probes.contributions if polls else 0)
    values["net.poll_useful_ratio"] = useful / polls if polls else 0.0
    values["ssi.admission_rejections"] = tracer.errors["ssi.admission"] / queries
    values["store.appends"] = tracer.calls["store.append"] / queries
    values["store.append_bytes"] = tracer.counts["store.append_bytes"] / queries
    values["store.syncs"] = tracer.calls["store.fsync"] / queries
    values["store.sync_s"] = (
        tracer.offthread_s["store.fsync"] + wall.get("store.fsync", 0.0)
    ) / queries
    values["trace.spans"] = tracer.span_count() / queries
    values["trace.overhead_pct"] = 100.0 * (
        (traced.wall_s / queries) / (untraced.wall_s / max(1, untraced.attempted)) - 1.0
    )
    values.update(extra)
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}
