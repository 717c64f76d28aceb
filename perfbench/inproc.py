"""``inproc-mix``: the five protocols in a fixed rotation through the
in-process drivers, one query at a time, discovery cache on."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Any

from perfbench import population
from perfbench.common import Clock, Pass, end_to_end, per_layer
from perfbench.report import Report
from perfbench.tracing import Probes, Tracer, recording

SPEC = population.PopulationSpec(
    meters=1000, districts=8, zipf_exponent=1.0, readings_per_meter=1
)
ROTATION = ("s_agg", "rnf_noise", "c_noise", "ed_hist", "basic")
#: Rnf_Noise fakes per true tuple, ED_Hist buckets
NOISE_FAKES = 2
BUCKETS = 4
SELECT_THRESHOLD = 1000
#: one rotation takes about this long on the reference host; a run of
#: ``--seconds`` runs a fixed number of whole rotations derived from it
ROTATION_SECONDS = 5.0
SETUP_REPEATS = 5
TABLES = ("Power", "Consumer")


def rotations_for(seconds: int) -> int:
    return max(1, round(seconds / ROTATION_SECONDS))


@dataclass
class State:
    meters: list[population.Meter]
    deployment: Any
    querier: Any
    cache: Any
    rng: random.Random
    #: HAVING COUNT(*) > min_count drops the smallest districts
    min_count: int
    groups: dict[str, tuple[int, int]]
    selection: list[tuple[int, int]]


def set_up(seed: int, spec: population.PopulationSpec = SPEC) -> State:
    """Population, keys and TDSs, then the discovery sweep that fills the
    cache (the domain for the noise protocols, the histogram for
    ED_Hist)."""
    from repro.protocols import Deployment, DiscoveryCache
    from repro.protocols import discovery_cache

    meters = population.generate(spec, seed)
    deployment = Deployment.build(
        spec.meters, population.database_factory(meters), tables=TABLES, seed=seed
    )
    cache = DiscoveryCache()
    discovery_cache.cached_domain(cache, deployment, "Consumer", "district")
    discovery_cache.cached_histogram(cache, deployment, "Consumer", "district", BUCKETS)
    min_count = population.default_min_count(spec)
    return State(
        meters=meters,
        deployment=deployment,
        querier=deployment.make_querier(),
        cache=cache,
        rng=random.Random(seed + 1),
        min_count=min_count,
        groups=population.expected_groups(meters, min_count),
        selection=population.expected_selection(meters, SELECT_THRESHOLD),
    )


def _driver(state: State, protocol: str) -> Any:
    from repro.protocols import (
        CNoiseProtocol,
        EDHistProtocol,
        RnfNoiseProtocol,
        SAggProtocol,
        SelectWhereProtocol,
    )
    from repro.protocols import discovery_cache

    dep = state.deployment
    common = dict(collectors=dep.tds_list, workers=dep.tds_list, rng=state.rng)
    if protocol == "s_agg":
        return SAggProtocol(dep.ssi, **common)
    if protocol == "basic":
        return SelectWhereProtocol(dep.ssi, **common)
    if protocol in ("rnf_noise", "c_noise"):
        domain = [
            (value,)
            for value in discovery_cache.cached_domain(
                state.cache, dep, "Consumer", "district"
            )
        ]
        if protocol == "rnf_noise":
            return RnfNoiseProtocol(dep.ssi, domain=domain, nf=NOISE_FAKES, **common)
        return CNoiseProtocol(dep.ssi, domain=domain, **common)
    histogram = discovery_cache.cached_histogram(
        state.cache, dep, "Consumer", "district", BUCKETS
    )
    return EDHistProtocol(dep.ssi, histogram=histogram, **common)


def det_tags_seen(observer: Any, query_id: str) -> bool:
    """Whether the SSI observed a Det_Enc group tag for *query_id* in any
    phase (collection, aggregation or filtering)."""
    return any(o.group_tag for o in observer.observations if o.query_id == query_id)


def run_queries(
    state: State, probes: Probes, count: int, rows_seen: list | None = None
) -> tuple[Pass, bool]:
    """Run *count* queries closed loop; returns the pass and whether every
    completed query matched the oracle.  *rows_seen*, when given,
    collects each query's decrypted rows."""
    result = Pass(attempted=count, block=len(ROTATION))
    correct = True
    rounds = driver_bytes = 0
    tlocal: list[int] = []
    group_sql = population.group_sql(state.min_count)
    select_sql = population.select_sql(SELECT_THRESHOLD)
    ssi = state.deployment.ssi
    probes.reset()
    with Clock(result):
        for index in range(count):
            protocol = ROTATION[index % len(ROTATION)]
            started = time.perf_counter()
            if index:
                result.mark()
            try:
                envelope = state.querier.make_envelope(
                    select_sql if protocol == "basic" else group_sql
                )
                ssi.post_query(envelope)
                driver = _driver(state, protocol)
                driver.execute(envelope)
                rows = state.querier.decrypt_result(ssi.fetch_result(envelope.query_id))
            except Exception:  # any error fails this query, the run goes on
                result.failed += 1
                continue
            latency = time.perf_counter() - started
            if rows_seen is not None:
                rows_seen.append(rows)
            if protocol == "basic":
                ok = population.selection_matches(rows, state.selection)
            else:
                ok = population.groups_match(rows, state.groups)
            if protocol == "s_agg":
                # nDet everywhere: the SSI must see no Det_Enc tag at all
                ok = ok and not det_tags_seen(ssi.observer, envelope.query_id)
            if not ok:
                result.failed += 1
                correct = False
                continue
            result.latencies.append(latency)
            rounds += driver.stats.aggregation_rounds
            driver_bytes += driver.stats.bytes_processed
            tlocal.append(max(driver.stats.per_tds_bytes.values(), default=0))
        result.mark()
    result.loadq_bytes = probes.loadq_bytes
    result.extra = {
        "protocols.aggregation_rounds": rounds / count,
        "protocols.tlocal_bytes_max": statistics.fmean(tlocal) if tlocal else 0.0,
        "protocols.discovery_hit_ratio": state.cache.hits
        / max(1, state.cache.hits + state.cache.misses),
        "driver_loadq_bytes": driver_bytes,
    }
    return result, correct


def _measure(seed: int, probes: Probes, count: int, setups: int,
             tracer: Tracer | None = None) -> tuple[Pass, bool, float]:
    """Set up *setups* times (keeping the last), then run *count* queries,
    recorded by *tracer* when one is given.  Returns the pass, whether
    every result was correct and the median set-up time."""
    times = []
    for _ in range(setups):
        started = time.perf_counter()
        state = set_up(seed)
        times.append(time.perf_counter() - started)
    with recording(tracer):
        result, correct = run_queries(state, probes, count)
    return result, correct, statistics.median(times)


def run(seed: int, seconds: int, trace: bool, root: str) -> Report:
    count = rotations_for(seconds) * len(ROTATION)
    probes = Probes()
    probes.install()
    try:
        if not trace:
            result, correct, setup_s = _measure(seed, probes, count, SETUP_REPEATS)
            return Report(correct, result.attempted, result.failed,
                          end_to_end(result, setup_s))
        untraced, correct, _ = _measure(seed, probes, count, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_ok, _ = _measure(seed, probes, count, 1, tracer)
        finally:
            tracer.uninstall()
        return Report(
            correct and traced_ok,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            per_layer(tracer, probes, traced, untraced, traced.extra),
            tracer=tracer,
        )
    finally:
        probes.uninstall()
