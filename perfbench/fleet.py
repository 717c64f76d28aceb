"""The served workloads: an SSI over loopback TCP, a fleet of TDS clients
and closed-loop queriers, all on one event loop in this process.

* ``fleet-durable`` — the SSI journals to a ``DurableStore`` with
  ``group`` fsync; several hundred TDSs; S_Agg and ED_Hist alternate,
  two queries outstanding, each SIZE covering the whole population.
* ``fleet-many`` — the SSI runs in memory with admission quotas and the
  weighted round-robin drain; 32 TDSs; four querier subjects, one query
  outstanding each, many short queries.

``FleetRunner`` opens one connection per TDS; here every TDS client
shares one pipelined ``TCPTransport`` (:class:`SharedTransport`), and
the queriers share a second one, so the process holds two client
connections.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench import population
from perfbench.common import Clock, Pass, end_to_end, out_dir, per_layer
from perfbench.report import Report
from perfbench.tracing import Probes, Tracer, recording

PROTOCOLS = ("s_agg", "ed_hist")
BUCKETS = 4
HOST = "127.0.0.1"
BATCH_TUPLES = 64
BATCH_FLUSH = 0.005
WINDOW = 32
QUERIER_POLL = 0.01
REQUEST_TIMEOUT = 30.0
#: a query still unanswered this long after the run began fails, so a
#: stalled program ends the run in bounded time
RUN_DEADLINE = 150.0
#: long enough that no partition is reassigned under this load
PARTITION_TIMEOUT = 60.0
SETUP_REPEATS = 5
RECOVERY_REPEATS = 3


@dataclass(frozen=True)
class FleetConfig:
    name: str
    spec: population.PopulationSpec
    durable: bool
    #: querier subject index of each closed loop (one outstanding query each)
    loops: tuple[int, ...]
    #: queries per second on the reference host; a run of ``--seconds``
    #: runs a fixed number of whole rounds (one query per loop) from it
    nominal_rate: float
    min_queries: int
    #: how often each TDS polls; long enough that polling leaves the
    #: event loop unsaturated, so time figures follow the work rather
    #: than queueing behind idle polls
    poll_interval: float
    drain_quantum: int = 0
    admission: dict[str, Any] = field(default_factory=dict)

    def rounds_for(self, seconds: int) -> int:
        rounds = round(seconds * self.nominal_rate / len(self.loops))
        return max(rounds, -(-self.min_queries // len(self.loops)), 1)


CONFIGS = {
    "fleet-durable": FleetConfig(
        name="fleet-durable",
        spec=population.PopulationSpec(
            meters=300, districts=8, zipf_exponent=1.0, readings_per_meter=1
        ),
        durable=True,
        loops=(0, 0),
        nominal_rate=1.2,
        min_queries=2,
        # 300 TDSs polling every 0.5 s still pick up a new round's
        # partitions within milliseconds
        poll_interval=0.5,
    ),
    "fleet-many": FleetConfig(
        name="fleet-many",
        spec=population.PopulationSpec(
            meters=32, districts=4, zipf_exponent=1.0, readings_per_meter=1
        ),
        durable=False,
        loops=(0, 1, 2, 3),
        nominal_rate=10.0,
        min_queries=100,
        poll_interval=0.1,
        drain_quantum=4,
        # quotas the load never reaches: one outstanding query per subject
        admission=dict(
            max_active_queries=2,
            max_pending_bytes=8 << 20,
            weights={"analyst-0": 2},
        ),
    ),
}


class SharedTransport:
    """Every TDS client's transport: one pipelined connection.  Closing a
    client leaves it open; :class:`Served` closes it.  Counts the frames
    and bytes the fleet moves."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.requests = 0
        self.wire_bytes = 0

    async def request(self, message: bytes) -> bytes:
        self.requests += 1
        response = await self.inner.request(message)
        self.wire_bytes += len(message) + len(response)
        return response

    async def reset(self) -> None:
        await self.inner.reset()

    async def close(self) -> None:
        return None


class Served:
    """One SSI, its fleet and its queriers, started and stopped as a unit."""

    def __init__(self, cfg: FleetConfig, seed: int, root: str, deadline: float) -> None:
        self.cfg = cfg
        self.seed = seed
        #: perf_counter time after which waiting queries fail
        self.deadline = deadline
        self.data_dir = os.path.join(out_dir(root), f"data-{os.getpid()}-{id(self)}")
        self.store: Any = None
        self.server: Any = None
        self.fleet: Any = None
        self.fleet_task: asyncio.Task[Any] | None = None
        self.shared: SharedTransport | None = None
        self.client: Any = None

    async def start(self) -> None:
        from repro.net.client import QuerierClient, RetryPolicy
        from repro.net.fleet import FleetRunner
        from repro.net.server import SSIDispatcher, SSIServer
        from repro.net.transport import TCPTransport
        from repro.protocols import Deployment, DiscoveryCache
        from repro.protocols import discovery_cache
        from repro.ssi.admission import AdmissionPolicy
        from repro.store import DurableStore

        cfg, spec = self.cfg, self.cfg.spec
        self.meters = population.generate(spec, self.seed)
        deployment = Deployment.build(
            spec.meters, population.database_factory(self.meters),
            tables=("Power", "Consumer"), seed=self.seed,
        )
        histogram = discovery_cache.cached_histogram(
            DiscoveryCache(), deployment, "Consumer", "district", BUCKETS
        )
        self.queriers = [
            deployment.make_querier(subject=f"analyst-{index}")
            for index in sorted(set(cfg.loops))
        ]
        if cfg.durable:
            self.store = DurableStore.open(self.data_dir, fsync_policy="group")
            self.dispatcher = SSIDispatcher.with_store(
                self.store, partition_timeout=PARTITION_TIMEOUT
            )
        else:
            self.dispatcher = SSIDispatcher(
                partition_timeout=PARTITION_TIMEOUT,
                admission=AdmissionPolicy(**cfg.admission),
                drain_quantum=cfg.drain_quantum,
            )
        self.server = SSIServer(self.dispatcher, HOST, 0)
        await self.server.start()
        policy = RetryPolicy(request_timeout=REQUEST_TIMEOUT, backoff_base=0.01)
        shared = self.shared = SharedTransport(
            TCPTransport(HOST, self.server.port, window=WINDOW)
        )
        self.fleet = FleetRunner(
            deployment.tds_list,
            lambda: shared,
            histogram=histogram,
            policy=policy,
            poll_interval=cfg.poll_interval,
            batch_size=BATCH_TUPLES,
            batch_flush_interval=BATCH_FLUSH,
            rng=random.Random(self.seed + 2),
        )
        self.fleet_task = asyncio.create_task(self.fleet.run())
        self.client = QuerierClient(
            TCPTransport(HOST, self.server.port, window=WINDOW),
            policy,
            rng=random.Random(self.seed + 3),
        )
        await self.client.hello()
        # connected once every TDS has made its first poll
        deadline = time.perf_counter() + REQUEST_TIMEOUT
        while shared.requests < spec.meters:
            if time.perf_counter() > deadline or self.fleet_task.done():
                raise RuntimeError("the fleet did not connect")
            await asyncio.sleep(0.005)

    async def warm_up(self, probes: Probes) -> None:
        """One untimed round, one query per loop: lazy set-up on every
        path (server handlers, coordinators, cipher contexts) finishes
        before the timed queries, which report any fault it met."""
        await self.run_queries(probes, 1)

    async def stop_fleet(self) -> None:
        if self.fleet_task is not None:
            self.fleet.stop()
            await self.fleet_task
            self.fleet_task = None

    async def close(self) -> None:
        await self.stop_fleet()
        if self.client is not None:
            await self.client.close()
        if self.shared is not None:
            await self.shared.inner.close()
        if self.server is not None:
            await self.server.close()
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        for index in range(RECOVERY_REPEATS):
            shutil.rmtree(f"{self.data_dir}-copy{index}", ignore_errors=True)

    async def restart_check(self) -> tuple[bool, float]:
        """After the last acknowledged write: copy the data directory,
        time ``DurableStore.open`` on each copy, and check that the
        recovered commitment equals the one the clients last observed and
        that ``verify_data_dir`` finds the copy sound."""
        from repro.exceptions import ReproError
        from repro.store import DurableStore, verify_data_dir

        await self.stop_fleet()
        # Proves the chain still extends what this client observed, and
        # returns the head every acknowledged write is under.
        observed = await self.client.verify_freshness()
        copies = []
        for index in range(RECOVERY_REPEATS):
            copy = f"{self.data_dir}-copy{index}"
            shutil.copytree(self.data_dir, copy)
            copies.append(copy)
        seconds = []
        try:
            report = verify_data_dir(copies[0])
            ok = (
                observed is not None
                and report["commitment_count"] == observed.count
                and report["commitment_head"] == observed.head.hex()
            )
            for copy in copies:
                started = time.perf_counter()
                store = DurableStore.open(copy, fsync_policy="group")
                seconds.append(time.perf_counter() - started)
                try:
                    ok = ok and store.commitment() == observed
                finally:
                    store.close()
        except ReproError:  # a corrupt or unrecoverable copy
            return False, 0.0
        return ok, statistics.median(seconds)

    async def run_queries(self, probes: Probes, rounds: int) -> tuple[Pass, bool]:
        from repro.net.frames import QueryMeta

        cfg = self.cfg
        min_count = population.default_min_count(cfg.spec)
        sql = population.group_sql(min_count, size=population.total_readings(self.meters))
        expected = population.expected_groups(self.meters, min_count)
        attempted = rounds * len(cfg.loops)
        # eight blocks of completions per pass (whole rounds when fewer)
        result = Pass(attempted=attempted, block=max(len(cfg.loops), attempted // 8))
        correct = True
        query_ids: list[str] = []

        async def loop(position: int, subject: int) -> None:
            nonlocal correct
            querier = self.queriers[subject]
            for index in range(rounds):
                protocol = PROTOCOLS[(index + position) % len(PROTOCOLS)]
                started = time.perf_counter()
                try:
                    envelope = querier.make_envelope(sql)
                    await self.client.post_query(envelope, meta=QueryMeta(protocol, {}))
                    published = await self.client.wait_result(
                        envelope.query_id, poll_interval=QUERIER_POLL,
                        timeout=max(0.0, self.deadline - time.perf_counter()),
                    )
                    rows = querier.decrypt_result(published)
                except Exception:  # error or timeout: this query failed
                    result.mark()
                    result.failed += 1
                    continue
                result.mark()
                latency = time.perf_counter() - started
                query_ids.append(envelope.query_id)
                if not population.groups_match(rows, expected):
                    result.failed += 1
                    correct = False
                    continue
                result.latencies.append(latency)

        assert self.shared is not None
        stats = self.fleet.stats
        before = (stats.contributions, stats.partitions_processed, self.shared.wire_bytes)
        probes.reset()
        with Clock(result):
            await asyncio.gather(
                *(loop(position, subject) for position, subject in enumerate(cfg.loops))
            )
        result.loadq_bytes = probes.loadq_bytes
        queries = result.attempted
        coordinators = self.dispatcher.coordinators
        result.extra = {
            "fleet.contributions": (stats.contributions - before[0]) / queries,
            "fleet.partitions": (stats.partitions_processed - before[1]) / queries,
            "net.tds_wire_bytes": (self.shared.wire_bytes - before[2]) / queries,
            "protocols.aggregation_rounds": sum(
                coordinators[qid].stats.aggregation_rounds
                for qid in query_ids if qid in coordinators
            ) / queries,
            # the busiest TDS over the pass, per query
            "protocols.tlocal_bytes_max": max(probes.per_tds.values(), default=0) / queries,
        }
        return result, correct


async def _measure(cfg: FleetConfig, seed: int, rounds: int, root: str,
                   probes: Probes, setups: int, deadline: float,
                   tracer: Tracer | None = None) -> tuple[Pass, bool, float, float]:
    """Set up *setups* times (keeping the last), run the queries, recorded
    by *tracer* when one is given, then the restart check.  Returns the
    pass, correctness, the median set-up time and the recovery time."""
    times = []
    served = None
    for attempt in range(setups):
        started = time.perf_counter()
        served = Served(cfg, seed, root, deadline)
        try:
            await served.start()
            await served.warm_up(probes)
        except BaseException:
            await served.close()
            raise
        times.append(time.perf_counter() - started)
        if attempt < setups - 1:
            await served.close()
    assert served is not None
    try:
        with recording(tracer):
            result, correct = await served.run_queries(probes, rounds)
        recovery_s = 0.0
        if cfg.durable:
            restart_ok, recovery_s = await served.restart_check()
            correct = correct and restart_ok
    finally:
        await served.close()
    return result, correct, statistics.median(times), recovery_s


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> Report:
    cfg = CONFIGS[workload]
    rounds = cfg.rounds_for(seconds)
    deadline = time.perf_counter() + RUN_DEADLINE
    probes = Probes()
    probes.install()
    try:
        if not trace:
            result, correct, setup_s, _ = asyncio.run(
                _measure(cfg, seed, rounds, root, probes, SETUP_REPEATS, deadline)
            )
            return Report(correct, result.attempted, result.failed,
                          end_to_end(result, setup_s))
        untraced, correct, _, recovery_s = asyncio.run(
            _measure(cfg, seed, rounds, root, probes, 1, deadline)
        )
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_ok, _, _ = asyncio.run(
                _measure(cfg, seed, rounds, root, probes, 1, deadline, tracer)
            )
        finally:
            tracer.uninstall()
        extra = dict(traced.extra)
        extra["store.recovery_s"] = recovery_s
        return Report(
            correct and traced_ok,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            per_layer(tracer, probes, traced, untraced, extra),
            tracer=tracer,
        )
    finally:
        probes.uninstall()
