"""The traced-run wrappers change no result, restore what they replace,
and their ledger adds up to wall time."""

import asyncio
import math
import time

import pytest

from perfbench import fleet, inproc
from perfbench.population import PopulationSpec
from perfbench.tracing import Probes, Tracer, recording

SMALL = PopulationSpec(meters=60, districts=4, zipf_exponent=1.0, readings_per_meter=2)


def _inproc_rows(tracer=None):
    probes = Probes()
    probes.install()
    try:
        state = inproc.set_up(5, SMALL)
        rows = []
        with recording(tracer):
            result, correct = inproc.run_queries(state, probes, len(inproc.ROTATION), rows)
        return result, correct, rows, probes
    finally:
        probes.uninstall()


def _canonical(rows):
    return [sorted(sorted(row.items()) for row in query) for query in rows]


def test_results_identical_with_and_without_tracing():
    plain, plain_ok, plain_rows, _ = _inproc_rows()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_ok, traced_rows, _ = _inproc_rows(tracer)
    finally:
        tracer.uninstall()
    assert plain_ok and traced_ok
    assert plain.failed == traced.failed == 0
    assert _canonical(plain_rows) == _canonical(traced_rows)
    assert plain.loadq_bytes == traced.loadq_bytes
    assert tracer.span_count() > 0


def test_uninstall_restores_originals():
    import repro.core.codec as codec
    import repro.core.wire as wire
    from repro.sql import parser
    from repro.tds import node

    before = (parser.parse, node.parse, codec.decode, wire.decode,
              node.TrustedDataServer.__dict__["aggregate_partition"])
    tracer = Tracer()
    tracer.install()
    assert node.parse is not before[1] and wire.decode is not before[3]
    tracer.uninstall()
    after = (parser.parse, node.parse, codec.decode, wire.decode,
             node.TrustedDataServer.__dict__["aggregate_partition"])
    assert all(a is b for a, b in zip(before, after))


def test_ledger_adds_up_and_self_times_are_positive():
    tracer = Tracer()
    tracer.install()
    try:
        result, correct, _, _ = _inproc_rows(tracer)
    finally:
        tracer.uninstall()
    assert correct
    self_s = tracer.self_seconds()
    assert all(value >= -1e-6 for value in self_s.values())
    assert sum(self_s.values()) <= result.wall_s
    for layer in ("sql.parse", "tds.collect", "crypto.seal", "codec.encode"):
        assert self_s[layer] > 0
    assert tracer.calls["sql.parse"] >= SMALL.meters


def test_probe_loadq_matches_driver_accounting():
    result, correct, _, _ = _inproc_rows()
    assert correct
    assert result.loadq_bytes == result.extra["driver_loadq_bytes"]


def test_fleet_results_correct_with_tracing(tmp_path):
    cfg = fleet.FleetConfig(
        name="fleet-test",
        spec=PopulationSpec(meters=8, districts=2, zipf_exponent=1.0, readings_per_meter=1),
        durable=True,
        loops=(0, 0),
        nominal_rate=1.0,
        min_queries=2,
        poll_interval=0.02,
    )
    deadline = time.perf_counter() + 60
    probes = Probes()
    probes.install()
    tracer = Tracer()
    tracer.install()
    try:
        untraced, untraced_ok, _, recovery_s = asyncio.run(
            fleet._measure(cfg, 4, 1, str(tmp_path), probes, 1, deadline)
        )
        traced, traced_ok, _, _ = asyncio.run(
            fleet._measure(cfg, 4, 1, str(tmp_path), probes, 1, deadline, tracer)
        )
    finally:
        tracer.uninstall()
        probes.uninstall()
    assert untraced_ok and traced_ok
    assert untraced.failed == traced.failed == 0
    assert recovery_s > 0
    # Served partitions form in arrival order, so the partials' sizes (and
    # LoadQ) vary a little from run to run; the rows may not.
    assert abs(untraced.loadq_bytes - traced.loadq_bytes) <= 0.05 * untraced.loadq_bytes
    assert tracer.calls["ssi.dispatch"] > 0 and tracer.calls["store.append"] > 0
    wall = tracer.wall_seconds()
    assert math.isfinite(wall["net.rpc"]) and wall["net.rpc"] >= wall["ssi.dispatch"]


def test_missing_target_fails_install(monkeypatch):
    from perfbench import tracing

    monkeypatch.setattr(
        tracing, "LAYERS",
        tracing.LAYERS + (("tds.collect", "repro.tds.node", "TrustedDataServer",
                           ("no_such_method",)),),
    )
    tracer = Tracer()
    with pytest.raises(tracing.MissingTarget):
        tracer.install()
    tracer.uninstall()
