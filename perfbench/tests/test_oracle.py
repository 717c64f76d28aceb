"""The oracle against a population small enough to count by hand, and
against the program on a small seeded deployment."""

import random

from perfbench import population
from perfbench.population import Meter, PopulationSpec

HAND = [
    Meter(0, "district-00", "flat", (100, 300)),
    Meter(1, "district-00", "detached house", (1200,)),
    Meter(2, "district-01", "terraced house", (400,)),
    Meter(3, "district-02", "flat", (50, 60, 70)),
]


def test_groups_counted_by_hand():
    # district-00: rows 100, 300, 1200; district-01: 400;
    # district-02: 50, 60, 70
    assert population.expected_groups(HAND, 0) == {
        "district-00": (3, 1600),
        "district-01": (1, 400),
        "district-02": (3, 180),
    }
    # HAVING COUNT(*) > 1 drops district-01
    assert population.expected_groups(HAND, 1) == {
        "district-00": (3, 1600),
        "district-02": (3, 180),
    }


def test_selection_counted_by_hand():
    assert population.expected_selection(HAND, 250) == [(0, 300), (1, 1200), (2, 400)]
    assert population.expected_selection(HAND, 5000) == []


def test_matchers_reject_wrong_rows():
    expected = population.expected_groups(HAND, 1)
    good = [
        {"district": "district-00", "n": 3, "total": 1600.0, "mean": 1600 / 3},
        {"district": "district-02", "n": 3, "total": 180.0, "mean": 60.0},
    ]
    assert population.groups_match(good, expected)
    assert not population.groups_match(good[:1], expected)
    assert not population.groups_match([good[0], good[0]], expected)
    off_by_one = [dict(good[0], n=4), good[1]]
    assert not population.groups_match(off_by_one, expected)
    assert population.selection_matches(
        [{"cid": 1, "cons": 1200.0}, {"cid": 0, "cons": 300.0}], [(0, 300), (1, 1200)]
    )
    assert not population.selection_matches([{"cid": 1, "cons": 1200.0}], [(0, 300), (1, 1200)])


def test_generation_is_seeded():
    spec = PopulationSpec(meters=50, districts=4, zipf_exponent=1.0, readings_per_meter=2)
    assert population.generate(spec, 7) == population.generate(spec, 7)
    assert population.generate(spec, 7) != population.generate(spec, 8)
    meters = population.generate(spec, 7)
    assert population.total_readings(meters) == 100
    assert {m.district for m in meters} <= {population.district_name(i) for i in range(4)}


def test_program_agrees_with_hand_counted_oracle():
    from repro.protocols import Deployment, SAggProtocol, SelectWhereProtocol

    dep = Deployment.build(
        len(HAND), population.database_factory(HAND), tables=["Power", "Consumer"], seed=3
    )
    querier = dep.make_querier()
    for sql, driver_cls, check in (
        (population.group_sql(1), SAggProtocol,
         lambda rows: population.groups_match(rows, population.expected_groups(HAND, 1))),
        (population.select_sql(250), SelectWhereProtocol,
         lambda rows: population.selection_matches(
             rows, population.expected_selection(HAND, 250))),
    ):
        envelope = querier.make_envelope(sql)
        dep.ssi.post_query(envelope)
        driver_cls(dep.ssi, dep.tds_list, dep.tds_list, random.Random(0)).execute(envelope)
        assert check(querier.decrypt_result(dep.ssi.fetch_result(envelope.query_id)))


def test_sagg_check_sees_tags_in_every_phase():
    """A Det_Enc tag the SSI records outside collection still fails the
    S_Agg query that carries it; the other protocols are not judged on
    tags."""
    from perfbench import inproc
    from perfbench.tracing import Probes

    spec = PopulationSpec(meters=40, districts=4, zipf_exponent=1.0, readings_per_meter=1)
    state = inproc.set_up(6, spec)
    ssi = state.deployment.ssi
    fetch_result = ssi.fetch_result

    def fetch_after_tagging(query_id):
        ssi.observer.record(query_id, "aggregation", 16, b"det-tag")
        return fetch_result(query_id)

    ssi.fetch_result = fetch_after_tagging
    probes = Probes()
    probes.install()
    try:
        result, correct = inproc.run_queries(state, probes, len(inproc.ROTATION))
    finally:
        probes.uninstall()
    assert inproc.ROTATION.count("s_agg") == 1
    assert result.failed == 1 and not correct
