"""Seeded smart-meter population and the plain-Python oracle.

The benchmark draws its own records from ``--seed`` and hands them to
``Deployment.build`` through a database factory, so the program sees
only generated inputs.  The oracle computes every query's expected rows
from the same records in plain Python; it never calls ``repro.sql``, so
a fault in the SQL engine cannot hide by agreeing with itself.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Callable

ACCOMMODATIONS = ("detached house", "flat", "terraced house")


@dataclass(frozen=True)
class PopulationSpec:
    """How one workload's population is drawn."""

    meters: int
    districts: int
    zipf_exponent: float
    readings_per_meter: int


@dataclass(frozen=True)
class Meter:
    """One TDS: a household profile and its consumption readings."""

    cid: int
    district: str
    accommodation: str
    readings: tuple[int, ...]


def district_name(index: int) -> str:
    return f"district-{index:02d}"


def generate(spec: PopulationSpec, seed: int) -> list[Meter]:
    """Draw the population: Zipf-ranked districts, integer readings (so
    sums are exact in any order), detached houses consuming more."""
    rng = random.Random(seed)
    cumulative = []
    total = 0.0
    for rank in range(1, spec.districts + 1):
        total += 1.0 / rank**spec.zipf_exponent
        cumulative.append(total)
    meters = []
    for cid in range(spec.meters):
        district = bisect.bisect_left(cumulative, rng.random() * total)
        accommodation = ACCOMMODATIONS[rng.randrange(len(ACCOMMODATIONS))]
        mean = 750 if accommodation == "detached house" else 500
        readings = tuple(
            max(0, min(4 * mean, round(rng.gauss(mean, mean / 4))))
            for _ in range(spec.readings_per_meter)
        )
        meters.append(
            Meter(cid, district_name(min(district, spec.districts - 1)),
                  accommodation, readings)
        )
    return meters


def database_factory(meters: list[Meter]) -> Callable[[int, random.Random], Any]:
    """A ``Deployment.build`` factory: TDS *index* holds ``meters[index]``
    as ``Consumer(cid, district, accomodation)`` and ``Power(cid, cons)``
    (the paper's spelling of the column)."""
    from repro.sql.schema import Database, schema

    def factory(index: int, _rng: random.Random) -> Any:
        meter = meters[index]
        db = Database()
        consumer = db.create_table(
            schema("Consumer", cid="INTEGER", district="TEXT", accomodation="TEXT")
        )
        power = db.create_table(schema("Power", cid="INTEGER", cons="REAL"))
        consumer.insert(
            {"cid": meter.cid, "district": meter.district,
             "accomodation": meter.accommodation}
        )
        for value in meter.readings:
            power.insert({"cid": meter.cid, "cons": float(value)})
        return db

    return factory


# --------------------------------------------------------------------- #
# query templates and their oracle
# --------------------------------------------------------------------- #
def default_min_count(spec: PopulationSpec) -> int:
    """The HAVING threshold: half the mean rows per district, which drops
    the smallest Zipf districts."""
    return spec.meters * spec.readings_per_meter // (2 * spec.districts)


def group_sql(min_count: int, size: int | None = None) -> str:
    """The join with GROUP BY and HAVING every aggregate protocol runs."""
    sql = (
        "SELECT district, COUNT(*) AS n, SUM(cons) AS total, AVG(cons) AS mean "
        "FROM Power P, Consumer C WHERE C.cid = P.cid "
        f"GROUP BY district HAVING COUNT(*) > {min_count}"
    )
    if size is not None:
        sql += f" SIZE {size} TUPLES"
    return sql


def select_sql(threshold: int) -> str:
    """The select-where query the basic protocol runs."""
    return f"SELECT cid, cons FROM Power WHERE cons > {threshold}"


def expected_groups(meters: list[Meter], min_count: int) -> dict[str, tuple[int, int]]:
    """district -> (COUNT(*), SUM(cons)) over the joined rows, HAVING
    applied."""
    groups: dict[str, list[int]] = {}
    for meter in meters:
        slot = groups.setdefault(meter.district, [0, 0])
        slot[0] += len(meter.readings)
        slot[1] += sum(meter.readings)
    return {
        district: (count, total)
        for district, (count, total) in groups.items()
        if count > min_count
    }


def expected_selection(meters: list[Meter], threshold: int) -> list[tuple[int, int]]:
    """Sorted (cid, cons) pairs of every reading above *threshold*."""
    return sorted(
        (meter.cid, value)
        for meter in meters
        for value in meter.readings
        if value > threshold
    )


def groups_match(rows: list[dict[str, Any]], expected: dict[str, tuple[int, int]]) -> bool:
    """True when the decrypted GROUP BY rows equal the oracle's: exact
    counts and sums, and means within float rounding."""
    if sorted(str(row.get("district")) for row in rows) != sorted(expected):
        return False
    for row in rows:
        want = expected.get(row.get("district"))
        if want is None:
            return False
        count, total = want
        if row.get("n") != count or row.get("total") != total:
            return False
        mean = row.get("mean")
        if not isinstance(mean, (int, float)):
            return False
        if abs(mean - total / count) > 1e-9 * max(1.0, abs(total / count)):
            return False
    return True


def selection_matches(rows: list[dict[str, Any]], expected: list[tuple[int, int]]) -> bool:
    try:
        got = sorted((row["cid"], row["cons"]) for row in rows)
    except (KeyError, TypeError):
        return False
    return got == expected


def total_readings(meters: list[Meter]) -> int:
    return sum(len(meter.readings) for meter in meters)
