"""Seeded request streams for the benchmark workloads.

Every stream is an endless, deterministic function of ``(seed, workload)``:
the same seed gives the same requests in the same order, and the program
receives only the generated :class:`~repro.api.Request` envelopes.

The shape of each workload is fixed and the seed only draws the
individual requests.  Requests come in shuffled blocks that hold every
(kind, duration) combination in its exact share, and the hot-mixed
hotspots are part of the workload, not of the seed: otherwise the
number of expensive requests (m-queries, 30-minute durations, dense
hotspots) in a 10-second run would vary from seed to seed by more than
the benchmark's bounds.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro import MQuery, Point, QueryOptions, Request, SQuery, day_time

PROB = 0.2  # DEFAULT_SETTINGS.prob
MINUTE = 60
DAY_S = 24 * 3600

WARM = QueryOptions(warm=True)
WARM_REVERSE = QueryOptions(direction="reverse", warm=True)

#: hot-mixed block: 70% s / 20% m / 10% reverse, each at L = 5 and 10 min.
HOT_BLOCK = [
    (kind, minutes)
    for kind, count in (("s", 7), ("m", 2), ("r", 1))
    for minutes in (5, 10)
    for _ in range(count)
]

#: citywide-churn block: 70% s / 30% reverse at each L in {10, 15, 20, 30}.
CITY_BLOCK = [
    (kind, minutes)
    for kind, count in (("s", 7), ("r", 3))
    for minutes in (10, 15, 20, 30)
    for _ in range(count)
]
CITY_CELLS = (5, 8)  # 40 spatial strata, one per request of a block


def _box_point(rng: random.Random, bounds, fraction: float) -> Point:
    """A uniform point in the central ``fraction`` of the city's extent."""
    center = bounds.center
    half_w = bounds.width / 2.0 * fraction
    half_h = bounds.height / 2.0 * fraction
    return Point(
        center.x + rng.uniform(-half_w, half_w),
        center.y + rng.uniform(-half_h, half_h),
    )


def hotspots(network) -> list[Point]:
    """The 12 downtown hotspots, in the central 30% of the city."""
    rng = random.Random("hot-mixed:hotspots")
    return [_box_point(rng, network.bounds(), 0.3) for _ in range(12)]


def _shuffled(rng: random.Random, block) -> list:
    order = list(block)
    rng.shuffle(order)
    return order


def hot_mixed(network, seed: int) -> Iterator[Request]:
    """s / m (3 hotspots, 2L) / reverse queries starting 11:00-11:10."""
    rng = random.Random(f"hot-mixed:{seed}")
    spots = hotspots(network)
    while True:
        for kind, minutes in _shuffled(rng, HOT_BLOCK):
            start = day_time(11) + rng.uniform(0, 10 * MINUTE)
            duration = minutes * MINUTE
            if kind == "m":
                locations = tuple(rng.sample(spots, 3))
                yield Request(MQuery(locations, start, 2 * duration, PROB), WARM)
            else:
                options = WARM if kind == "s" else WARM_REVERSE
                spot = rng.choice(spots)
                yield Request(SQuery(spot, start, duration, PROB), options)


def citywide_churn(network, seed: int) -> Iterator[Request]:
    """s / reverse queries uniform over the central 90% and the whole day."""
    rng = random.Random(f"citywide-churn:{seed}")
    bounds = network.bounds()
    center = bounds.center
    width, height = bounds.width * 0.9, bounds.height * 0.9
    size = len(CITY_BLOCK)
    cells = [(i, j) for i in range(CITY_CELLS[0]) for j in range(CITY_CELLS[1])]
    while True:
        # Each request of a block gets its own cell of a 5 x 8 grid over
        # the area and its own fortieth of the day.
        starts = _shuffled(rng, range(size))
        for (kind, minutes), (i, j), stratum in zip(
            _shuffled(rng, CITY_BLOCK), _shuffled(rng, cells), starts
        ):
            location = Point(
                center.x + ((i + rng.random()) / CITY_CELLS[0] - 0.5) * width,
                center.y + ((j + rng.random()) / CITY_CELLS[1] - 0.5) * height,
            )
            start = (stratum + rng.random()) * (DAY_S - 1) / size
            options = WARM if kind == "s" else WARM_REVERSE
            yield Request(
                SQuery(location, start, minutes * MINUTE, PROB), options
            )


def ingest_chunks(held_out: list, seed: int, taxi_days: int) -> list[list]:
    """The held-out taxi-days in a seeded order, cut into append chunks."""
    order = sorted(held_out, key=lambda t: t.trajectory_id)
    random.Random(f"ingest-durable:{seed}").shuffle(order)
    return [order[i : i + taxi_days] for i in range(0, len(order), taxi_days)]
