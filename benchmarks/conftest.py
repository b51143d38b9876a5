"""Shared benchmark fixtures: engines and clients over the benchmark
datasets.

Datasets and indexes are built once per session; each figure module then
runs its parameter sweep, prints the paper-style series, writes it to
``benchmarks/results/`` and feeds one representative query per curve to
pytest-benchmark.  All query execution goes through the
:class:`~repro.api.client.ReachabilityClient` API (see
``client_protocol.py`` for the cold per-query helpers).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from client_protocol import s_query
from repro.api.client import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.datasets.shenzhen_like import default_dataset
from repro.eval.config import DEFAULT_SETTINGS, SMALL_SETTINGS

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_dataset():
    """The full-size benchmark dataset (ShenzhenLike defaults)."""
    return default_dataset(DEFAULT_SETTINGS.dataset)


@pytest.fixture(scope="session")
def bench_engine(bench_dataset):
    """Engine over the benchmark dataset with the 5-minute index built and
    the downtown Con-Index entries warmed (index construction is offline
    work in the paper's model)."""
    engine = ReachabilityEngine(bench_dataset.network, bench_dataset.database)
    engine.st_index(DEFAULT_SETTINGS.delta_t_s)
    # Warm the downtown con-index entries for the default start time by
    # running the longest default query once.
    with ReachabilityClient(engine) as warmer:
        s_query(
            warmer,
            SQuery(
                DEFAULT_SETTINGS.location,
                DEFAULT_SETTINGS.start_time_s,
                35 * 60,
                DEFAULT_SETTINGS.prob,
            ),
            delta_t_s=DEFAULT_SETTINGS.delta_t_s,
        )
    return engine


@pytest.fixture(scope="session")
def bench_client(bench_engine):
    """Session client over the benchmark engine (cold-protocol sends)."""
    with ReachabilityClient(bench_engine) as client:
        yield client


@pytest.fixture(scope="session")
def small_dataset():
    """Reduced dataset for the expensive Δt-granularity sweeps."""
    return default_dataset(SMALL_SETTINGS.dataset)


@pytest.fixture(scope="session")
def small_engine(small_dataset):
    engine = ReachabilityEngine(small_dataset.network, small_dataset.database)
    engine.st_index(SMALL_SETTINGS.delta_t_s)
    return engine


@pytest.fixture(scope="session")
def small_client(small_engine):
    with ReachabilityClient(small_engine) as client:
        yield client


@pytest.fixture(scope="session")
def emit():
    """Print a named results block and persist it under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
