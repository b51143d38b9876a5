"""Shared fixtures: small networks and a session-scoped test dataset.

The full benchmark dataset takes ~30 s to build; tests use
``TEST_CONFIG`` (a 5x5 city, 25 taxis, 10 days) which builds in about a
second and is cached for the whole session.
"""

from __future__ import annotations

import pytest

from repro.api import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.datasets.shenzhen_like import (
    TEST_CONFIG,
    ShenzhenLikeDataset,
    default_dataset,
)
from repro.network.generator import grid_city
from repro.network.model import RoadNetwork


@pytest.fixture()
def tiny_network() -> RoadNetwork:
    """A fresh 4x4 grid city, 500 m spacing (96 directed segments)."""
    return grid_city(rows=4, cols=4, spacing=500.0, primary_every=0, seed=1)


@pytest.fixture(scope="session")
def test_dataset() -> ShenzhenLikeDataset:
    """The small synthetic dataset, built once per session."""
    return default_dataset(TEST_CONFIG)


@pytest.fixture(scope="session")
def engine(test_dataset: ShenzhenLikeDataset) -> ReachabilityEngine:
    """A query engine over the test dataset with the 5-min index built."""
    eng = ReachabilityEngine(test_dataset.network, test_dataset.database)
    eng.st_index(300)
    return eng


@pytest.fixture(scope="session")
def client(engine: ReachabilityEngine) -> ReachabilityClient:
    """A client over the session engine, for tests that send queries."""
    return ReachabilityClient(engine)
