"""Tests for the batch-capable :class:`QueryService`."""

import pytest

from benchmarks.client_protocol import m_query
from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.query import MQuery, SQuery
from repro.core.service import QueryService, as_service
from repro.eval import config
from repro.eval.workload import QueryWorkload, fig48_m_query_batch
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture(scope="module")
def service(engine):
    return QueryService(engine)


@pytest.fixture(scope="module")
def service_client(service):
    """A client answering through the module service's region cache."""
    return ReachabilityClient(service)


@pytest.fixture(scope="module")
def fig48_queries(test_dataset):
    """The Fig 4.8(a)-style m-query workload on the test dataset."""
    locations = tuple(
        loc for loc in config.M_QUERY_LOCATIONS[:3]
    )
    return fig48_m_query_batch(
        locations, durations_s=(600, 1200, 1800), start_time_s=T, prob=0.2
    )


class TestSingleQueries:
    def test_s_query_matches_engine(self, service_client):
        """Region cache on (the service's LRU) vs off: same answer."""
        query = SQuery(CENTER, T, 600, 0.2)
        cached = service_client.send(
            Request(query, QueryOptions(algorithm="sqmb_tbs"))
        ).result
        uncached = service_client.send(
            Request(
                query, QueryOptions(algorithm="sqmb_tbs", reuse_regions=False)
            )
        ).result
        assert cached.segments == uncached.segments
        assert cached.start_segments == uncached.start_segments

    def test_query_dispatches_on_type(self, service_client):
        m = Request(
            MQuery((CENTER,), T, 600, 0.2), QueryOptions(algorithm="mqmb_tbs")
        )
        s = Request(
            SQuery(CENTER, T, 600, 0.2), QueryOptions(algorithm="sqmb_tbs")
        )
        assert service_client.plan(m)[0].kind == "m"
        assert service_client.plan(s)[0].kind == "s"
        assert service_client.send(m).segments == service_client.send(s).segments

    def test_r_query_kind(self, service_client):
        plan, _ = service_client.plan(
            Request(
                SQuery(CENTER, T, 600, 0.2),
                QueryOptions(direction="reverse", algorithm="sqmb_tbs"),
            )
        )
        assert plan.kind == "r"
        assert plan.bounding_strategy == "reverse"

    def test_as_service_idempotent(self, engine, service):
        assert as_service(service) is service
        assert as_service(engine).engine is engine


class TestBatches:
    def test_empty_batch(self, service):
        report = service.run_batch([])
        assert report.results == []
        assert report.page_reads == 0

    def test_batch_equivalent_and_fewer_reads_than_sequential(
        self, client, service, fig48_queries
    ):
        """The acceptance workload: same result sets, fewer page reads."""
        sequential = [m_query(client, q) for q in fig48_queries]
        sequential_reads = sum(r.cost.io.page_reads for r in sequential)
        report = service.run_batch(fig48_queries)
        assert [r.segments for r in report.results] == [
            r.segments for r in sequential
        ]
        assert [r.probabilities for r in report.results] == [
            r.probabilities for r in sequential
        ]
        assert 0 < report.io.page_reads < sequential_reads
        # Warm pools inside the batch mean hits were served cache-side.
        assert report.io.pool_hits > 0

    def test_batch_dedups_shared_bounding_regions(self, engine, client):
        """Same seeds + slot + duration at different thresholds: the
        bounding regions are computed once and reused."""
        fresh = QueryService(engine)
        base = MQuery(tuple(config.M_QUERY_LOCATIONS[:3]), T, 1200, 0.2)
        batch = [
            MQuery(base.locations, T, 1200, prob)
            for prob in (0.2, 0.4, 0.6)
        ]
        report = fresh.run_batch(batch)
        # One far + one near region for the shared shape; the other two
        # queries reuse both.
        assert report.regions_computed == 2
        assert report.regions_reused == 4
        sequential = [m_query(client, q) for q in batch]
        assert [r.segments for r in report.results] == [
            r.segments for r in sequential
        ]

    def test_regions_shared_across_batches(self, engine):
        """The region cache outlives one batch: a repeat batch computes
        nothing and serves every bound from the service-lifetime LRU."""
        fresh = QueryService(engine)
        batch = [SQuery(CENTER, T, 600, p) for p in (0.2, 0.5)]
        first = fresh.run_batch(batch)
        assert first.regions_computed == 2  # far + near, shared shape
        assert first.regions_reused == 2
        second = fresh.run_batch(batch)
        assert second.regions_computed == 0
        assert second.regions_reused == 4
        assert [r.segments for r in second.results] == [
            r.segments for r in first.results
        ]

    def test_batch_reuses_plans(self, service):
        batch = [SQuery(CENTER, T, 600, p) for p in (0.2, 0.4, 0.8)]
        report = service.run_batch(batch)
        assert report.plans_reused == 2
        assert report.plans[0] is report.plans[1] is report.plans[2]

    def test_mixed_kind_batch(self, service):
        batch = [
            SQuery(CENTER, T, 600, 0.2),
            MQuery((CENTER, Point(1000.0, 1000.0)), T, 600, 0.2),
        ]
        report = service.run_batch(batch)
        assert report.plans[0].kind == "s"
        assert report.plans[1].kind == "m"
        assert len(report.results) == 2

    def test_worker_pool_matches_sequential_batch(self, service, fig48_queries):
        solo = service.run_batch(fig48_queries)
        threaded = service.run_batch(fig48_queries, max_workers=4)
        assert [r.segments for r in threaded.results] == [
            r.segments for r in solo.results
        ]

    def test_threaded_batch_counters_exact(self, engine):
        """Under max_workers > 1 the dedup counters stay exact: every
        bounding_region call is counted once, and each distinct region is
        computed exactly once (concurrent requesters wait, not recompute)."""
        fresh = QueryService(engine)
        durations = (600, 900, 1200, 1500)
        batch = [
            SQuery(CENTER, T, duration, prob)
            for duration in durations
            for prob in (0.2, 0.4, 0.8)
        ]
        report = fresh.run_batch(batch, max_workers=8)
        calls = 2 * len(batch)  # one far + one near region per query
        assert report.regions_computed + report.regions_reused == calls
        # 4 distinct (seeds, slot, steps) shapes x far/near.
        assert report.regions_computed == 2 * len(durations)
        assert report.regions_reused == calls - 2 * len(durations)
        # A second threaded pass is served entirely from the service cache.
        again = fresh.run_batch(batch, max_workers=8)
        assert again.regions_computed == 0
        assert again.regions_reused == calls

    def test_batch_report_rows(self, service):
        report = service.run_batch([SQuery(CENTER, T, 600, 0.2)])
        rows = dict(report.as_rows())
        assert rows["Queries"] == "1"
        assert "hit rate" in rows["Buffer pool"]

    def test_random_workload_batch(self, test_dataset, service):
        workload = QueryWorkload(test_dataset.network, seed=3)
        batch = workload.mixed_batch(4, 2, start_time_s=T)
        report = service.run_batch(batch)
        assert len(report.results) == 6
        assert report.total_cost_ms > 0

    def test_run_workload_batch_and_formatting(self, engine, test_dataset):
        from repro.eval.runner import run_workload_batch
        from repro.eval.tables import (
            format_batch_report,
            format_cache_effectiveness,
        )

        workload = QueryWorkload(test_dataset.network, seed=5)
        report = run_workload_batch(
            engine, workload.s_queries(3, start_time_s=T)
        )
        assert len(report.results) == 3
        table = format_batch_report("throughput batch", report)
        assert "Page reads" in table and "Buffer pool" in table
        cache = format_cache_effectiveness("cache", report.io)
        assert "hit rate" in cache
