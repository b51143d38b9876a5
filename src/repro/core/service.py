"""The batch-capable query service: the caches queries share.

:class:`QueryService` owns the service-lifetime state that the client
API (:class:`repro.api.ReachabilityClient`, the one query entry point)
executes through.  A single :meth:`~QueryService.run_plan` runs one
planned query (cold buffer pools unless warm, one executor), while
:meth:`QueryService.run_batch` exploits what a multi-user workload
shares:

* **bounding-region dedup** — queries whose seeds fall in the same
  segments and Δt slot share their SQMB/MQMB/reverse bounding regions
  through one *service-lifetime* LRU
  (:class:`~repro.core.region_cache.RegionCache`) instead of
  re-expanding the Con-Index — shared across batches, invalidated
  explicitly when trajectory data is appended or indexes rebuilt;
* **warm buffer pools** — the batch pays one cold start, then every
  later query reads time-list pages the earlier ones already pulled in;
* **plan reuse** — identically-shaped queries share one frozen
  :class:`~repro.core.planner.QueryPlan`;
* **worker pool** — independent queries can run on threads
  (``max_workers > 1``); per-query I/O is attributed through per-thread
  snapshot windows (:meth:`~repro.storage.disk.SimulatedDisk.local_snapshot`),
  so per-query costs are exact and deterministic under concurrency and
  the batch totals stay exact.

The returned :class:`BatchReport` carries per-query results plus
batch-level cost and cache-effectiveness metrics (buffer-pool hit/miss/
eviction counters from :class:`~repro.storage.disk.DiskStats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.engine import ReachabilityEngine
from repro.core.executors import ExecutionContext, execute_plan
from repro.core.planner import QueryPlan
from repro.core.query import MQuery, QueryResult, SQuery
from repro.core.region_cache import RegionCache
from repro.storage.disk import DiskStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.router import RouteDecision

#: Default algorithm per query kind (the paper's methods).
DEFAULT_ALGORITHMS = {"s": "sqmb_tbs", "m": "mqmb_tbs", "r": "sqmb_tbs"}


def kind_of(query: SQuery | MQuery) -> str:
    """The planner kind for a query object (reverse must be explicit)."""
    return "m" if isinstance(query, MQuery) else "s"


@dataclass
class ShardReport:
    """Per-shard accounting slice of a sharded batch (see
    :mod:`repro.serving`).

    Attributes:
        shard_id: the shard's index in the partition plan.
        queries: sub-requests this shard executed (decomposed cross-shard
            queries count once per involved shard).
        io: the shard worker's disk-stat difference for its sub-batch.
        simulated_io_ms: accounted cost of the shard's page reads.
        wall_time_s: wall time of the shard's sub-batch inside its worker.
        worker_wall_s: wall time of everything the worker did for this
            shard — service setup, the sub-batch, result packing.
        worker_restarts: times the supervisor respawned this shard's
            worker process during the batch.
        retries: scatter attempts this shard's worker needed beyond the
            first (deadline expiries, deaths, error replies).
        degraded_requests: sub-requests of this shard that exhausted
            their retries and re-executed on the dispatcher-local
            fallback service (the shard's ``io`` window then measures
            that local re-execution, so batch accounting stays exact).
    """

    shard_id: int
    queries: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    wall_time_s: float = 0.0
    worker_wall_s: float = 0.0
    worker_restarts: int = 0
    retries: int = 0
    degraded_requests: int = 0


@dataclass
class BatchReport:
    """Outcome of one :meth:`QueryService.run_batch` call.

    Attributes:
        results: per-query results, in submission order.
        plans: the (deduplicated, shared) plan of each query.
        wall_time_s: batch wall time.
        io: batch-level disk-stat difference, including buffer-pool
            hit/miss/eviction counters.
        simulated_io_ms: accounted I/O cost of the batch's page reads.
        regions_computed: bounding regions expanded from the Con-Index.
        regions_reused: bounding regions served from the batch cache.
        plans_reused: queries that shared an earlier query's plan.
        routes: the routing decision behind each plan, in submission
            order (``rule="forced"`` for explicitly-named algorithms).
        shard_reports: per-shard accounting when the batch ran on the
            sharded backend (empty for single-process batches); the
            shard ``io`` snapshots plus any dispatcher-local fallback
            I/O sum exactly to ``io``.
        worker_restarts: worker processes the sharded supervisor
            respawned while answering this batch (0 on a healthy run
            and always on the single-process backend).
        retries: scatter attempts beyond the first, batch-wide.
        degraded_requests: sub-requests answered by the dispatcher-local
            fallback after exhausting their retries; results are
            identical to a healthy run, only provenance differs.
        stale_frames: late worker replies discarded by request id after
            their attempt's deadline had already fired.
        deadline_ms: the per-scatter deadline the batch ran under
            (``None``: no deadline / single-process backend).
    """

    results: list[QueryResult] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    routes: list["RouteDecision"] = field(default_factory=list)
    wall_time_s: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    regions_computed: int = 0
    regions_reused: int = 0
    plans_reused: int = 0
    shard_reports: list[ShardReport] = field(default_factory=list)
    worker_restarts: int = 0
    retries: int = 0
    degraded_requests: int = 0
    stale_frames: int = 0
    deadline_ms: float | None = None

    @property
    def page_reads(self) -> int:
        return self.io.page_reads

    @property
    def total_cost_ms(self) -> float:
        """Wall time plus accounted I/O, the headline 'running time'."""
        return self.wall_time_s * 1e3 + self.simulated_io_ms

    @property
    def probability_checks(self) -> int:
        """Eq. 3.1 evaluations across the batch (cache hits excluded)."""
        return sum(r.cost.probability_checks for r in self.results)

    @property
    def kernel_probability_evals(self) -> int:
        """Evaluations served by the vectorized columnar kernel."""
        return sum(r.cost.kernel_probability_evals for r in self.results)

    @property
    def scalar_probability_evals(self) -> int:
        """Evaluations served by the tiny-input scalar fast path."""
        return sum(r.cost.scalar_probability_evals for r in self.results)

    @property
    def probability_waves(self) -> int:
        """Batched evaluation waves dequeued across the batch."""
        return sum(r.cost.probability_waves for r in self.results)

    @property
    def max_wave_size(self) -> int:
        """Largest single evaluation wave any query in the batch saw."""
        return max((r.cost.max_wave_size for r in self.results), default=0)

    @property
    def segments_expanded(self) -> int:
        """Segments the bounding-region expansions enqueued, batch-wide."""
        return sum(r.cost.segments_expanded for r in self.results)

    @property
    def batched_record_reads(self) -> int:
        """Records fetched through the wave-granular batch gather path."""
        return sum(r.cost.batched_record_reads for r in self.results)

    @property
    def prefetched_pages(self) -> int:
        """Page accesses charged by batched gathers before kernel runs."""
        return sum(r.cost.prefetched_pages for r in self.results)

    @property
    def pool_lock_shards(self) -> int:
        """Lock stripes of the buffer pool the batch read through."""
        return max((r.cost.pool_lock_shards for r in self.results), default=0)

    def as_rows(self) -> list[tuple[str, str]]:
        """Key/value rows for :func:`repro.eval.tables.format_table`."""
        return [
            ("Queries", f"{len(self.results)}"),
            ("Wall time", f"{self.wall_time_s * 1e3:.1f} ms"),
            ("Page reads", f"{self.io.page_reads:,}"),
            ("Simulated I/O", f"{self.simulated_io_ms:.0f} ms"),
            (
                "Buffer pool",
                f"{self.io.pool_hits:,} hits / {self.io.pool_misses:,} misses"
                f" / {self.io.pool_evictions:,} evictions"
                f" ({self.io.pool_hit_rate * 100:.0f}% hit rate)",
            ),
            (
                "Bounding regions",
                f"{self.regions_computed} computed, "
                f"{self.regions_reused} reused "
                f"({self.segments_expanded:,} segments expanded)",
            ),
            (
                "Probability checks",
                f"{self.probability_checks:,} "
                f"({self.kernel_probability_evals:,} kernel / "
                f"{self.scalar_probability_evals:,} scalar; "
                f"{self.probability_waves:,} waves, "
                f"max {self.max_wave_size})",
            ),
            (
                "Batched I/O",
                f"{self.batched_record_reads:,} record gathers / "
                f"{self.prefetched_pages:,} pages prefetched "
                f"({self.pool_lock_shards} pool lock shards)",
            ),
            ("Plans reused", f"{self.plans_reused}"),
        ] + (
            [
                (
                    "Fault tolerance",
                    f"{self.worker_restarts} worker restarts / "
                    f"{self.retries} retries / "
                    f"{self.degraded_requests} degraded / "
                    f"{self.stale_frames} stale frames discarded"
                    + (
                        f" (deadline {self.deadline_ms:.0f} ms)"
                        if self.deadline_ms is not None
                        else " (no deadline)"
                    ),
                )
            ]
            if self.shard_reports
            else []
        ) + [
            (
                f"Shard {shard.shard_id}",
                f"{shard.queries} queries / {shard.io.page_reads:,} page "
                f"reads / {shard.simulated_io_ms:.0f} ms simulated I/O "
                f"({shard.wall_time_s * 1e3:.1f} ms wall)"
                + (
                    f" [{shard.worker_restarts} restarts, "
                    f"{shard.retries} retries, "
                    f"{shard.degraded_requests} degraded]"
                    if shard.worker_restarts
                    or shard.retries
                    or shard.degraded_requests
                    else ""
                ),
            )
            for shard in self.shard_reports
        ]


class QueryService:
    """Planner/executor query service over a :class:`ReachabilityEngine`.

    Args:
        engine: the index-owning engine queries run against.
        delta_t_s: default index granularity Δt for queries that do not
            specify one.
        region_cache_capacity: LRU capacity of the service-lifetime
            bounding-region cache shared across batches.
    """

    def __init__(
        self,
        engine: ReachabilityEngine,
        delta_t_s: int = 300,
        region_cache_capacity: int = 1024,
    ) -> None:
        self.engine = engine
        self.delta_t_s = delta_t_s
        self.region_cache = RegionCache(region_cache_capacity)
        # Every service over this engine hears about data changes, so a
        # direct engine-level append_trajectories/drop_indexes invalidates
        # this cache too (weakly registered: the engine does not pin the
        # service alive).
        engine.register_data_change_hook(self.region_cache.invalidate)

    # -- data lifecycle ----------------------------------------------------

    def append_trajectories(self, trajectories, update_database: bool = True) -> int:
        """Ingest new matched trajectories and invalidate derived caches.

        Appends to every built ST-Index (and, by default, the trajectory
        database whose speed statistics feed the Con-Index), then drops
        the bounding-region caches of *every* service registered on the
        engine plus the Con-Index's memoized entries: regions computed
        from pre-append speed models must not be served for post-append
        queries.

        Returns the number of (segment, slot) entries touched across the
        built ST-Indexes.
        """
        return self.engine.append_trajectories(
            trajectories, update_database=update_database
        )

    def rebuild_indexes(self, delta_t_s: int | None = None) -> None:
        """Drop built indexes (they rebuild lazily) and cached regions."""
        self.engine.drop_indexes(delta_t_s)

    def invalidate_regions(self) -> None:
        """Explicitly drop every cached bounding region."""
        self.region_cache.invalidate()

    # -- single queries ------------------------------------------------------

    def run_plan(
        self,
        plan: QueryPlan,
        query: SQuery | MQuery,
        reuse_regions: bool = True,
    ) -> tuple[QueryResult, ExecutionContext]:
        """Run one planned query through the service-lifetime caches.

        The single execution path behind the client API's ``send``: a fresh
        :class:`ExecutionContext` wired to the service's bounding-region
        cache (unless ``reuse_regions`` is off), so repeated
        identically-shaped queries do not re-expand their bounds.

        Returns the result plus the context, whose
        ``regions_computed``/``regions_reused`` counters are exact for
        this execution.
        """
        context = ExecutionContext(
            self.engine,
            plan.delta_t_s,
            region_cache=self.region_cache if reuse_regions else None,
        )
        return execute_plan(self.engine, plan, query, context=context), context

    # -- batches ----------------------------------------------------------------

    def run_batch(
        self,
        queries: Sequence[SQuery | MQuery] | Iterable[SQuery | MQuery],
        algorithm: str | None = None,
        delta_t_s: int | None = None,
        kind: str | None = None,
        warm: bool = False,
        max_workers: int = 1,
    ) -> BatchReport:
        """Run a batch of queries, sharing work between them.

        A thin aggregation over the client API's streaming pipeline
        (:meth:`repro.api.ReachabilityClient.run_batch`): each query is
        wrapped in a :class:`repro.api.Request` carrying the batch-global
        kwargs, streamed through the shared worker-pool pipeline, and
        the totals are collected into the classic :class:`BatchReport`.
        Per-request intent (mixed directions, per-query algorithms)
        needs the client API directly — this signature keeps ``kind``
        and ``algorithm`` batch-global for compatibility.

        The batch pays one cold start (unless ``warm``), after which all
        queries run against warm buffer pools and a shared bounding-region
        cache; identically-shaped queries also share one plan object.

        Args:
            queries: the queries, s- and m-queries freely mixed.
            algorithm: override the per-kind default algorithm.
            delta_t_s: index granularity for the whole batch.
            kind: force a planner kind (``"r"`` for reverse batches).
            warm: keep pre-batch buffer-pool contents too.
            max_workers: thread count for concurrent execution; per-query
                I/O attribution stays exact (each worker windows its own
                thread-local counters) and batch totals are exact.

        Returns:
            The :class:`BatchReport`.
        """
        from repro.api.client import ReachabilityClient
        from repro.api.envelope import QueryOptions, Request

        dt = delta_t_s if delta_t_s is not None else self.delta_t_s
        requests = []
        for query in queries:
            resolved_kind = kind if kind is not None else kind_of(query)
            algo = (
                algorithm
                if algorithm is not None
                else DEFAULT_ALGORITHMS[resolved_kind]
            )
            requests.append(
                Request(
                    query,
                    QueryOptions(
                        direction=(
                            "reverse" if resolved_kind == "r" else "forward"
                        ),
                        algorithm=algo,
                        delta_t_s=dt,
                    ),
                )
            )
        return ReachabilityClient(self).run_batch(
            requests, warm=warm, max_workers=max_workers
        )


def as_service(target: QueryService | ReachabilityEngine) -> QueryService:
    """Adapt an engine to a service (call sites accept either)."""
    if isinstance(target, QueryService):
        return target
    return QueryService(target)
