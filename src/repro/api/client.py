"""The unified client: the one front door for every query, batch or stream.

:class:`ReachabilityClient` is the only way to run a query, through one
request/response surface:

* :meth:`~ReachabilityClient.send` — answer one
  :class:`~repro.api.envelope.Request` synchronously (through the
  service-lifetime bounding-region cache);
* :meth:`~ReachabilityClient.submit` — the same, as a
  :class:`concurrent.futures.Future` on the client's worker pool;
* :meth:`~ReachabilityClient.stream` — run many requests over a worker
  pool with a bounded in-flight window, yielding
  :class:`~repro.api.envelope.Response` objects *as they complete*;
* :meth:`~ReachabilityClient.run_batch` — a thin aggregation over the
  same streaming pipeline, returning the classic
  :class:`~repro.core.service.BatchReport` (totals unchanged).

Every request is routed by the :class:`~repro.api.router.Router`
(``algorithm="auto"``) and the decision travels on the response, so a
multi-tenant workload can mix forward/reverse, s-/m-, forced and
auto-routed queries freely in one stream — per-query intent lives in the
envelope, not in batch-global kwargs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Iterable, Iterator

from repro.api.envelope import QueryOptions, Request, Response
from repro.api.router import RouteDecision, Router
from repro.core.engine import ReachabilityEngine
from repro.core.executors import ExecutionContext, execute_plan
from repro.core.explain import QueryExplanation, explain_m_query, explain_s_query
from repro.core.planner import QueryPlan, plan_query
from repro.core.query import MQuery, SQuery
from repro.core.service import BatchReport, QueryService, as_service


def _coerce(request: Request | SQuery | MQuery) -> Request:
    """Wrap bare queries in a default (auto-routed, forward) envelope."""
    if isinstance(request, Request):
        return request
    return Request(query=request)


class ReachabilityClient:
    """Request/response client over a :class:`QueryService`.

    Args:
        target: the service to answer through, or a bare engine (a
            private service is created around it).
        router: the routing policy for ``algorithm="auto"`` requests.
        max_workers: worker-pool size for :meth:`submit` futures (stream
            pipelines size their own pools per call).
        backend: default :meth:`run_batch` execution backend —
            ``"threaded"`` (the in-process pipeline) or ``"sharded"``
            (spatial shards on worker processes, see
            :mod:`repro.serving`).  The sharded engine spawns lazily on
            the first sharded batch and is shut down by :meth:`close`.
        shards: spatial partition arity for the sharded backend.
        shard_workers: worker-process count for the sharded backend
            (default ``None`` = one process per shard).
        deadline_ms: per-scatter reply deadline for the sharded backend
            (default ``None`` = the engine's default; pass through to
            :class:`~repro.serving.ShardedEngine`).
        max_retries: bounded-retry limit per scatter for the sharded
            backend (default ``None`` = the engine's default).
        disk_backend: storage backend for a bare-engine target —
            ``"sim"`` (in-RAM, the default) or ``"file"`` (the durable
            :class:`~repro.storage.backends.FileBackedDisk`).  Applied
            via :meth:`ReachabilityEngine.use_disk`, so it must be set
            before the engine builds its first index; ``None`` keeps
            whatever disk the engine already has.
        disk_path: store directory for ``disk_backend="file"``.
    """

    def __init__(
        self,
        target: QueryService | ReachabilityEngine,
        router: Router | None = None,
        max_workers: int = 4,
        backend: str = "threaded",
        shards: int = 4,
        shard_workers: int | None = None,
        deadline_ms: float | None = None,
        max_retries: int | None = None,
        disk_backend: str | None = None,
        disk_path: str | None = None,
    ) -> None:
        if backend not in ("threaded", "sharded"):
            raise ValueError(f"unknown backend {backend!r}")
        if disk_backend is not None:
            from repro.storage.backends import create_disk

            if not isinstance(target, ReachabilityEngine):
                raise ValueError(
                    "disk_backend applies to a bare engine target; services "
                    "already carry a configured engine"
                )
            target.use_disk(
                create_disk(
                    disk_backend, path=disk_path, page_size=target.disk.page_size,
                    read_latency_ms=target.disk.read_latency_ms,
                    write_latency_ms=target.disk.write_latency_ms,
                )
            )
        self.service = as_service(target)
        self.router = router if router is not None else Router()
        self.max_workers = max_workers
        self.backend = backend
        self.shards = shards
        self.shard_workers = shard_workers
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        self._pool: ThreadPoolExecutor | None = None  # guarded_by: _pool_lock
        self._pool_lock = threading.Lock()
        self._sharded = None  # guarded_by: _sharded_lock
        self._sharded_lock = threading.Lock()

    # -- durable stores ----------------------------------------------------

    @classmethod
    def open(cls, path, crash_plan=None, readonly: bool = False, **kwargs):
        """Open a :func:`~repro.io.persist.save_store` bundle as a client.

        The cold-start entry point: the returned client serves queries
        immediately, faulting checksum-verified data pages in from the
        durable store on demand instead of loading everything up front.
        Extra keyword arguments go to the constructor.
        """
        from repro.io.persist import open_store

        engine = open_store(path, crash_plan=crash_plan, readonly=readonly)
        # The store's index granularity becomes the client's default Δt,
        # so un-optioned requests hit the restored index instead of
        # triggering a from-scratch build at the service default.
        delta_t_s = next(iter(engine._st_indexes), None)
        if delta_t_s is not None:
            return cls(QueryService(engine, delta_t_s=delta_t_s), **kwargs)
        return cls(engine, **kwargs)

    def save(self, path):
        """Persist this client's engine as a durable store bundle."""
        from repro.io.persist import save_store

        return save_store(self.engine, path, self.delta_t_s)

    # -- conveniences ------------------------------------------------------

    @property
    def engine(self) -> ReachabilityEngine:
        return self.service.engine

    @property
    def network(self):
        return self.service.engine.network

    @property
    def delta_t_s(self) -> int:
        return self.service.delta_t_s

    def _resolve_delta_t(self, options: QueryOptions) -> int:
        return (
            options.delta_t_s
            if options.delta_t_s is not None
            else self.service.delta_t_s
        )

    # -- planning / routing ------------------------------------------------

    def route(self, request: Request | SQuery | MQuery) -> RouteDecision:
        """Classify a request without planning or executing it."""
        request = _coerce(request)
        return self.router.route(request, self._resolve_delta_t(request.options))

    def plan(
        self, request: Request | SQuery | MQuery
    ) -> tuple[QueryPlan, RouteDecision]:
        """Route and plan one request (``EXPLAIN``-style, no execution)."""
        request = _coerce(request)
        delta_t_s = self._resolve_delta_t(request.options)
        decision = self.router.route(request, delta_t_s)
        plan = plan_query(
            decision.kind, request.query, decision.algorithm, delta_t_s,
            warm=request.options.warm,
        )
        return plan, decision

    # -- single requests ---------------------------------------------------

    def send(self, request: Request | SQuery | MQuery) -> Response:
        """Answer one request synchronously.

        Single sends run against cold buffer pools unless
        ``options.warm`` (the paper's per-query protocol), but still
        share the service-lifetime bounding-region cache — repeated
        identically-shaped queries reuse their bounds — unless
        ``options.reuse_regions`` is off.
        """
        request = _coerce(request)
        plan, decision = self.plan(request)
        result, context = self.service.run_plan(
            plan, request.query, reuse_regions=request.options.reuse_regions
        )
        return Response(
            request=request,
            result=result,
            plan=plan,
            route=decision,
            regions_computed=context.regions_computed,
            regions_reused=context.regions_reused,
        )

    def submit(self, request: Request | SQuery | MQuery) -> "Future[Response]":
        """Answer one request on the client's worker pool.

        Returns a future resolving to the :class:`Response`; submissions
        from many tenants interleave on the shared pool.  Per-response
        cost attribution is exact even while submissions overlap — each
        execution windows its own thread-local disk counters
        (:meth:`~repro.storage.disk.SimulatedDisk.local_snapshot`) — but
        a *cold* request still invalidates the shared buffer pools for
        everyone, so overlapping cold submissions charge each other
        re-reads; pass ``warm=True`` options, or use
        :meth:`stream`/:meth:`run_batch`, for a shared warm window.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="reach-client",
                )
            return self._pool.submit(self.send, _coerce(request))

    # -- pipelines ---------------------------------------------------------

    def stream(
        self,
        requests: Iterable[Request | SQuery | MQuery],
        warm: bool = False,
        max_workers: int = 1,
        window: int | None = None,
    ) -> "BatchStream":
        """Run many requests as one pipeline, yielding as they complete.

        The batch pays one cold start (unless ``warm``), then every
        request runs against warm buffer pools, the shared
        bounding-region cache and one frozen plan per request shape —
        exactly :meth:`run_batch`'s sharing, delivered incrementally.
        With ``max_workers > 1`` requests execute concurrently with at
        most ``window`` in flight; responses arrive in completion order,
        each stamped with its submission ``sequence``.

        Requests are materialized up front (planning and index
        resolution happen before the first yield); execution is lazy —
        the cold start and the accounting window open at the first
        pull, so queries run between ``stream()`` and iteration are not
        charged to the batch.
        Per-request ``warm``/``reuse_regions`` options are batch-managed
        here: members always run warm inside the pipeline and share the
        region cache.

        Returns:
            A :class:`BatchStream` — iterate it for responses; read its
            ``report`` after exhaustion for the exact batch totals.
        """
        return BatchStream(
            self, [_coerce(r) for r in requests], warm=warm,
            max_workers=max_workers, window=window,
        )

    def run_batch(
        self,
        requests: Iterable[Request | SQuery | MQuery],
        warm: bool = False,
        max_workers: int = 1,
        window: int | None = None,
        backend: str | None = None,
    ) -> BatchReport:
        """Run requests through :meth:`stream` and aggregate the report.

        Args:
            backend: override the client's default backend for this
                batch — ``"sharded"`` scatters the requests across the
                spatial shard workers (:mod:`repro.serving`) instead of
                the in-process thread pipeline; ``max_workers``/``window``
                only apply to the threaded backend.
        """
        resolved = backend if backend is not None else self.backend
        if resolved == "sharded":
            return self._sharded_engine().run_batch(
                [_coerce(r) for r in requests], warm=warm
            )
        if resolved != "threaded":
            raise ValueError(f"unknown backend {resolved!r}")
        stream = self.stream(
            requests, warm=warm, max_workers=max_workers, window=window
        )
        for _ in stream:
            pass
        return stream.report

    def _sharded_engine(self):
        """The lazily spawned sharded backend (see :mod:`repro.serving`)."""
        with self._sharded_lock:
            if self._sharded is None:
                # Imported lazily: repro.serving pulls in multiprocessing
                # machinery most clients never need.
                from repro.serving import ShardedEngine

                overrides = {}
                if self.deadline_ms is not None:
                    overrides["deadline_ms"] = self.deadline_ms
                if self.max_retries is not None:
                    overrides["max_retries"] = self.max_retries
                self._sharded = ShardedEngine(
                    self.service,
                    shards=self.shards,
                    workers=self.shard_workers,
                    **overrides,
                )
            return self._sharded

    # -- explanation -------------------------------------------------------

    def explain(self, request: Request | SQuery | MQuery) -> QueryExplanation:
        """Explain one request: the routing decision plus staged costs.

        Paper routes (SQMB/MQMB + TBS) run with per-stage
        instrumentation; other routes return the plan and decision
        without stage decomposition.
        """
        request = _coerce(request)
        plan, decision = self.plan(request)
        if decision.kind == "s" and decision.algorithm == "sqmb_tbs":
            explanation = explain_s_query(
                self.engine, request.query, plan.delta_t_s
            )
        elif decision.kind == "m" and decision.algorithm == "mqmb_tbs":
            explanation = explain_m_query(
                self.engine, request.query, plan.delta_t_s
            )
        else:
            explanation = QueryExplanation(plan=plan)
        explanation.route = decision
        return explanation

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the submit pool and any shard workers down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._sharded_lock:
            sharded, self._sharded = self._sharded, None
        if sharded is not None:
            sharded.close()

    def __enter__(self) -> "ReachabilityClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatchStream(Iterator[Response]):
    """A lazily-executing request pipeline with exact batch accounting.

    Created by :meth:`ReachabilityClient.stream`.  Iterating yields
    :class:`Response` objects as requests complete (submission order
    under one worker, completion order under many); after exhaustion
    :attr:`report` holds the same :class:`BatchReport` the classic
    ``run_batch`` produced — per-query results in submission order,
    batch-level page reads, simulated I/O, pool counters and the
    bounding-region dedup totals.
    """

    def __init__(
        self,
        client: ReachabilityClient,
        requests: list[Request],
        warm: bool,
        max_workers: int,
        window: int | None,
    ) -> None:
        self._client = client
        self._max_workers = max(1, max_workers)
        self._window = (
            max(self._max_workers, window)
            if window is not None
            else 2 * self._max_workers
        )
        self._report = BatchReport()
        self._responses: dict[int, Response] = {}
        self._started: float | None = None
        self._finished = not requests
        self._pool: ThreadPoolExecutor | None = None
        self._pending: dict = {}
        self._buffer: list[Response] = []
        engine = client.engine
        # Plan everything up front: routing decisions, one frozen plan per
        # request shape (members always run warm — the batch-level cold
        # start below is the only cache invalidation).
        plan_cache: dict[QueryPlan, QueryPlan] = {}
        self._prepared: list[tuple[int, Request, QueryPlan]] = []
        for sequence, request in enumerate(requests):
            delta_t_s = client._resolve_delta_t(request.options)
            decision = client.router.route(request, delta_t_s)
            plan = plan_query(
                decision.kind, request.query, decision.algorithm, delta_t_s,
                warm=True,
            )
            cached = plan_cache.get(plan)
            if cached is not None:
                self._report.plans_reused += 1
                plan = cached
            else:
                plan_cache[plan] = plan
            self._report.plans.append(plan)
            self._report.routes.append(decision)
            self._prepared.append((sequence, request, plan))
        self._iter = iter(self._prepared)
        if not requests:
            return
        # Resolve indexes before the accounting window opens (index
        # construction is offline work in the paper's model), then take
        # the batch-level cold start.
        delta_ts = sorted({plan.delta_t_s for plan in self._report.plans})
        for delta_t_s in delta_ts:
            engine.st_index(delta_t_s)
            if any(
                plan.uses_con_index and plan.delta_t_s == delta_t_s
                for plan in self._report.plans
            ):
                engine.con_index(delta_t_s)
        self._contexts = {
            delta_t_s: ExecutionContext(
                engine, delta_t_s, region_cache=client.service.region_cache
            )
            for delta_t_s in delta_ts
        }
        self._warm = warm
        self._before = None

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> "BatchStream":
        return self

    def __next__(self) -> Response:
        if self._finished and not self._buffer:
            raise StopIteration
        if self._started is None:
            # The batch-level cold start and the accounting window open
            # at the first pull, not at construction, so execution (and
            # what the report charges) really is lazy.
            if not self._warm:
                self._client.engine.invalidate_caches()
            self._before = self._client.engine.disk.snapshot()
            self._started = time.perf_counter()
        if self._max_workers == 1:
            return self._next_serial()
        return self._next_threaded()

    def _next_serial(self) -> Response:
        try:
            sequence, request, plan = next(self._iter)
        except StopIteration:
            self._finalize()
            raise
        context = self._contexts[plan.delta_t_s]
        computed, reused = context.regions_computed, context.regions_reused
        response = self._execute(sequence, request, plan)
        response.regions_computed = context.regions_computed - computed
        response.regions_reused = context.regions_reused - reused
        self._responses[sequence] = response
        return response

    def _next_threaded(self) -> Response:
        if self._buffer:
            return self._buffer.pop(0)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="reach-stream",
            )
        while len(self._pending) < self._window:
            try:
                sequence, request, plan = next(self._iter)
            except StopIteration:
                break
            future = self._pool.submit(self._execute, sequence, request, plan)
            self._pending[future] = sequence
        if not self._pending:
            self._finalize()
            raise StopIteration
        done, _ = wait(self._pending, return_when=FIRST_COMPLETED)
        # Within one completion wave, yield in submission order so the
        # stream is deterministic when everything finishes together.
        for future in sorted(done, key=self._pending.get):
            del self._pending[future]
            try:
                response = future.result()
            except BaseException:
                self._finished = True
                self.close()
                raise
            self._responses[response.sequence] = response
            self._buffer.append(response)
        return self._buffer.pop(0)

    def _execute(
        self, sequence: int, request: Request, plan: QueryPlan
    ) -> Response:
        result = execute_plan(
            self._client.engine, plan, request.query,
            context=self._contexts[plan.delta_t_s],
        )
        return Response(
            request=request,
            result=result,
            plan=plan,
            route=self._report.routes[sequence],
            sequence=sequence,
        )

    # -- accounting --------------------------------------------------------

    def _finalize(self) -> None:
        if self._finished:
            return
        self._finished = True
        engine = self._client.engine
        diff = engine.disk.snapshot() - self._before
        report = self._report
        report.wall_time_s = (
            time.perf_counter() - self._started if self._started else 0.0
        )
        report.io = diff
        report.simulated_io_ms = diff.page_reads * engine.disk.read_latency_ms
        report.regions_computed = sum(
            context.regions_computed for context in self._contexts.values()
        )
        report.regions_reused = sum(
            context.regions_reused for context in self._contexts.values()
        )
        report.results = [
            self._responses[sequence].result
            for sequence in sorted(self._responses)
        ]
        self.close()

    @property
    def report(self) -> BatchReport:
        """The batch totals; exact once the stream is exhausted."""
        return self._report

    @property
    def responses(self) -> list[Response]:
        """Responses received so far, in submission order."""
        return [self._responses[s] for s in sorted(self._responses)]

    def close(self) -> None:
        """Stop executing (pending requests are cancelled)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pending.clear()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()


def as_client(
    target: "ReachabilityClient | QueryService | ReachabilityEngine",
) -> ReachabilityClient:
    """Adapt a service or engine to a client (call sites accept any)."""
    if isinstance(target, ReachabilityClient):
        return target
    return ReachabilityClient(target)
