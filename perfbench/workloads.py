"""The four benchmark workloads, each a closed loop with one client.

Every workload sets the serving stack up several times (the median is
``setup_s``), warms it untimed, runs its traffic until the time budget is
spent, and afterwards re-executes a fixed sample of answers on an
independent path:

* ``hot-mixed`` / ``citywide-churn`` — a fresh ``sim`` engine restored
  from the cached index, answering cold with ``reuse_regions=False``;
* ``ingest-durable`` — a ``sim`` shadow engine that receives the same
  appends;
* ``sharded-hot`` — the single-process service over the same store.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import itertools
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import cache
import traffic
from repro import QueryService, ReachabilityClient, ReachabilityEngine, STIndex
from repro.io.persist import open_store, save_store
from repro.storage.disk import SimulatedDisk

SETUPS = 3  # set-ups per run; setup_s is their median
SHARDED_SETUPS = 2  # a sharded set-up also spawns two worker processes
WARMUP = {"hot-mixed": 500, "citywide-churn": 20}
SAMPLE_STRIDE = {"hot-mixed": 100, "citywide-churn": 15}
MAX_SAMPLES = 40
INGEST_CHUNK_TAXI_DAYS = 40
INGEST_BURST = 40
SHARDED_BATCH = 20
SHARDED_WARMUP_BATCHES = 10
SHARDED_SAMPLE_BATCHES = 6

#: QueryCost / Response fields summed into the run's work counters.
COST_FIELDS = (
    "probability_checks", "kernel_probability_evals", "scalar_probability_evals",
    "probability_waves", "segments_expanded", "batched_record_reads",
    "prefetched_pages",
)
IO_FIELDS = ("page_reads", "pool_hits", "pool_misses", "pool_evictions", "page_writes")


@dataclasses.dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: list[float]
    latencies_ms: list[float]  # per client call (a request, or a batch)
    requests: int  # requests answered in the timed phase
    timed_s: float
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checked: int = 0
    kinds_ms: dict = dataclasses.field(default_factory=dict)  # s/m/r latencies
    traced_ms: list = dataclasses.field(default_factory=list)
    untraced_ms: list = dataclasses.field(default_factory=list)
    traced_requests: int = 0
    counters: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)


def sim_engine(network, database, state) -> ReachabilityEngine:
    """A fresh in-RAM engine over a cached index snapshot (no rebuild)."""
    buffer, used, directory, pool_pages = state
    disk = SimulatedDisk.from_state(buffer, used, page_size=1024)
    engine = ReachabilityEngine(network, database, disk=disk)
    engine.install_st_index(
        cache.DELTA_T_S,
        STIndex.restore(
            network, cache.DELTA_T_S, disk, directory, buffer_pool_pages=pool_pages
        ),
    )
    return engine


def _cold(request):
    """The request re-issued on the reference path: cold, no region reuse."""
    options = dataclasses.replace(request.options, warm=False, reuse_regions=False)
    return dataclasses.replace(request, options=options)


def _same(a, b) -> bool:
    return a.segments == b.segments and a.probabilities == b.probabilities


def _add_cost(counters: dict, result, response=None) -> None:
    cost = result.cost
    for name in COST_FIELDS:
        counters[name] = counters.get(name, 0) + getattr(cost, name)
    for name in IO_FIELDS:
        counters[name] = counters.get(name, 0) + getattr(cost.io, name)
    if response is not None:
        counters["regions_computed"] = (
            counters.get("regions_computed", 0) + response.regions_computed
        )
        counters["regions_reused"] = (
            counters.get("regions_reused", 0) + response.regions_reused
        )


def _store_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


class _Loop:
    """Closed-loop bookkeeping shared by the workloads."""

    def __init__(self, outcome: Outcome, tracer, seconds: float, limit: int | None):
        self.outcome = outcome
        self.tracer = tracer
        self.seconds = seconds
        self.limit = limit  # fixed unit count (self-test) instead of a budget
        self.units = 0
        self.started = 0.0

    def start(self) -> None:
        # Exempt everything alive after set-up and warm-up from collection:
        # the opened index directory alone is over a million objects, and
        # full collections rescanning it at random points add up to a
        # quarter of run-to-run noise.  Long-running servers with a static
        # heap do the same.
        gc.collect()
        gc.freeze()
        self.started = time.perf_counter()

    def more(self) -> bool:
        if self.limit is not None:
            return self.units < self.limit
        return time.perf_counter() - self.started < self.seconds

    def unit(self):
        """Context for one unit; odd units are traced in a traced run."""
        tracer = self.tracer
        if tracer is None:
            return nullcontext()
        tracer.enabled = self.units % 2 == 1
        return tracer.root(self.units)

    def done(self, elapsed_s: float, requests: int) -> None:
        if self.tracer is not None:
            traced = self.tracer.enabled
            self.tracer.enabled = False
            (self.outcome.traced_ms if traced else self.outcome.untraced_ms).append(
                elapsed_s * 1e3
            )
            if traced:
                self.outcome.traced_requests += requests
        self.units += 1

    def finish(self) -> None:
        self.outcome.timed_s = time.perf_counter() - self.started
        gc.unfreeze()
        # Peak memory of set-up, warm-up and the timed phase; the answer
        # check afterwards holds only the benchmark's reference engines.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.outcome.extra["peak_rss_mb"] = peak_kib / 1024.0


def _median_setup(count: int, open_fn, close_fn):
    """Set the stack up ``count`` times; keep the last, return all times."""
    samples, current = [], None
    for _ in range(count):
        if current is not None:
            close_fn(current)
            current = None
            gc.collect()
        current, elapsed = _timed(open_fn)
        samples.append(elapsed)
    phase(f"set-up x{count}")
    return current, samples


_T0 = time.perf_counter()


def phase(name: str) -> None:
    """Progress line on standard error: where a run's wall time goes."""
    print(f"[{time.perf_counter() - _T0:7.1f}s] {name}", file=sys.stderr, flush=True)


# -- single-request workloads ---------------------------------------------------


def run_send(name: str, seed: int, seconds: float, tracer, limit=None) -> Outcome:
    """``hot-mixed`` and ``citywide-churn``: ``client.send`` one at a time."""
    store = cache.cache_dir() / "store_full"
    client, setups = _median_setup(
        SETUPS,
        lambda: ReachabilityClient.open(store, readonly=True),
        lambda c: c.engine.disk.close(),
    )
    make = traffic.hot_mixed if name == "hot-mixed" else traffic.citywide_churn
    stream = make(client.network, seed)
    for request in itertools.islice(stream, WARMUP[name]):
        client.send(request)

    outcome = Outcome(setup_s=setups, latencies_ms=[], requests=0, timed_s=0.0)
    disk = client.engine.disk
    before_faults = disk.pages_faulted
    counters: dict = {}
    samples = []
    loop = _Loop(outcome, tracer, seconds, limit)
    if tracer is not None:
        tracer.install()
    phase("warm-up")
    loop.start()
    try:
        while loop.more():
            request = next(stream)
            outcome.attempted += 1
            with loop.unit():
                started = time.perf_counter()
                try:
                    response = client.send(request)
                except Exception as exc:  # a failed request is counted, not fatal
                    response = None
                    outcome.failed += 1
                    outcome.extra.setdefault("errors", []).append(repr(exc))
                elapsed = time.perf_counter() - started
            loop.done(elapsed, 1)
            if response is None:
                continue
            outcome.latencies_ms.append(elapsed * 1e3)
            outcome.kinds_ms.setdefault(request.kind, []).append(elapsed * 1e3)
            outcome.requests += 1
            _add_cost(counters, response.result, response)
            if loop.units % SAMPLE_STRIDE[name] == 1 and len(samples) < MAX_SAMPLES:
                samples.append((request, response.result))
    finally:
        loop.finish()
        if tracer is not None:
            tracer.uninstall()
    counters["pages_faulted"] = disk.pages_faulted - before_faults
    outcome.counters = counters
    outcome.extra["st_index_pages"] = disk.num_pages
    outcome.extra["store_bytes"] = _store_bytes(store)
    outcome.extra["visits"] = cache.build_info()["sizes"]["full"]["visits"]
    disk.close()
    del client, disk

    phase("timed phase")
    # Answer check: a fresh sim engine, cold, without region reuse.
    network, database = cache.load("dataset.pkl")
    reference = ReachabilityClient(
        QueryService(
            sim_engine(network, database, cache.load("sim_full.pkl")),
            delta_t_s=cache.DELTA_T_S,
        )
    )
    for request, result in samples:
        outcome.checked += 1
        if not _same(reference.send(_cold(request)).result, result):
            outcome.mismatches += 1
    phase("answer check")
    return outcome


# -- ingest-durable ----------------------------------------------------------------


def run_ingest(seed: int, seconds: float, tracer, limit=None) -> Outcome:
    """Appends through the durable store interleaved with query bursts."""
    work = cache.CACHE_ROOT / "runs" / f"ingest-{seed}-{time.time_ns()}"
    store = work / "store"
    shutil.copytree(cache.cache_dir() / "store_d26", store)
    try:
        return _run_ingest(store, seed, seconds, tracer, limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_ingest(store: Path, seed: int, seconds: float, tracer, limit) -> Outcome:
    engine, setups = _median_setup(
        SETUPS, lambda: open_store(store), lambda e: e.disk.close()
    )
    # open_store restores a statistics-only trajectory database, which
    # cannot ingest; the ingesting service owns the real one.
    base, held_out = cache.load("ingest.pkl")
    engine.database = base
    client = ReachabilityClient(QueryService(engine, delta_t_s=cache.DELTA_T_S))
    stream = traffic.hot_mixed(engine.network, seed)
    chunks = traffic.ingest_chunks(held_out, seed, INGEST_CHUNK_TAXI_DAYS)
    for _ in client.stream(list(itertools.islice(stream, INGEST_BURST)), warm=True):
        pass

    outcome = Outcome(setup_s=setups, latencies_ms=[], requests=0, timed_s=0.0)
    disk = engine.disk
    before_io = disk.snapshot()
    before_faults = disk.pages_faulted
    before_bytes = _store_bytes(store)
    counters: dict = {}
    cycles = 0
    samples: list = []  # (cycle, request, result)
    append_s: list[float] = []
    freshness_ms: list[float] = []
    visits = 0
    plans_reused = 0
    loop = _Loop(outcome, tracer, seconds, limit)
    if tracer is not None:
        tracer.install()
    phase("warm-up")
    loop.start()
    try:
        while loop.more() and cycles < len(chunks):
            cycle, chunk = cycles, chunks[cycles]
            requests = list(itertools.islice(stream, INGEST_BURST))
            outcome.attempted += 1 + len(requests)
            with loop.unit():
                cycle_started = time.perf_counter()
                client.service.append_trajectories(chunk)
                append_s.append(time.perf_counter() - cycle_started)
                cycles += 1
                visits += sum(len(t.visits) for t in chunk)
                pulled = time.perf_counter()
                responses = client.stream(requests, warm=True)
                plans_reused += responses.report.plans_reused
                for position, request in enumerate(requests):
                    try:
                        response = next(responses)
                    except Exception as exc:  # counted, not fatal
                        outcome.failed += len(requests) - position
                        outcome.extra.setdefault("errors", []).append(repr(exc))
                        break
                    now = time.perf_counter()
                    if position == 0:
                        freshness_ms.append((now - cycle_started) * 1e3)
                    latency_ms = (now - pulled) * 1e3
                    pulled = now
                    outcome.latencies_ms.append(latency_ms)
                    outcome.kinds_ms.setdefault(request.kind, []).append(latency_ms)
                    outcome.requests += 1
                    _add_cost(counters, response.result, response)
                    if position in (0, INGEST_BURST // 2):
                        samples.append((cycle, request, response.result))
                cycle_s = time.perf_counter() - cycle_started
            loop.done(cycle_s, len(requests))
    finally:
        loop.finish()
        if tracer is not None:
            tracer.uninstall()

    io = disk.snapshot() - before_io
    counters["page_writes"] = io.page_writes
    counters["pages_faulted"] = disk.pages_faulted - before_faults
    counters["appends"] = cycles
    counters["visits_appended"] = visits
    counters["journal_bytes"] = _store_bytes(store) - before_bytes
    outcome.counters = counters
    base_visits = cache.build_info()["sizes"]["d26"]["visits"]
    outcome.extra.update(
        st_index_pages=disk.num_pages,
        store_bytes=_store_bytes(store),
        visits=base_visits + visits,
        append_s=append_s,
        freshness_ms=freshness_ms,
        plans_reused=plans_reused,
    )
    if tracer is not None:
        _, outcome.extra["save_store_s"] = _timed(
            lambda: save_store(engine, store, cache.DELTA_T_S)
        )
    disk.close()
    network = engine.network
    del client, engine, disk

    phase("timed phase")
    # Answer check: a sim shadow engine receiving the same appends.
    shadow_db, _ = cache.load("ingest.pkl")
    shadow = ReachabilityClient(
        QueryService(
            sim_engine(network, shadow_db, cache.load("sim_d26.pkl")),
            delta_t_s=cache.DELTA_T_S,
        )
    )
    # The first and the last cycle are checked; the shadow replays every
    # append in between.
    checked = {0, cycles - 1}
    done = -1
    for cycle, request, result in (s for s in samples if s[0] in checked):
        while done < cycle:
            done += 1
            shadow.service.append_trajectories(chunks[done])
        outcome.checked += 1
        if not _same(shadow.send(_cold(request)).result, result):
            outcome.mismatches += 1
    phase("answer check")
    return outcome


# -- sharded-hot ---------------------------------------------------------------------


def run_sharded(seed: int, seconds: float, tracer, limit=None) -> Outcome:
    """``hot-mixed`` traffic in fixed-size batches over two shard workers."""
    from repro.serving import ShardedEngine

    store = cache.cache_dir() / "store_full"
    spawn_s: list[float] = []

    def open_sharded():
        service = QueryService(
            open_store(store, readonly=True), delta_t_s=cache.DELTA_T_S
        )
        sharded, elapsed = _timed(lambda: ShardedEngine(service, shards=2, workers=2))
        spawn_s.append(elapsed)
        return sharded

    def close_sharded(sharded) -> None:
        sharded.close()
        sharded.engine.disk.close()

    sharded, setups = _median_setup(SHARDED_SETUPS, open_sharded, close_sharded)
    try:
        return _run_sharded(sharded, setups, spawn_s, seed, seconds, tracer, limit)
    finally:
        close_sharded(sharded)


def _run_sharded(sharded, setups, spawn_s, seed, seconds, tracer, limit) -> Outcome:
    stream = traffic.hot_mixed(sharded.engine.network, seed)
    for _ in range(SHARDED_WARMUP_BATCHES):
        sharded.run_batch(list(itertools.islice(stream, SHARDED_BATCH)), warm=True)

    outcome = Outcome(setup_s=setups, latencies_ms=[], requests=0, timed_s=0.0)
    outcome.extra["spawn_s"] = spawn_s
    counters: dict = {}
    serving = {
        "worker_busy_ms": 0.0, "slowest_worker_ms": 0.0, "imbalance": 0.0,
        "retries": 0, "worker_restarts": 0, "degraded_requests": 0,
        "stale_frames": 0, "plans_reused": 0,
    }
    samples = []
    loop = _Loop(outcome, tracer, seconds, limit)
    if tracer is not None:
        tracer.install()
    phase("warm-up")
    loop.start()
    try:
        while loop.more():
            batch = list(itertools.islice(stream, SHARDED_BATCH))
            outcome.attempted += len(batch)
            with loop.unit():
                started = time.perf_counter()
                try:
                    report = sharded.run_batch(batch, warm=True)
                except Exception as exc:  # counted, not fatal
                    report = None
                    outcome.failed += len(batch)
                    outcome.extra.setdefault("errors", []).append(repr(exc))
                elapsed = time.perf_counter() - started
            loop.done(elapsed, len(batch))
            if report is None:
                continue
            outcome.latencies_ms.append(elapsed * 1e3)
            outcome.requests += len(batch)
            for result in report.results:
                _add_cost(counters, result)
            counters["regions_computed"] = (
                counters.get("regions_computed", 0) + report.regions_computed
            )
            counters["regions_reused"] = (
                counters.get("regions_reused", 0) + report.regions_reused
            )
            walls = {}
            for shard in report.shard_reports:
                worker = shard.shard_id % sharded.num_workers
                walls[worker] = walls.get(worker, 0.0) + shard.worker_wall_s * 1e3
            if walls:
                serving["worker_busy_ms"] += sum(walls.values())
                serving["slowest_worker_ms"] += max(walls.values())
                serving["imbalance"] += max(walls.values()) / statistics.mean(
                    walls.values()
                )
            for name in ("retries", "worker_restarts", "degraded_requests",
                         "stale_frames", "plans_reused"):
                serving[name] += getattr(report, name)
            if loop.units % 4 == 1 and len(samples) < SHARDED_SAMPLE_BATCHES:
                samples.append((batch, report.results))
    finally:
        loop.finish()
        if tracer is not None:
            tracer.uninstall()
    outcome.counters = counters
    outcome.extra.update(
        serving=serving,
        batches=len(outcome.latencies_ms),
        st_index_pages=sharded.engine.disk.num_pages,
        store_bytes=_store_bytes(cache.cache_dir() / "store_full"),
        visits=cache.build_info()["sizes"]["full"]["visits"],
    )

    phase("timed phase")
    # Answer check: the single-process service over the same store.  A
    # cross-shard m-query's parts may compute different (equally valid)
    # shell probabilities, so only its segments must match.
    decomposed = [set(sharded.plan_dispatch(batch).decomposed) for batch, _ in samples]
    local = ReachabilityClient(sharded.service)
    for (batch, results), split in zip(samples, decomposed):
        expected = local.run_batch(batch, warm=True).results
        for seq, (want, got) in enumerate(zip(expected, results)):
            outcome.checked += 1
            same = (
                want.segments == got.segments
                if seq in split
                else _same(want, got)
            )
            if not same:
                outcome.mismatches += 1
    phase("answer check")
    return outcome


WORKLOADS = {
    "hot-mixed": functools.partial(run_send, "hot-mixed"),
    "citywide-churn": functools.partial(run_send, "citywide-churn"),
    "ingest-durable": run_ingest,
    "sharded-hot": run_sharded,
}


def run(name: str, seed: int, seconds: float, tracer=None, limit=None) -> Outcome:
    return WORKLOADS[name](seed, seconds, tracer, limit)
