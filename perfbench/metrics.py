"""Turn a workload :class:`~workloads.Outcome` into named metrics.

``end_to_end`` metrics come from untraced runs; ``per_layer`` metrics
from traced runs, where every other unit (request, batch or ingest
cycle) runs with spans on.  Time per request divides by the traced
requests; counts per request divide by every request of the run.
Each metric carries a ``kind`` derived from its unit: ``time`` (wall
clock, varies run to run), ``count`` (a deterministic work count; exact
for a fixed request sequence, see ``run.py --selftest``), ``size``
(memory, not exact) or ``ratio``.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from tracer import LAYERS


#: Whether a unit is a wall-clock timing, a deterministic work count or a ratio.
KINDS = {
    "s": "time", "ms": "time", "ms/req": "time", "ms/call": "time",
    "ms/batch": "time", "ms/unit": "time", "1/s": "time", "%": "time",
    "count": "count", "count/req": "count", "B": "count", "MiB": "size",
    "ratio": "ratio",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb(outcome) -> float:
    """Peak RSS up to the end of the timed phase plus, when the workload
    spawned shard workers, the largest (joined) worker's, in MiB."""
    peak = outcome.extra["peak_rss_mb"]
    if "spawn_s" in outcome.extra:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return peak


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _with_kinds(metrics: dict) -> dict:
    return {name: (value, unit, KINDS[unit]) for name, (value, unit) in metrics.items()}


def end_to_end(outcome) -> dict:
    """Every end-to-end figure of a run: ``name -> (value, unit, kind)``.

    ``BENCHMARK.json`` gates the ones every workload has and that stay
    steady; the rest are printed beside them.
    """
    lat = outcome.latencies_ms
    extra = outcome.extra
    failures = outcome.failed + outcome.mismatches
    out = {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "throughput_qps": (_div(outcome.requests, outcome.timed_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(outcome), "MiB"),
        "store_bytes_per_visit": (_div(extra["store_bytes"], extra["visits"]), "B"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p95_ms": (percentile(lat, 95), "ms"),
        "error_rate": (_div(failures, outcome.attempted), "ratio"),
    }
    for kind, values in sorted(outcome.kinds_ms.items()):
        out[f"{kind}_query_p50_ms"] = (percentile(values, 50), "ms")
    if "batches" in extra:
        out["batch_p50_ms"] = (percentile(outcome.latencies_ms, 50), "ms")
        out["batch_p95_ms"] = (percentile(outcome.latencies_ms, 95), "ms")
    if "append_s" in extra:
        out["ingest_visits_per_s"] = (
            _div(outcome.counters["visits_appended"], sum(extra["append_s"])), "1/s"
        )
        out["freshness_p50_ms"] = (percentile(extra["freshness_ms"], 50), "ms")
    return _with_kinds(out)


def per_layer(outcome, summary: dict, tracer) -> dict:
    """Every per-layer metric (0 where a layer is not on the workload's path)."""
    inclusive = summary["inclusive_ms"]
    self_ms = summary["self_ms"]
    calls = summary["calls"]
    traced = outcome.traced_requests
    requests = outcome.requests
    c = outcome.counters
    extra = outcome.extra

    def per_req_ms(name: str) -> float:
        return _div(inclusive.get(name, 0.0), traced)

    def per_req(count: float) -> float:
        return _div(count, requests)

    evals = c.get("probability_checks", 0)
    prob_calls = _div(calls.get("probability.eval", 0), traced)
    computed, reused = c.get("regions_computed", 0), c.get("regions_reused", 0)
    hits, misses = c.get("pool_hits", 0), c.get("pool_misses", 0)
    kernel, scalar = c.get("kernel_probability_evals", 0), c.get("scalar_probability_evals", 0)
    pages = extra["st_index_pages"]
    units_ms = summary["units_ms"]
    serving = extra.get("serving", {})
    batches = extra.get("batches", 0)
    traced_batches = len(outcome.traced_ms) if batches else 0
    setups = outcome.setup_s
    spawns = extra.get("spawn_s", [])
    opens = [s - w for s, w in zip(setups, spawns)] if spawns else setups
    m = {
        "api.route_ms": (per_req_ms("api.route"), "ms/req"),
        "api.plan_ms": (per_req_ms("api.plan"), "ms/req"),
        "api.plans_reused": (serving.get("plans_reused", extra.get("plans_reused", 0)), "count"),
        "executors.self_ms": (_div(self_ms.get("executors.execute_plan", 0.0), traced), "ms/req"),
        "expansion.bounding_region_ms": (per_req_ms("expansion.bounding_region"), "ms/req"),
        "expansion.regions_computed": (per_req(computed), "count/req"),
        "expansion.regions_reused": (per_req(reused), "count/req"),
        "expansion.region_reuse_ratio": (_div(reused, computed + reused), "ratio"),
        "con_index.entry_ms": (per_req_ms("expansion.con_index_entry"), "ms/req"),
        "con_index.entry_calls": (_div(calls.get("expansion.con_index_entry", 0), traced), "count/req"),
        "con_index.travel_time_vector_ms": (per_req_ms("expansion.travel_time_vector"), "ms/req"),
        "trajectory.finalize_ms": (per_req_ms("trajectory.finalize"), "ms/req"),
        "trajectory.finalize_calls": (calls.get("trajectory.finalize", 0), "count"),
        "probability.ms": (per_req_ms("probability.eval"), "ms/req"),
        "probability.calls": (prob_calls, "count/req"),
        "probability.evals": (per_req(evals), "count/req"),
        "probability.evals_per_call": (_div(per_req(evals), prob_calls), "ratio"),
        "probability.waves": (per_req(c.get("probability_waves", 0)), "count/req"),
        "probability.kernel_share": (_div(kernel, kernel + scalar), "ratio"),
        "tbs.self_ms": (_div(self_ms.get("probability.tbs", 0.0), traced), "ms/req"),
        "tbs.examined": (per_req(c.get("segments_expanded", 0)), "count/req"),
        "st_index.gather_ms": (per_req_ms("st_index.gather"), "ms/req"),
        "st_index.gather_calls": (_div(calls.get("st_index.gather", 0), traced), "count/req"),
        "st_index.records_gathered": (per_req(c.get("batched_record_reads", 0)), "count/req"),
        "st_index.append_ms": (
            _div(inclusive.get("st_index.append", 0.0), calls.get("st_index.append", 0)),
            "ms/call",
        ),
        "storage.page_reads": (per_req(c.get("page_reads", 0)), "count/req"),
        "storage.pool_hits": (per_req(hits), "count/req"),
        "storage.pool_misses": (per_req(misses), "count/req"),
        "storage.pool_evictions": (per_req(c.get("pool_evictions", 0)), "count/req"),
        "storage.pool_hit_ratio": (_div(hits, hits + misses), "ratio"),
        "storage.get_pages_ms": (
            per_req_ms("storage.get_pages") + per_req_ms("storage.get_page"), "ms/req"
        ),
        "storage.read_many_ms": (per_req_ms("storage.read_many"), "ms/req"),
        "storage.prefetched_pages": (per_req(c.get("prefetched_pages", 0)), "count/req"),
        "storage.page_writes": (c.get("page_writes", 0), "count"),
        "storage.commit_ms": (
            _div(inclusive.get("storage.commit", 0.0), calls.get("storage.commit", 0)),
            "ms/call",
        ),
        "storage.commits": (calls.get("storage.commit", 0), "count"),
        "storage.journal_bytes_per_visit": (
            _div(c.get("journal_bytes", 0), c.get("visits_appended", 0)), "B"
        ),
        "storage.pages_faulted": (per_req(c.get("pages_faulted", 0)), "count/req"),
        "storage.fault_ratio": (_div(c.get("pages_faulted", 0), pages), "ratio"),
        "storage.distinct_pages": (len(tracer.pages), "count"),
        "persist.open_store_s": (statistics.median(opens), "s"),
        "persist.save_store_s": (extra.get("save_store_s", 0.0), "s"),
        "serving.setup_s": (statistics.median(spawns) if spawns else 0.0, "s"),
        "serving.plan_dispatch_ms": (
            _div(inclusive.get("serving.plan_dispatch", 0.0), traced_batches), "ms/batch"
        ),
        "serving.worker_busy_ms": (_div(serving.get("worker_busy_ms", 0.0), batches), "ms/batch"),
        "serving.parent_wait_ms": (
            _div(self_ms.get("serving.run_batch", 0.0), traced_batches), "ms/batch"
        ),
        "serving.parent_overhead_ms": (
            _div(sum(outcome.latencies_ms) - serving.get("slowest_worker_ms", 0.0), batches)
            if batches else 0.0,
            "ms/batch",
        ),
        "serving.shard_imbalance": (_div(serving.get("imbalance", 0.0), batches), "ratio"),
        "serving.fallback_requests": (sum(len(d.fallback) for d in tracer.dispatches), "count"),
        "serving.decomposed_requests": (sum(len(d.decomposed) for d in tracer.dispatches), "count"),
    }
    for name in ("retries", "worker_restarts", "degraded_requests", "stale_frames"):
        m[f"serving.{name}"] = (serving.get(name, 0), "count")
    for layer in LAYERS:
        layer_ms = summary["layer_self_ms"].get(layer, 0.0)
        m[f"share.{layer}"] = (_div(layer_ms, units_ms), "ratio")
    m["trace.coverage"] = (_div(summary["covered_ms"], units_ms), "ratio")
    m["trace.unattributed_ms"] = (
        _div(units_ms - summary["covered_ms"], len(outcome.traced_ms)), "ms/unit"
    )
    traced_p50 = percentile(outcome.traced_ms, 50)
    untraced_p50 = percentile(outcome.untraced_ms, 50)
    m["trace.overhead_pct"] = (_div(traced_p50 - untraced_p50, untraced_p50) * 100, "%")
    return _with_kinds(m)
