#!/usr/bin/env python3
"""Measure the seed-17 20-query batch under the three old protocols.

The committed headlines for "the same" batch disagree: 353 q/s (fresh
``QueryService`` per repetition, median of 7), 439 q/s (``bench_serving``:
shared engine, warm-up run, fresh service per repetition) and 461 q/s
(``bench_io``: median interleaved with runs of the legacy scalar path).
This script runs all three on one engine in one process, alternating the
protocols over several rounds, plus the benchmark's own closed loop over
the same 20 requests, so their differences can be read against the
machine's run-to-run noise.  ``perfbench/NOTES.md`` records the result.

Usage (from the repository root, after one benchmark run built the cache)::

    python3 perfbench/reconcile.py [--rounds 5] [--seconds 15]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cache  # noqa: E402
import workloads  # noqa: E402
from repro import QueryOptions, ReachabilityClient, Request  # noqa: E402
from repro.core.service import QueryService  # noqa: E402
from repro.eval import config  # noqa: E402
from repro.eval.workload import QueryWorkload  # noqa: E402

REPEAT = 7


def batch_ms(run) -> float:
    started = time.perf_counter()
    run()
    return (time.perf_counter() - started) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    settings = config.DEFAULT_SETTINGS
    network, database = cache.load("dataset.pkl")
    engine = workloads.sim_engine(network, database, cache.load("sim_full.pkl"))
    batch = QueryWorkload(network, seed=17).mixed_batch(
        16, 4, start_time_s=settings.start_time_s
    )
    dt = settings.delta_t_s

    def run_cold():  # fresh service, cold pools: bench_probability/bench_serving
        QueryService(engine, delta_t_s=dt).run_batch(batch, delta_t_s=dt)

    try:
        from repro.core import legacy_probability as legacy
    except ImportError:  # the scalar oracle may be gone from later sources
        legacy = None

    def run_legacy():
        with legacy.legacy_probability_path():
            run_cold()

    run_cold()  # the warm-up run every old protocol made first
    results: dict[str, list[float]] = {"fresh-service": [], "shared-engine": [], "paired-legacy": []}
    for round_ in range(args.rounds):
        order = list(results)
        if round_ % 2:
            order.reverse()
        for protocol in order:
            if protocol == "paired-legacy":
                if legacy is None:
                    continue
                times = []
                for i in range(REPEAT):
                    if i % 2:
                        times.append(batch_ms(run_cold))
                        run_legacy()
                    else:
                        run_legacy()
                        times.append(batch_ms(run_cold))
            elif protocol == "shared-engine":
                run_cold()
                times = [batch_ms(run_cold) for _ in range(REPEAT)]
            else:
                times = [batch_ms(run_cold) for _ in range(REPEAT)]
            results[protocol].append(len(batch) / (statistics.median(times) / 1e3))

    for protocol, qps in results.items():
        if qps:
            print(f"{protocol:<14} median {statistics.median(qps):6.1f} q/s over "
                  f"{len(qps)} rounds, range {min(qps):.1f}-{max(qps):.1f}")

    client = ReachabilityClient(QueryService(engine, delta_t_s=dt))
    requests = [Request(q, QueryOptions(warm=True)) for q in batch]
    for request in requests:
        client.send(request)
    done, started = 0, time.perf_counter()
    while time.perf_counter() - started < args.seconds:
        for request in requests:
            client.send(request)
        done += len(requests)
    elapsed = time.perf_counter() - started
    print(f"{'this harness':<14} {done / elapsed:6.1f} q/s: closed-loop warm sends "
          f"of the same 20 requests for {elapsed:.1f} s")


if __name__ == "__main__":
    main()
