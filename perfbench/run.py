#!/usr/bin/env python3
"""The reachability service benchmark: one command, named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload citywide-churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, one table
    python3 perfbench/run.py --selftest            # exact counters repeat

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (``--spans FILE`` also writes its spans as JSON lines).  The
workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The first run in a checkout
builds the dataset and the index stores once (see ``cache.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def fingerprint(seed: int, workload: str) -> dict:
    import numpy

    import cache

    commit = "unknown"  # a checkout without .git (git must not search above it)
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_hash": cache.source_hash(),
        "build": cache.build_info(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, spec: dict) -> int:
    import cache
    import metrics
    import workloads
    from tracer import Tracer

    if not (cache.cache_dir() / "build.json").exists():
        # A separate process, so the build's memory stays out of peak RSS.
        proc = _child(["--build"])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
    tracer = Tracer() if args.trace else None
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, tracer, limit=args.requests
    )
    correct = outcome.mismatches == 0 and outcome.checked > 0
    failed = outcome.failed + outcome.mismatches

    facts = fingerprint(args.seed, args.workload)
    print(f"# {args.workload}  seed={args.seed}  nproc={facts['nproc']}  "
          f"python={facts['python']}  numpy={facts['numpy']}  "
          f"commit={facts['git_commit']}  source={facts['source_hash']}")
    sizes = facts["build"]["sizes"]["full"]
    pool = sizes["pool_capacity_pages"]
    print(f"# inputs: ST-Index {outcome.extra['st_index_pages']:,} pages of 1 KiB, "
          f"buffer pools {pool:,} pages, {outcome.requests:,} requests in "
          f"{outcome.timed_s:.2f} s ({len(outcome.latencies_ms):,} client calls), "
          f"{len(outcome.setup_s)} set-ups")
    print(f"# answers: {outcome.checked} sampled and re-executed on the "
          f"independent path, {outcome.mismatches} mismatches, "
          f"{outcome.failed} failed requests")
    for error in outcome.extra.get("errors", [])[:5]:
        print(f"#   error: {error}")

    if args.trace:
        summary = tracer.summarize()
        values = metrics.per_layer(outcome, summary, tracer)
        names = [m["name"] for m in spec["per_layer"]]
        misses = outcome.counters.get("pool_misses", 0)
        if tracer.pages:
            verdict = "fits" if len(tracer.pages) <= pool else "exceeds"
            print(f"# working set: {len(tracer.pages):,} distinct pages touched "
                  f"in the timed phase vs {pool:,}-page pools ({verdict}); "
                  f"{misses:,} pool misses")
        else:
            print("# working set: pool accesses happen in worker processes; "
                  f"{misses:,} pool misses reported by the shards")
        if args.spans:
            tracer.write_jsonl(args.spans)
            print(f"# spans: {len(tracer.spans):,} written to {args.spans}")
    else:
        values = metrics.end_to_end(outcome)
        names = [m["name"] for m in spec["end_to_end"]]
        print(f"  {'(samples)':<28} {len(outcome.latencies_ms):>14} calls, "
              f"setup samples {[round(s, 3) for s in outcome.setup_s]}")

    for name, (value, unit, kind) in values.items():
        gated = "" if name in names else ", not gated"
        print(f"  {name:<28} {_fmt(value):>14} {unit:<10} {kind}{gated}")
    if args.requests is not None:
        print("# exact counters: " + json.dumps(exact_counters(outcome), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name][0], "unit": values[name][1]} for name in names
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def exact_counters(outcome) -> dict:
    """The deterministic counts a fixed request sequence must repeat."""
    keys = (
        "page_reads", "pool_hits", "pool_misses", "pool_evictions",
        "probability_checks", "probability_waves", "regions_computed",
        "regions_reused", "pages_faulted", "journal_bytes", "page_writes",
    )
    counts = {k: outcome.counters[k] for k in keys if k in outcome.counters}
    counts["store_bytes"] = outcome.extra["store_bytes"]
    return counts


def _child(args_list: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args_list,
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


def run_all(args, names) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in names:
        proc = _child([
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def selftest(args) -> int:
    """Two same-seed runs of each single-process workload over a fixed
    request count must report identical work counters."""
    status = 0
    for workload in ("hot-mixed", "citywide-churn", "ingest-durable"):
        counts = []
        for _ in range(2):
            proc = _child([
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", "600", "--trace", "0", "--requests", "200"
                if workload != "ingest-durable" else "3",
            ])
            line = [x for x in proc.stdout.splitlines() if x.startswith("# exact counters: ")]
            if proc.returncode != 0 or not line:
                sys.stderr.write(proc.stderr)
                counts.append(None)
                continue
            counts.append(json.loads(line[0].split(": ", 1)[1]))
        same = counts[0] is not None and counts[0] == counts[1]
        print(f"{workload}: {'exact' if same else 'MISMATCH'} {counts[0]}")
        if not same:
            print(f"  second run: {counts[1]}")
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced run: write spans as JSON lines")
    parser.add_argument("--requests", type=int,
                        help="run a fixed number of units instead of --seconds")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--build", action="store_true",
                        help="only build the dataset and index stores")
    parser.add_argument("--selftest", action="store_true",
                        help="check that work counters repeat exactly")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        log(f"error: no program sources under {ROOT / 'src'}; run from a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC_PATH.read_text())
    import workloads

    if args.build:
        import cache

        cache.ensure_built(log)
        return 0
    if args.selftest:
        return selftest(args)
    if args.all:
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
