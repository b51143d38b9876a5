"""The benchmark's one-time build: dataset, index stores and their snapshots.

Generating the ShenzhenLike city and bulk-building its ST-Index takes a
minute or more, far longer than one measured run.  Index construction is
offline work in the paper's model, so it happens once per checkout (the
first run of the first workload) and is cached under
``perfbench/.cache/<source hash>/``; every run then starts the serving
stack from the cached durable stores, which is what a deployment does.

Cached artifacts:

* ``dataset.pkl`` — the road network and the 30-day trajectory database;
* ``ingest.pkl`` — the first 26 days as a database (with a 30-day span,
  so held-out days can be appended) plus the held-out trajectories;
* ``store_full/`` and ``store_d26/`` — ``save_store`` bundles of the
  full and the 26-day index;
* ``sim_full.pkl`` and ``sim_d26.pkl`` — the same indexes as in-RAM disk
  state plus directory, from which answer checks restore fresh ``sim``
  engines without rebuilding;
* ``build.json`` — how long each step took and the input sizes.

The cache key hashes the program's sources and this file, so editing the
program or the build invalidates it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_ROOT = Path(__file__).resolve().parent / ".cache"

#: Index granularity Δt of every workload (``DEFAULT_SETTINGS.delta_t_s``).
DELTA_T_S = 300

#: Days of the 30-day dataset the ingest workload's store starts with.
INGEST_BASE_DAYS = 26


def source_hash() -> str:
    """Hash of the program sources plus this build recipe."""
    digest = hashlib.sha256()
    files = sorted((SRC / "repro").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    return CACHE_ROOT / source_hash()


def _dump(obj, path: Path) -> None:
    with open(path, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load(name: str):
    """Unpickle one cached artifact (a fresh, independent copy per call)."""
    with open(cache_dir() / name, "rb") as handle:
        return pickle.load(handle)


def build_info() -> dict:
    return json.loads((cache_dir() / "build.json").read_text())


def _sim_state(engine) -> tuple:
    index = engine.st_index(DELTA_T_S)
    buffer, used = engine.disk.export_state()
    return buffer, used, index.export_directory(), index.pool.capacity


def ensure_built(log) -> Path:
    """Build the cache for the current sources unless it already exists."""
    final = cache_dir()
    if (final / "build.json").exists():
        return final
    from repro import ReachabilityEngine, TrajectoryDatabase
    from repro.datasets.shenzhen_like import build_shenzhen_like
    from repro.eval.config import DEFAULT_SETTINGS
    from repro.io.persist import save_store

    if CACHE_ROOT.exists():
        shutil.rmtree(CACHE_ROOT)  # stale builds of other sources
    work = CACHE_ROOT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    timings: dict[str, float] = {}

    log("one-time build: generating the ShenzhenLike dataset ...")
    started = time.perf_counter()
    config = DEFAULT_SETTINGS.dataset
    dataset = build_shenzhen_like(config)
    timings["dataset_gen_s"] = time.perf_counter() - started
    network, database = dataset.network, dataset.database
    _dump((network, database), work / "dataset.pkl")

    base = TrajectoryDatabase(num_taxis=database.num_taxis, num_days=database.num_days)
    held_out = []
    for trajectory in database:
        if trajectory.date < INGEST_BASE_DAYS:
            base.add(trajectory)
        else:
            held_out.append(trajectory)
    base.finalize()
    _dump((base, held_out), work / "ingest.pkl")

    sizes = {}
    for tag, db in (("full", database), ("d26", base)):
        log(f"one-time build: ST-Index over {len(db):,} taxi-days ...")
        started = time.perf_counter()
        engine = ReachabilityEngine(network, db)
        index = engine.st_index(DELTA_T_S)
        timings[f"st_index_build_{tag}_s"] = time.perf_counter() - started
        started = time.perf_counter()
        save_store(engine, work / f"store_{tag}", DELTA_T_S)
        timings[f"save_store_{tag}_s"] = time.perf_counter() - started
        _dump(_sim_state(engine), work / f"sim_{tag}.pkl")
        sizes[tag] = {
            "taxi_days": len(db),
            "visits": sum(len(segments) for _, _, segments, _ in db.iter_compact()),
            "st_index_pages": engine.disk.num_pages,
            "st_index_entries": index.stats.num_entries,
            "pool_capacity_pages": index.pool.capacity,
        }
        del engine, index

    info = {
        "dataset_config": dataclasses.asdict(config),
        "segments": network.num_segments,
        "delta_t_s": DELTA_T_S,
        "held_out_taxi_days": len(held_out),
        "sizes": sizes,
        "timings": timings,
    }
    (work / "build.json").write_text(json.dumps(info, indent=2, sort_keys=True))
    os.replace(work, final)
    log(f"one-time build done: {json.dumps(timings)}")
    return final
