"""FileBackedDisk: backend equivalence, store round trips, freshness.

The durable backend must be indistinguishable from :class:`SimulatedDisk`
to everything above the storage tier — same query answers, same
page-granular :class:`DiskStats` accounting (lazy fault-ins are not
charged) — while adding crash-safe persistence underneath.  The crash
and corruption matrices live in ``test_durability.py``; this file covers
the sunny-day contract plus the persistence-format regressions.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from benchmarks.client_protocol import s_query
from repro.api import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.core.st_index import STIndex
from repro.io.persist import (
    PersistFormatError,
    load_database,
    open_store,
    save_store,
)
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.storage.backends import (
    DISK_BACKENDS,
    FileBackedDisk,
    create_disk,
)
from repro.storage.disk import DiskError, SimulatedDisk
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))


@pytest.fixture()
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


def make_day(route, day, traj_id):
    return MatchedTrajectory(
        trajectory_id=traj_id, taxi_id=traj_id % 5, date=day,
        visits=[SegmentVisit(route[i], T + 10 + 30 * i, 6.0)
                for i in range(len(route))],
    )


@pytest.fixture()
def route(network):
    path = [0]
    while len(path) < 4:
        path.append(network.successors(path[-1])[0])
    return path


def make_database(route, days=3):
    db = TrajectoryDatabase(num_taxis=5, num_days=days)
    for day in range(days):
        db.add(make_day(route, day, day))
    db.finalize()
    return db


class TestBackendEquivalence:
    def test_create_disk_registry(self, tmp_path):
        assert DISK_BACKENDS == ("sim", "file")
        sim = create_disk("sim", page_size=512)
        assert type(sim) is SimulatedDisk
        filed = create_disk("file", path=tmp_path / "d", page_size=512)
        assert isinstance(filed, FileBackedDisk)
        with pytest.raises(ValueError):
            create_disk("file")  # path required
        with pytest.raises(ValueError):
            create_disk("ramcloud")

    def test_same_answers_same_accounting(self, network, route, tmp_path):
        db = make_database(route)
        disks = {
            "sim": SimulatedDisk(page_size=1024),
            "file": FileBackedDisk(tmp_path / "store", page_size=1024),
        }
        results, stats = {}, {}
        query = SQuery(Point(0, 0), T, 600, 0.3)
        for name, disk in disks.items():
            engine = ReachabilityEngine(network, db, disk=disk)
            engine.st_index(300)
            results[name] = s_query(ReachabilityClient(engine), query)
            stats[name] = disk.snapshot()
        assert results["sim"].segments == results["file"].segments
        # Page-granular accounting identical: fault-ins are uncharged.
        assert stats["sim"] == stats["file"]

    def test_index_reads_identical(self, network, route, tmp_path):
        db = make_database(route)
        sim_index = STIndex(network, 300, disk=SimulatedDisk(page_size=512))
        sim_index.build(db)
        file_index = STIndex(
            network, 300, disk=FileBackedDisk(tmp_path / "s", page_size=512)
        )
        file_index.build(db)
        slot = sim_index.slot_of(T)
        for seg in set(route):
            assert sim_index.time_list(seg, slot) == file_index.time_list(seg, slot)

    def test_from_state_rejected(self, tmp_path):
        with pytest.raises(DiskError, match="create_from_state"):
            FileBackedDisk.from_state(b"", [], page_size=512)


class TestStoreRoundTrip:
    @pytest.fixture()
    def saved(self, test_dataset, tmp_path):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        store = tmp_path / "store"
        save_store(engine, store, 300)
        return store, engine

    @pytest.fixture()
    def dataset_route(self, test_dataset):
        network = test_dataset.network
        path = [0]
        while len(path) < 4:
            path.append(network.successors(path[-1])[0])
        return path

    def test_query_equivalence_and_lazy_faulting(self, saved):
        store, engine = saved
        query = SQuery(Point(0, 0), T, 600, 0.2)
        expected = s_query(ReachabilityClient(engine), query)
        reopened = open_store(store)
        got = s_query(ReachabilityClient(reopened), query)
        assert expected.segments  # non-trivial query on the real dataset
        assert got.segments == expected.segments
        disk = reopened.disk
        assert isinstance(disk, FileBackedDisk)
        # Cold start touched only the pages the query needed.
        assert 0 < disk.pages_faulted < disk.num_pages

    def test_append_durable_across_reopen(self, saved, dataset_route):
        store, _ = saved
        route = dataset_route
        new_day = 12  # outside the dataset's 10 days: unambiguous marker
        engine = open_store(store)
        index = engine.st_index(300)
        slot = index.slot_of(T)
        before = index.time_list(route[0], slot)
        engine.append_trajectories(
            [make_day(route, new_day, 7)], update_database=False
        )
        after = index.time_list(route[0], slot)
        assert set(after) == set(before) | {new_day}
        # No checkpoint ran: the append lives in the journal only.
        assert engine.disk.journal_record_count > 0

        fresh = open_store(store)
        replayed = fresh.st_index(300).time_list(route[0], slot)
        assert replayed == after

    def test_double_open_idempotent(self, saved, dataset_route):
        store, _ = saved
        engine = open_store(store)
        engine.append_trajectories(
            [make_day(dataset_route, 13, 9)], update_database=False
        )
        slot_lists = {}
        for attempt in range(2):
            reopened = open_store(store)
            index = reopened.st_index(300)
            slot = index.slot_of(T)
            slot_lists[attempt] = {
                seg: index.time_list(seg, slot) for seg in set(dataset_route)
            }
            assert reopened.disk.journal_record_count == engine.disk.journal_record_count
        assert slot_lists[0] == slot_lists[1]

    def test_in_place_resave_page_stable(self, saved, dataset_route):
        store, _ = saved
        engine = open_store(store)
        pages_before = engine.disk.num_pages
        engine.append_trajectories(
            [make_day(dataset_route, 14, 11)], update_database=False
        )
        save_store(engine, store, 300)  # in-place: checkpoint, no re-export
        assert engine.disk.journal_record_count == 0  # folded into snapshot
        reopened = open_store(store)
        assert reopened.disk.num_pages == engine.disk.num_pages
        # Page count grew only by the appended tail, not a rewrite.
        assert reopened.disk.num_pages >= pages_before

    def test_readonly_open_serves_but_never_writes(self, saved):
        store, _ = saved
        engine = open_store(store, readonly=True)
        query = SQuery(Point(0, 0), T, 600, 0.3)
        assert s_query(ReachabilityClient(engine), query).segments
        disk = engine.disk
        assert isinstance(disk, FileBackedDisk)
        disk.commit(meta=b"ignored")  # no-op, not an error
        assert disk.journal_record_count == 0
        with pytest.raises(DiskError):
            disk.checkpoint()

    def test_open_missing_store_rejected(self, tmp_path):
        with pytest.raises(PersistFormatError, match="incomplete|missing"):
            open_store(tmp_path / "nowhere")


class TestExportStateAtomicity:
    def test_export_state_is_atomic_under_writes(self, tmp_path):
        """Barrier-style race regression: export_state must hold the lock
        for its whole scan, so a concurrent writer can never produce a
        half-old half-new export."""
        disk = SimulatedDisk(page_size=64)
        disk.allocate(64)
        marker = {"stop": False}
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            for round_no in range(200):
                payload = bytes([round_no % 256]) * 64
                for page in range(64):
                    disk.write_page(page, payload)

        thread = threading.Thread(target=writer)
        thread.start()
        barrier.wait()
        try:
            for _ in range(50):
                buffer, used = disk.export_state()
                pages = [
                    buffer[i * 64 : i * 64 + used[i]] for i in range(64)
                ]
                seen = {p for p in pages if p}
                # All non-empty pages written so far carry one writer
                # round each; an export observing a torn *page* would
                # show a value no round ever wrote.  Stronger: every
                # page is byte-uniform.
                for page in seen:
                    assert len(set(page)) <= 1
        finally:
            marker["stop"] = True
            thread.join()

    def test_rl001_flags_unlocked_export_state(self, tmp_path):
        """Gate proof: stripping the lock off export_state fails RL001."""
        import shutil

        from tools.repro_lint.core import run_paths

        from tests.test_repro_lint import REPO_ROOT

        dest = tmp_path / "src"
        shutil.copytree(REPO_ROOT / "src", dest)
        disk_py = dest / "repro" / "storage" / "disk.py"
        text = disk_py.read_text(encoding="utf-8")
        needle = "with self._lock:\n            self._ensure_resident_locked(0, len(self._used))"
        assert needle in text
        text = text.replace(
            needle,
            "if True:\n            self._ensure_resident_locked(0, len(self._used))",
            1,
        )
        disk_py.write_text(text, encoding="utf-8")
        _, findings = run_paths([str(dest)])
        assert any(
            f.rule == "RL001" and "export_state" in f.message for f in findings
        )


class TestPersistFormatErrors:
    @pytest.fixture()
    def store(self, network, route, tmp_path):
        engine = ReachabilityEngine(
            network, make_database(route), disk=SimulatedDisk(page_size=512)
        )
        index = engine.st_index(300)
        return save_store(engine, tmp_path / "store", 300), index

    def test_round_trip_still_works(self, store, route):
        path, index = store
        loaded = open_store(path).st_index(300)
        slot = index.slot_of(T)
        for seg in set(route):
            assert loaded.time_list(seg, slot) == index.time_list(seg, slot)

    def test_truncated_file_rejected(self, store):
        path, _ = store
        directory = path / "directory.npz"
        blob = directory.read_bytes()
        directory.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistFormatError):
            open_store(path)

    def test_garbage_bytes_rejected(self, store):
        path, _ = store
        (path / "directory.npz").write_bytes(b"this is not an npz archive at all")
        with pytest.raises(PersistFormatError):
            open_store(path)

    def test_future_version_rejected(self, store):
        path, _ = store
        directory = path / "directory.npz"
        data = dict(np.load(directory))
        data["version"] = np.int64(99)
        np.savez_compressed(directory, **data)
        with pytest.raises(
            PersistFormatError, match="unsupported store directory format"
        ):
            open_store(path)

    def test_missing_array_rejected(self, store):
        path, _ = store
        directory = path / "directory.npz"
        data = dict(np.load(directory))
        data.pop("dir_first_page")
        np.savez_compressed(directory, **data)
        with pytest.raises(PersistFormatError, match="dir_first_page"):
            open_store(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "absent.npz")
