"""Tests for dataset persistence and the CLI."""

import json

import pytest

from benchmarks.client_protocol import s_query
from repro.api import ReachabilityClient
from repro.cli import build_parser, main
from repro.io.persist import (
    load_database,
    load_dataset,
    load_network,
    save_database,
    save_dataset,
    save_network,
)
from repro.network.generator import grid_city
from repro.trajectory.model import MatchedTrajectory, SegmentVisit
from repro.trajectory.store import TrajectoryDatabase


class TestNetworkPersistence:
    def test_roundtrip(self, tiny_network, tmp_path):
        path = save_network(tiny_network, tmp_path / "net.json")
        loaded = load_network(path)
        assert loaded.num_nodes == tiny_network.num_nodes
        assert loaded.num_segments == tiny_network.num_segments
        for seg in tiny_network.segments():
            other = loaded.segment(seg.segment_id)
            assert other.start_node == seg.start_node
            assert other.end_node == seg.end_node
            assert other.twin_id == seg.twin_id
            assert other.level == seg.level
            assert other.length == pytest.approx(seg.length)

    def test_bad_version_rejected(self, tiny_network, tmp_path):
        path = save_network(tiny_network, tmp_path / "net.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_network(path)


class TestDatabasePersistence:
    def make_db(self):
        db = TrajectoryDatabase(num_taxis=3, num_days=2)
        db.add(MatchedTrajectory(0, 0, 0, [
            SegmentVisit(1, 100.0, 3.5), SegmentVisit(2, 200.0, 4.5),
        ]))
        db.add(MatchedTrajectory(4, 1, 1, [SegmentVisit(7, 50.0, 2.0)]))
        db.finalize()
        return db

    def test_roundtrip(self, tmp_path):
        db = self.make_db()
        path = save_database(db, tmp_path / "db.npz")
        loaded = load_database(path)
        assert loaded.num_taxis == 3 and loaded.num_days == 2
        assert len(loaded) == 2
        original = db.get(0)
        restored = loaded.get(0)
        assert restored.segments() == original.segments()
        assert [v.time_s for v in restored.visits] == [
            v.time_s for v in original.visits
        ]
        # Speed stats recomputed identically.
        hour = int(100.0 // 3600)
        assert loaded.speed_stats(1, hour).min_mps == pytest.approx(
            db.speed_stats(1, hour).min_mps
        )

    def test_empty_database(self, tmp_path):
        db = TrajectoryDatabase(num_taxis=1, num_days=1)
        path = save_database(db, tmp_path / "empty.npz")
        loaded = load_database(path)
        assert len(loaded) == 0

    def test_suffix_added(self, tmp_path):
        db = self.make_db()
        path = save_database(db, tmp_path / "db")
        assert path.suffix == ".npz"
        assert path.exists()


class TestDatasetPersistence:
    def test_roundtrip(self, test_dataset, tmp_path):
        directory = save_dataset(test_dataset, tmp_path / "ds")
        loaded = load_dataset(directory)
        assert loaded.config == test_dataset.config
        assert loaded.network.num_segments == test_dataset.network.num_segments
        assert len(loaded.database) == len(test_dataset.database)
        assert (
            loaded.database.stats().num_visits
            == test_dataset.database.stats().num_visits
        )
        # The re-segmentation maps survive.
        assert loaded.resegmentation.piece_map == (
            test_dataset.resegmentation.piece_map
        )

    def test_loaded_dataset_answers_queries(self, test_dataset, tmp_path):
        from repro.core.engine import ReachabilityEngine
        from repro.core.query import SQuery
        from repro.spatial.geometry import Point
        from repro.trajectory.model import day_time

        directory = save_dataset(test_dataset, tmp_path / "ds")
        loaded = load_dataset(directory)
        engine = ReachabilityEngine(loaded.network, loaded.database)
        fresh = ReachabilityEngine(
            test_dataset.network, test_dataset.database
        )
        query = SQuery(Point(0, 0), day_time(11), 600, 0.2)
        loaded_result = s_query(ReachabilityClient(engine), query)
        fresh_result = s_query(ReachabilityClient(fresh), query)
        assert loaded_result.segments == fresh_result.segments


class TestCLI:
    @pytest.fixture(scope="class")
    def dataset_dir(self, test_dataset, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli") / "ds"
        save_dataset(test_dataset, directory)
        return str(directory)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_time_parsing(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "x", "--time", "07:30"]
        )
        assert args.time == 7 * 3600 + 30 * 60

    def test_bad_time_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "x", "--time", "notatime"]
            )

    def test_describe(self, dataset_dir, capsys):
        assert main(["describe", "--dataset", dataset_dir]) == 0
        out = capsys.readouterr().out
        assert "Number of taxis" in out

    def test_query(self, dataset_dir, capsys):
        code = main([
            "query", "--dataset", dataset_dir,
            "--x", "0", "--y", "0", "--time", "11:00",
            "--duration", "10", "--prob", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Prob-reachable region" in out
        assert "running time" in out

    def test_query_geojson_export(self, dataset_dir, tmp_path, capsys):
        out_file = tmp_path / "region.geojson"
        code = main([
            "query", "--dataset", dataset_dir, "--no-map",
            "--geojson", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        parsed = json.loads(out_file.read_text())
        assert parsed["type"] == "FeatureCollection"

    def test_mquery(self, dataset_dir, capsys):
        code = main([
            "mquery", "--dataset", dataset_dir, "--no-map",
            "--location", "0,0", "--location", "800,600",
        ])
        assert code == 0
        assert "Prob-reachable region" in capsys.readouterr().out

    def test_rquery(self, dataset_dir, capsys):
        code = main([
            "rquery", "--dataset", dataset_dir, "--no-map",
            "--x", "0", "--y", "0",
        ])
        assert code == 0
        assert "Prob-reachable region" in capsys.readouterr().out

    def test_query_explain_prints_route(self, dataset_dir, capsys):
        code = main([
            "query", "--dataset", dataset_dir, "--no-map", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "route: s-query -> 'sqmb_tbs'" in out
        assert "rule paper-s" in out

    def test_batch_streams_progress_with_directions(self, dataset_dir, capsys):
        code = main([
            "batch", "--dataset", dataset_dir,
            "--s-queries", "2", "--m-queries", "1", "--r-queries", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        progress = [line for line in out.splitlines() if line.startswith("[")]
        # One streamed progress line per request, each naming a direction.
        assert len(progress) == 4
        assert all(" forward " in p or " reverse " in p for p in progress)
        assert sum(" reverse " in p for p in progress) == 1
        assert "[  4/4]" in progress[-1]
        assert "Batch report" in out and "Bounding regions" in out

    @pytest.mark.sharded
    def test_batch_sharded_explain_and_fault_row(self, dataset_dir, capsys):
        code = main([
            "batch", "--dataset", dataset_dir,
            "--shards", "2", "--workers", "2",
            "--deadline-ms", "5000", "--max-retries", "1", "--explain",
            "--s-queries", "2", "--m-queries", "1", "--r-queries", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend: sharded (2 shards, 2 worker processes" in out
        assert "deadline 5000 ms, max 1 retries" in out
        assert "route " in out  # the routing-decision histogram
        assert "Fault tolerance" in out
        assert "0 worker restarts / 0 retries / 0 degraded" in out
        assert "Shard 0" in out and "Shard 1" in out

    def test_batch_forced_algorithm_applies_per_kind(self, dataset_dir, capsys):
        """A forced algorithm covers the kinds that register it; the
        rest of the mixed workload stays auto-routed."""
        code = main([
            "batch", "--dataset", dataset_dir, "--algorithm", "sqmb_tbs",
            "--s-queries", "1", "--m-queries", "1", "--r-queries", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert " s/sqmb_tbs " in out
        assert " r/sqmb_tbs " in out
        assert " m/mqmb_tbs " in out  # auto: sqmb_tbs has no m executor

    def test_batch_unknown_algorithm_friendly_error(self, dataset_dir, capsys):
        code = main([
            "batch", "--dataset", dataset_dir, "--algorithm", "nope",
        ])
        assert code == 2
        assert "unknown algorithm 'nope'" in capsys.readouterr().err

    def test_bad_location_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mquery", "--dataset", "x", "--location", "oops"]
            )

    def test_missing_dataset_friendly_error(self, tmp_path, capsys):
        code = main([
            "query", "--dataset", str(tmp_path / "nowhere"), "--no-map",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no dataset at" in err
        assert "build-dataset" in err

    def test_build_dataset(self, tmp_path, capsys):
        code = main([
            "build-dataset", "--out", str(tmp_path / "mini"),
            "--grid", "4", "--taxis", "3", "--days", "2",
        ])
        assert code == 0
        assert (tmp_path / "mini" / "network.json").exists()
        assert (tmp_path / "mini" / "database.npz").exists()


@pytest.mark.durability
class TestCLIDurableStore:
    """`repro save` -> `repro open` / `repro batch --open` round trip."""

    @pytest.fixture(scope="class")
    def dataset_dir(self, test_dataset, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-store") / "ds"
        save_dataset(test_dataset, directory)
        return str(directory)

    @pytest.fixture(scope="class")
    def store_dir(self, dataset_dir, tmp_path_factory):
        store = tmp_path_factory.mktemp("cli-store") / "store"
        assert main(["save", "--dataset", dataset_dir,
                     "--store", str(store)]) == 0
        return str(store)

    def test_save_reports_store(self, store_dir, capsys):
        from pathlib import Path

        capsys.readouterr()  # drop the fixture's own save output
        assert (Path(store_dir) / "disk" / "superblock.json").exists()

    def test_open_serves_cold_query(self, store_dir, capsys):
        code = main([
            "open", "--store", store_dir, "--no-map",
            "--x", "0", "--y", "0", "--time", "11:00",
            "--duration", "10", "--prob", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "opened store" in out
        assert "Prob-reachable region" in out
        assert "cold pages faulted:" in out

    def test_open_matches_dataset_query(self, dataset_dir, store_dir, capsys):
        query_args = [
            "--no-map", "--x", "0", "--y", "0", "--time", "11:00",
            "--duration", "10", "--prob", "0.2",
        ]
        assert main(["query", "--dataset", dataset_dir, *query_args]) == 0
        from_dataset = capsys.readouterr().out
        assert main(["open", "--store", store_dir, *query_args]) == 0
        from_store = capsys.readouterr().out
        line = next(
            l for l in from_dataset.splitlines() if "Prob-reachable" in l
        )
        assert line in from_store

    def test_batch_open(self, store_dir, capsys):
        code = main([
            "batch", "--open", store_dir,
            "--s-queries", "2", "--m-queries", "1", "--r-queries", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch report" in out

    def test_batch_rejects_dataset_and_open(self, dataset_dir, store_dir, capsys):
        code = main([
            "batch", "--dataset", dataset_dir, "--open", store_dir,
        ])
        assert code == 2
        assert "--open" in capsys.readouterr().err

    def test_batch_needs_some_source(self, capsys):
        assert main(["batch", "--s-queries", "1"]) == 2
        assert "--dataset" in capsys.readouterr().err

    def test_open_missing_store_friendly_error(self, tmp_path, capsys):
        code = main(["open", "--store", str(tmp_path / "nope"), "--no-map"])
        assert code == 2
        assert "cannot open store" in capsys.readouterr().err

    def test_query_disk_file_needs_path(self, dataset_dir, capsys):
        code = main([
            "query", "--dataset", dataset_dir, "--no-map", "--disk", "file",
        ])
        assert code == 2
        assert "--disk-path" in capsys.readouterr().err
