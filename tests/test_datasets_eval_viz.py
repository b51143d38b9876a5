"""Tests for the dataset builder, evaluation harness, and visualisation."""

import json

import pytest

from benchmarks.client_protocol import s_query
from repro.core.query import SQuery
from repro.datasets.shenzhen_like import (
    TEST_CONFIG,
    ShenzhenLikeConfig,
    build_shenzhen_like,
    default_dataset,
)
from repro.eval.metrics import (
    region_area_km2,
    region_road_length_km,
    saving_percent,
)
from repro.eval.runner import run_duration_sweep, run_location_count_sweep
from repro.eval.tables import format_series, format_table
from repro.eval.workload import QueryWorkload
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time
from repro.viz.ascii_map import render_region
from repro.viz.geojson import region_to_geojson, write_geojson

CENTER = Point(0.0, 0.0)
T = day_time(11)


class TestDatasetBuilder:
    def test_test_config_shape(self, test_dataset):
        cfg = test_dataset.config
        assert cfg == TEST_CONFIG
        assert test_dataset.num_segments > 0
        assert len(test_dataset.database) == cfg.num_taxis * cfg.num_days

    def test_default_dataset_cached(self, test_dataset):
        assert default_dataset(TEST_CONFIG) is test_dataset

    def test_describe_rows(self, test_dataset):
        rows = dict(test_dataset.describe())
        assert "City size" in rows
        assert "Number of taxis" in rows
        assert f"{TEST_CONFIG.num_taxis:,} unique taxis" in rows["Number of taxis"]

    def test_deterministic_rebuild(self):
        tiny = TEST_CONFIG.scaled(num_taxis=3, num_days=2)
        a = build_shenzhen_like(tiny)
        b = build_shenzhen_like(tiny)
        assert a.database.stats().num_visits == b.database.stats().num_visits

    def test_scaled_override(self):
        cfg = ShenzhenLikeConfig().scaled(num_taxis=5)
        assert cfg.num_taxis == 5
        assert cfg.num_days == ShenzhenLikeConfig().num_days

    def test_network_matches_resegmentation(self, test_dataset):
        assert test_dataset.network is test_dataset.resegmentation.network
        test_dataset.network.check_invariants()


class TestMetrics:
    def test_road_length(self, client, test_dataset):
        result = s_query(client, SQuery(CENTER, T, 600, 0.2))
        km = region_road_length_km(result, test_dataset.network)
        assert km == pytest.approx(result.road_length_m(test_dataset.network) / 1000)

    def test_area(self, client, test_dataset):
        result = s_query(client, SQuery(CENTER, T, 900, 0.2))
        area = region_area_km2(result, test_dataset.network)
        assert area >= 0

    def test_saving_percent(self):
        assert saving_percent(50, 100) == pytest.approx(50.0)
        assert saving_percent(100, 100) == pytest.approx(0.0)
        assert saving_percent(10, 0) == 0.0


class TestRunner:
    def test_duration_sweep_structure(self, engine):
        points = run_duration_sweep(
            engine, CENTER, (300, 600), T, 0.2, delta_ts=(300,), include_es=True
        )
        # 2 durations x (1 sqmb curve + ES)
        assert len(points) == 4
        algorithms = {p.algorithm for p in points}
        assert algorithms == {"sqmb_tbs", "es"}
        for p in points:
            assert p.running_time_ms > 0
            assert p.road_length_km >= 0

    def test_location_sweep_structure(self, engine):
        locations = (CENTER, Point(1000.0, 500.0), Point(-800.0, 700.0))
        points = run_location_count_sweep(
            engine, locations, (1, 3), T, duration_s=600
        )
        assert len(points) == 4
        labels = {p.label for p in points}
        assert labels == {"m-query", "s-query"}


class TestTables:
    def test_format_table(self):
        text = format_table("Dataset", [("taxis", "25"), ("days", "10")])
        assert "Dataset" in text
        assert "taxis" in text and "25" in text

    def test_format_series(self, engine):
        points = run_duration_sweep(
            engine, CENTER, (300, 600), T, 0.2, delta_ts=(300,), include_es=True
        )
        text = format_series("Fig", points, metric="running_time_ms", x_name="L")
        assert "Fig" in text
        assert "ES" in text
        lines = text.splitlines()
        assert len(lines) == 2 + 2  # title + header + 2 x-values


class TestWorkload:
    def test_s_queries_deterministic(self, test_dataset):
        w1 = QueryWorkload(test_dataset.network, seed=5)
        w2 = QueryWorkload(test_dataset.network, seed=5)
        assert w1.s_queries(5)[0].location == w2.s_queries(5)[0].location

    def test_s_queries_within_city(self, test_dataset):
        workload = QueryWorkload(test_dataset.network)
        bounds = test_dataset.network.bounds()
        for query in workload.s_queries(20):
            assert bounds.contains_point(query.location)

    def test_m_queries_shape(self, test_dataset):
        workload = QueryWorkload(test_dataset.network)
        queries = workload.m_queries(3, locations_per_query=4)
        assert len(queries) == 3
        assert all(len(q.locations) == 4 for q in queries)

    def test_fixed_start_time(self, test_dataset):
        workload = QueryWorkload(test_dataset.network)
        for query in workload.s_queries(5, start_time_s=T):
            assert query.start_time_s == T


class TestViz:
    def test_geojson_structure(self, client, test_dataset):
        result = s_query(client, SQuery(CENTER, T, 900, 0.2))
        geo = region_to_geojson(result, test_dataset.network)
        assert geo["type"] == "FeatureCollection"
        kinds = {f["geometry"]["type"] for f in geo["features"]}
        assert "LineString" in kinds
        if len(result.segments) >= 3:
            assert "Polygon" in kinds
        for feature in geo["features"]:
            if feature["geometry"]["type"] == "LineString":
                lon, lat = feature["geometry"]["coordinates"][0]
                assert 113 < lon < 115 and 21 < lat < 24

    def test_geojson_probability_property(self, client, test_dataset):
        result = s_query(client, SQuery(CENTER, T, 600, 0.2), algorithm="es")
        geo = region_to_geojson(result, test_dataset.network, include_hull=False)
        probs = [
            f["properties"].get("probability") for f in geo["features"]
        ]
        assert any(p is not None for p in probs)

    def test_write_geojson(self, client, test_dataset, tmp_path):
        result = s_query(client, SQuery(CENTER, T, 600, 0.2))
        path = write_geojson(result, test_dataset.network, tmp_path / "r.geojson")
        parsed = json.loads(path.read_text())
        assert parsed["type"] == "FeatureCollection"

    def test_ascii_map(self, client, test_dataset):
        result = s_query(client, SQuery(CENTER, T, 900, 0.2))
        art = render_region(result, test_dataset.network, width=40, height=16)
        lines = art.splitlines()
        assert len(lines) == 17  # grid + legend
        assert all(len(line) == 40 for line in lines[:16])
        flat = "".join(lines[:16])
        assert "@" in flat  # start marker
        if result.segments:
            assert "#" in flat or "+" in flat
