"""Tests for result export (CSV / JSON)."""

import csv
import json

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.export import series_rows, to_json_dict, write_csv, write_json


@pytest.fixture
def collector():
    c = MetricsCollector()
    for t in range(100):
        c.record_latency(float(t), 0.05 + 0.001 * t)
    c.record_workload(0.0, 80)
    c.record_workload(50.0, 200)
    c.record_replicas("database", 0.0, 1)
    c.record_replicas("database", 40.0, 2)
    c.record_tier_cpu("database", 1.0, 0.5, 0.6)
    c.record_node_sample(1.0, 0.2, 0.3)
    c.record_reconfiguration(40.0, "[database] grow")
    c.record_failure(60.0)
    return c


class TestSeriesRows:
    def test_all_series_present(self, collector):
        names = {name for name, _, _ in series_rows(collector)}
        assert names == {
            "latency_s",
            "cpu[database]",
            "cpu_raw[database]",
            "replicas[database]",
            "clients",
            "node_cpu",
            "node_memory",
        }

    def test_step_series_export_change_points(self, collector):
        rows = [r for r in series_rows(collector) if r[0] == "replicas[database]"]
        assert [(t, v) for _, t, v in rows] == [(0.0, 1.0), (40.0, 2.0)]

    def test_bucketing_reduces_rows(self, collector):
        fine = sum(1 for r in series_rows(collector, bucket_s=1.0) if r[0] == "latency_s")
        coarse = sum(
            1 for r in series_rows(collector, bucket_s=50.0) if r[0] == "latency_s"
        )
        assert coarse < fine


class TestCsv:
    def test_roundtrip(self, collector, tmp_path):
        path = tmp_path / "out.csv"
        rows = write_csv(collector, str(path))
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == rows
        assert {"series", "t_s", "value"} == set(parsed[0])
        floats = [float(r["value"]) for r in parsed]
        assert all(isinstance(v, float) for v in floats)


class TestJson:
    def test_report_structure(self, collector):
        report = to_json_dict(collector, horizon_s=100.0)
        assert report["requests"]["completed"] == 100
        assert report["requests"]["failed"] == 1
        assert report["requests"]["error_rate"] == pytest.approx(1 / 101)
        assert report["throughput_rps"] == pytest.approx(1.0)
        assert report["replicas"]["database"] == [[0.0, 1.0], [40.0, 2.0]]
        assert report["reconfigurations"] == [[40.0, "[database] grow"]]

    def test_json_serializable(self, collector, tmp_path):
        path = tmp_path / "report.json"
        write_json(collector, str(path), horizon_s=100.0)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["latency_s"]["count"] == 100

    def test_seed_recorded_when_given(self, collector, tmp_path):
        assert "seed" not in to_json_dict(collector)
        assert to_json_dict(collector, seed=23)["seed"] == 23
        path = tmp_path / "report.json"
        write_json(collector, str(path), horizon_s=100.0, seed=23)
        with open(path) as fh:
            assert json.load(fh)["seed"] == 23
