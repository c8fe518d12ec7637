"""The ``repro sweep`` grid fan-out (repro.runner.sweep + CLI)."""

import csv
import json

import pytest

from repro.cli import main
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.runner.sweep import (
    SweepPoint,
    SweepSpec,
    run_sweep,
    write_sweep_csv,
    write_sweep_json,
)

SMALL = dict(
    seeds=(1, 2), scales=(0.05,), policies=("static", "managed"), cohorts=(1,)
)


class TestSweepSpec:
    def test_grid_is_deterministic_cross_product(self):
        spec = SweepSpec(**SMALL)
        grid = spec.grid()
        assert len(grid) == 4
        assert grid == spec.grid()  # same order every time
        assert [p.label for p in grid] == [
            "static-s1-x0.05-c1",
            "static-s2-x0.05-c1",
            "managed-s1-x0.05-c1",
            "managed-s2-x0.05-c1",
        ]

    def test_point_validates_inputs(self):
        with pytest.raises(ValueError, match="unknown policy"):
            SweepPoint("bogus", 1, 0.1, 1)
        with pytest.raises(ValueError):
            SweepPoint("static", 1, 0.0, 1)
        with pytest.raises(ValueError):
            SweepPoint("static", 1, 0.1, 0)

    def test_point_config_maps_policy(self):
        static = SweepPoint("static", 1, 0.1, 1).config()
        managed = SweepPoint("managed", 1, 0.1, 1).config()
        proactive = SweepPoint("proactive", 1, 0.1, 1).config()
        assert not static.managed and not static.proactive
        assert managed.managed and not managed.proactive
        assert proactive.managed and proactive.proactive

    def test_point_config_scales_cohort(self):
        cfg = SweepPoint("static", 1, 0.1, 4, peak=500).config()
        assert cfg.cohort == 4
        assert cfg.hardware_scale == 4.0
        assert cfg.profile.base == 320
        assert cfg.profile.peak_clients == 2000


class TestRunSweep:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("sweep-cache")
        runner = ExperimentRunner(cache=ResultCache(cache_dir))
        spec = SweepSpec(**SMALL)
        cold = run_sweep(spec, runner)
        warm = run_sweep(spec, runner)
        return cold, warm

    def test_one_row_per_cell_in_grid_order(self, result):
        cold, _ = result
        assert [r["label"] for r in cold.rows] == [
            p.label for p in SweepSpec(**SMALL).grid()
        ]

    def test_rows_carry_summary_fields(self, result):
        cold, _ = result
        row = cold.rows[0]
        for field in ("completed", "throughput_rps", "latency_p95_ms",
                      "app_replicas_max", "wall_time_s"):
            assert field in row
        assert row["completed"] > 0

    def test_warm_pass_resolves_from_cache(self, result):
        cold, warm = result
        assert cold.cache == {**cold.cache, "hits": 0, "misses": 4}
        assert warm.cache["hits"] == 4 and warm.cache["misses"] == 0
        assert warm.rows == cold.rows

    def test_csv_and_json_round_trip(self, result, tmp_path):
        cold, _ = result
        csv_path = write_sweep_csv(cold.rows, tmp_path / "sweep.csv")
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(cold.rows)
        assert rows[0]["label"] == cold.rows[0]["label"]
        assert float(rows[0]["throughput_rps"]) == pytest.approx(
            cold.rows[0]["throughput_rps"]
        )

        json_path = write_sweep_json(cold, tmp_path / "sweep.json")
        record = json.loads(json_path.read_text())
        assert record["runs"] == 4
        assert record["spec"]["cells"] == 4
        assert record["rows"][0]["label"] == cold.rows[0]["label"]


class TestSweepCli:
    def test_cli_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--seeds", "1", "--scales", "0.05",
             "--policies", "static,managed", "--cohorts", "1",
             "--csv", str(csv_path), "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "static-s1-x0.05-c1" in out

        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == [
            "static-s1-x0.05-c1", "managed-s1-x0.05-c1"
        ]
        record = json.loads(json_path.read_text())
        assert record["runs"] == 2
        assert record["cache"]["misses"] == 2

        # A second invocation resolves entirely from the cache.
        assert main(
            ["sweep", "--seeds", "1", "--scales", "0.05",
             "--policies", "static,managed", "--cohorts", "1",
             "--json", str(json_path)]
        ) == 0
        record = json.loads(json_path.read_text())
        assert record["cache"]["hits"] == 2
        assert record["cache"]["misses"] == 0


def test_committed_bench_records_the_bench_grid():
    """BENCH_engine.json's ``sweep`` section was recorded from the grid
    that section times today, every axis included."""
    from pathlib import Path

    from repro.runner.bench import SWEEP_BENCH_SPEC

    report = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_engine.json").read_text()
    )
    assert report["sweep"]["spec"] == SWEEP_BENCH_SPEC.to_record()
