"""Checks of the benchmark itself, at a tiny horizon: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.trace import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

SCALE = 0.05
SPEC = harness.load_json(harness.BENCHMARK)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def report():
    return harness.measure(list(WORKLOADS), seed=1, repeats=1, scale=SCALE, log=lambda _msg: None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_ignores_hash_seed(name, monkeypatch):
    digests = []
    for hash_seed in ("0", "4242"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        digests.append(harness.spawn(name, 2, "run", SCALE)["digest"])
    assert digests[0] == digests[1]


def test_runs_agree_and_succeed(report):
    assert report["correct"], {n: e["errors"] for n, e in report["workloads"].items()}
    for entry in report["workloads"].values():
        assert len(entry["digests"]) == 1  # untraced (parallel) == traced (serial)
        assert entry["attempted"] > 0


def test_printed_metrics_match_benchmark_json(report):
    for name, entry in report["workloads"].items():
        single = {**report, "workloads": {name: entry}}
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            line = harness.result_line(single, trace)
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
            assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_layer_shares_cover_traced_wall(report):
    for entry in report["workloads"].values():
        total = sum(entry["trace"][f"{layer}.share"]["value"] for layer, _ in LAYERS)
        assert 0.95 <= total <= 1.0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names) and all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(bounds) <= set(harness.E2E_UNITS) - set(harness.EXACT)


def test_reference_covers_seeds_1_to_3():
    digests = harness.load_json(harness.REFERENCE)["digests"]
    for name in WORKLOADS:
        assert {"1", "2", "3"} <= set(digests[name])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK, tmp_path)
    shutil.copytree(
        harness.ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ramp-fluid", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


TIGHT = {"median": 1.0, "min": 0.98, "max": 1.02}


@pytest.mark.parametrize(
    "a, b, word",
    [
        (TIGHT, {"median": 1.05, "min": 1.04, "max": 1.06}, "within-bound"),
        (TIGHT, {"median": 1.30, "min": 1.25, "max": 1.35}, "worse"),
        (TIGHT, {"median": 0.70, "min": 0.65, "max": 0.75}, "better"),
        # ranges share 0.25 of A's median: a 1.3x median is not resolved
        ({"median": 1.0, "min": 0.85, "max": 1.20},
         {"median": 1.30, "min": 0.95, "max": 1.60}, "unresolved"),
    ],
)
def test_compare_verdicts(a, b, word):
    assert harness.verdict(a, b, 0.10)[1] == word


def test_compare_renders_every_metric(tmp_path, report):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(report))
    rows = [row.split() for row in harness.compare(str(path), str(path)).splitlines()[1:]]
    assert len(rows) == len(WORKLOADS) * len(harness.E2E_UNITS)
    # a report never differs from itself; a noisy one is still unresolved
    assert all(row[-1] in ("within-bound", "unresolved") for row in rows)
    assert all(row[-1] == "within-bound" for row in rows if row[1] in harness.EXACT)
