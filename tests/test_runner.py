"""The parallel cached experiment runner."""

import json
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.jade.system import ExperimentConfig
from repro.runner import (
    CompletedRun,
    ExperimentRunner,
    ResultCache,
    code_fingerprint,
    describe_config,
    execute_config,
)
from repro.metrics.aggregates import mean_ci
from repro.runner.bench import check_against
from repro.runner.parallel import fanout_map, shutdown_pool
from repro.workload.profiles import ConstantProfile


def _crash_once(item):
    """Pool task ``(dir, i, crash_on)``: returns ``i * i`` and logs the
    run; the first attempt at ``crash_on`` kills its worker process after
    the other items have had time to finish."""
    directory, i, crash_on = item
    if i == crash_on:
        marker = os.path.join(directory, "crashed")
        if not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(0.5)
            os._exit(1)
    with open(os.path.join(directory, f"ran-{i}"), "a") as fh:
        fh.write("x")
    return i * i


def _crash_always(i):
    if i == 1:
        os._exit(1)
    return i


def tiny_config(seed=1, managed=True, clients=10, duration=60.0):
    return ExperimentConfig(
        profile=ConstantProfile(clients, duration),
        seed=seed,
        managed=managed,
        tail_s=5.0,
    )


# ----------------------------------------------------------------------
# Config description and keys
# ----------------------------------------------------------------------
class TestDescribeConfig:
    def test_stable_across_instances(self):
        assert describe_config(tiny_config()) == describe_config(tiny_config())

    def test_distinguishes_every_knob(self):
        base = describe_config(tiny_config())
        assert describe_config(tiny_config(seed=2)) != base
        assert describe_config(tiny_config(managed=False)) != base
        assert describe_config(tiny_config(clients=11)) != base
        assert describe_config(tiny_config(duration=61.0)) != base

    def test_includes_profile_type(self):
        assert "ConstantProfile" in describe_config(tiny_config())

    def test_rejects_callables(self):
        cfg = tiny_config()
        cfg.profile = lambda: None
        with pytest.raises(TypeError):
            describe_config(cfg)

    def test_key_folds_in_code_fingerprint(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = tiny_config()
        assert cache.key_for(cfg, "aaa") != cache.key_for(cfg, "bbb")
        assert cache.key_for(cfg, "aaa") == cache.key_for(cfg, "aaa")

    def test_fingerprint_tracks_source(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = code_fingerprint(tmp_path)
        assert before == code_fingerprint(tmp_path)  # memoized, stable

        import repro.runner.fingerprint as fp

        fp._cached.clear()
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_fingerprint(tmp_path) != before


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = tiny_config()
        key = cache.key_for(cfg)
        assert cache.load(key) is None
        run = execute_config(cfg)
        cache.store(key, run, config=cfg)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.summary() == run.summary()
        assert np.array_equal(
            loaded.collector.latencies.values, run.collector.latencies.values
        )
        assert cache.hits == 1 and cache.misses == 1

    def test_sidecar_is_greppable_json(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = tiny_config()
        key = cache.key_for(cfg)
        cache.store(key, execute_config(cfg), config=cfg)
        meta = json.loads((tmp_path / f"{key}.json").read_text())
        assert meta["key"] == key
        assert meta["summary"]["completed"] > 0
        assert meta["config"]["profile"]["__type__"] == "ConstantProfile"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key_for(tiny_config())
        cache.root.mkdir(parents=True, exist_ok=True)
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.load(key) is None

    @pytest.mark.parametrize(
        "blob",
        [
            # names a class that does not exist: AttributeError
            b"crepro.runner.cache\nNoSuchClass\n.",
            # garbage claiming a 1 TiB frame: MemoryError
            b"\x80\x04\x95" + (1 << 40).to_bytes(8, "little"),
            # a payload cut short: UnpicklingError
            pickle.dumps({"blob": list(range(100))})[:-7],
        ],
        ids=["missing-class", "garbage", "truncated"],
    )
    def test_corrupt_entry_is_quarantined(self, tmp_path, blob):
        """Any payload that fails to unpickle is a miss, never an
        exception; the entry moves to quarantine/ and is not read again,
        and the recomputed result stores and loads normally."""
        cache = ResultCache(root=tmp_path, max_bytes=0)
        key = "f" * 64
        cache.store(key, {"stale": True})
        (tmp_path / f"{key}.pkl").write_bytes(blob)
        assert cache.load(key) is None
        assert (cache.quarantined, cache.misses, cache.hits) == (1, 1, 0)
        assert not (tmp_path / f"{key}.pkl").exists()
        assert not (tmp_path / f"{key}.json").exists()
        quarantine = tmp_path / "quarantine"
        assert (quarantine / f"{key}.pkl").read_bytes() == blob
        assert (quarantine / f"{key}.json").exists()
        assert cache.load(key) is None  # now a plain miss
        assert (cache.quarantined, cache.misses) == (1, 2)
        assert cache.stats()["entries"] == 0
        cache.store(key, {"fresh": True})
        assert cache.load(key) == {"fresh": True}


# ----------------------------------------------------------------------
# Cache hygiene: stats, LRU pruning, clearing
# ----------------------------------------------------------------------
class TestCacheHygiene:
    def fill(self, cache, n=4, size=1000):
        """Store n entries with distinct, strictly increasing mtimes."""
        import os

        keys = []
        for i in range(n):
            key = f"{'0' * 60}{i:04d}"
            cache.store(key, {"blob": "x" * size, "i": i})
            payload = cache.root / f"{key}.pkl"
            # Deterministic LRU order without sleeping between stores.
            os.utime(payload, (1000.0 + i, 1000.0 + i))
            keys.append(key)
        return keys

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        self.fill(cache, n=3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 3000
        assert stats["dir"] == str(tmp_path)

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        keys = self.fill(cache, n=4)
        per_entry = cache.stats()["bytes"] // 4
        evicted = cache.prune(max_bytes=per_entry * 2)
        assert evicted == keys[:2]  # oldest first
        assert cache.load(keys[3]) is not None
        assert cache.load(keys[0]) is None

    def test_load_refreshes_recency(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        keys = self.fill(cache, n=3)
        assert cache.load(keys[0]) is not None  # touch the oldest
        per_entry = cache.stats()["bytes"] // 3
        evicted = cache.prune(max_bytes=per_entry)
        assert keys[0] not in evicted  # survived: recently used
        assert keys[1] in evicted

    def test_store_prunes_when_capped(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        self.fill(cache, n=2)
        per_entry = cache.stats()["bytes"] // 2
        capped = ResultCache(root=tmp_path, max_bytes=per_entry * 2)
        capped.store("f" * 64, {"blob": "y" * 1000})
        assert capped.stats()["bytes"] <= per_entry * 2 + 100

    def test_zero_cap_disables_pruning(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        self.fill(cache, n=4)
        assert cache.prune() == []
        assert cache.stats()["entries"] == 4

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_bytes=0)
        self.fill(cache, n=3)
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_max_bytes_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ResultCache(root=tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert ResultCache(root=tmp_path).max_bytes == 0


# ----------------------------------------------------------------------
# Runner: parallel == serial, cache short-circuiting
# ----------------------------------------------------------------------
class TestExperimentRunner:
    def test_parallel_matches_serial_exactly(self):
        configs = {"m": tiny_config(managed=True), "s": tiny_config(managed=False)}
        par = ExperimentRunner(cache=None, parallel=True).run_many(configs)
        ser = ExperimentRunner(cache=None, parallel=False).run_many(configs)
        for label in configs:
            assert par[label].summary() == ser[label].summary()
            assert np.array_equal(
                par[label].collector.latencies.values,
                ser[label].collector.latencies.values,
            )
            assert par[label].events_processed == ser[label].events_processed

    def test_cache_short_circuits_second_batch(self, tmp_path):
        configs = {"a": tiny_config(seed=1), "b": tiny_config(seed=2)}
        first = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out1 = first.run_many(configs)
        assert first.cache.misses == 2 and first.cache.hits == 0

        second = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out2 = second.run_many(configs)
        assert second.cache.hits == 2 and second.cache.misses == 0
        for label in configs:
            assert out1[label].summary() == out2[label].summary()

    def test_run_seeds_labels_by_seed(self):
        runner = ExperimentRunner(cache=None, parallel=False)
        out = runner.run_seeds(lambda s: tiny_config(seed=s), seeds=(1, 2))
        assert set(out) == {1, 2}
        assert out[1].config.seed == 1
        assert out[2].config.seed == 2

    def test_completed_run_exposes_benchmark_surface(self):
        run = execute_config(tiny_config())
        assert isinstance(run, CompletedRun)
        assert run.app_tier.grows_completed >= 0
        assert run.db_tier.shrinks_completed >= 0
        assert run.extensions == {}
        assert run.collector.completed_requests > 0
        assert run.config.seed == 1
        assert run.events_processed > 0
        assert run.summary()["completed"] == run.collector.completed_requests


# ----------------------------------------------------------------------
# Bench aggregation and the perf-smoke gate
# ----------------------------------------------------------------------
class TestBench:
    def test_stats_confidence_interval(self):
        out = mean_ci([10.0, 12.0, 14.0])
        assert out["mean"] == pytest.approx(12.0)
        assert out["n"] == 3
        assert out["ci95"] == pytest.approx(1.96 * 2.0 / np.sqrt(3))
        assert mean_ci([5.0])["ci95"] == 0.0

    def test_check_against_passes_generous_reference(self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(
            json.dumps(
                {
                    "micro": {
                        "kernel_10k_events": {"best_s": 100.0},
                        "ps_cpu_5k_jobs": {"best_s": 100.0},
                    }
                }
            )
        )
        ok, lines = check_against(str(ref), tolerance=0.25, rounds=1)
        assert ok
        assert len(lines) == 2

    def test_check_against_flags_regression(self, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(
            json.dumps(
                {
                    "micro": {
                        "kernel_10k_events": {"best_s": 1e-9},
                        "ps_cpu_5k_jobs": {"best_s": 1e-9},
                    }
                }
            )
        )
        ok, lines = check_against(str(ref), tolerance=0.25, rounds=1)
        assert not ok
        assert any("REGRESSION" in line for line in lines)


# ----------------------------------------------------------------------
# Fan-out over a pool that breaks
# ----------------------------------------------------------------------
class TestFanoutBrokenPool:
    def test_retries_only_unfinished_items(self, tmp_path, monkeypatch):
        """A worker dying mid-fan-out costs a rerun of the unfinished
        items only: every result arrives in order, and an item that had
        completed before the break ran exactly once."""
        monkeypatch.delenv("REPRO_RUNNER_SERIAL", raising=False)
        crash_on = 5
        items = [(str(tmp_path), i, crash_on) for i in range(6)]
        try:
            assert fanout_map(_crash_once, items, max_workers=2) == [
                i * i for i in range(6)
            ]
        finally:
            shutdown_pool()
        assert (tmp_path / "crashed").exists()
        for i in range(6):
            assert (tmp_path / f"ran-{i}").read_text() == "x"

    def test_second_break_propagates(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_SERIAL", raising=False)
        try:
            with pytest.raises(BrokenProcessPool):
                fanout_map(_crash_always, [0, 1, 2], max_workers=2)
        finally:
            shutdown_pool()
