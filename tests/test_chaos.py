"""Tests for the chaos subsystem: fault models, campaigns, the
phi-accrual detector and the resilience scorecard."""

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos.campaign import PRESETS, ChaosCampaign, campaign_config
from repro.chaos.detectors import PhiAccrualDetector
from repro.chaos.faults import ChaosInjector, FaultSpec
from repro.chaos.bench import score_campaign
from repro.chaos.scorecard import score_run
from repro.chaos import faults as F
from repro.cluster.network import Lan
from repro.cluster.node import NodeIsolated, make_nodes
from repro.jade.system import ManagedSystem
from repro.metrics.aggregates import scorecard_json
from repro.metrics.collector import MetricsCollector
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.runner.results import CompletedRun
from repro.simulation.resources import PsCpu
from tests.conftest import Job


# ----------------------------------------------------------------------
# CPU degradation (the fail-slow / gray hook)
# ----------------------------------------------------------------------
class TestDegradation:
    def test_ps_mid_service_degrade_stretches_completion(self, kernel):
        cpu = PsCpu(kernel)
        job = Job(kernel, 1.0)
        job.submit(cpu)
        # Half the demand is served by t=0.5; the rest at half speed
        # takes 1.0s more: completion at 1.5 instead of 1.0.
        kernel.schedule_at(0.5, cpu.set_degradation, 0.5)
        kernel.run()
        assert job.completed_at == pytest.approx(1.5)

    def test_ps_restore_mid_service(self, kernel):
        cpu = PsCpu(kernel)
        job = Job(kernel, 1.0)
        job.submit(cpu)
        kernel.schedule_at(0.5, cpu.set_degradation, 0.5)
        kernel.schedule_at(1.0, cpu.set_degradation, 1.0)
        kernel.run()
        # [0,0.5] serves 0.5, [0.5,1.0] serves 0.25, remaining 0.25 at
        # full speed: completion at 1.25.
        assert job.completed_at == pytest.approx(1.25)

    def test_ps_degrade_shares_correctly(self, kernel):
        cpu = PsCpu(kernel)
        cpu.set_degradation(0.5)
        a, b = Job(kernel, 1.0), Job(kernel, 1.0)
        a.submit(cpu)
        b.submit(cpu)
        kernel.run()
        # Two equal jobs at half speed: each effectively served at 0.25/s.
        assert a.completed_at == pytest.approx(4.0)
        assert b.completed_at == pytest.approx(4.0)

    def test_degradation_must_be_positive(self, kernel):
        cpu = PsCpu(kernel)
        with pytest.raises(ValueError):
            cpu.set_degradation(0.0)
        with pytest.raises(ValueError):
            cpu.set_degradation(-1.0)

    def test_node_degrade_and_restore(self, kernel):
        (node,) = make_nodes(kernel, 1)
        node.degrade(0.5)
        assert node.cpu.degradation == 0.5
        node.restore()
        assert node.cpu.degradation == 1.0


# ----------------------------------------------------------------------
# Network partitions and node isolation
# ----------------------------------------------------------------------
class TestIsolation:
    def test_isolated_node_fails_jobs_async(self, kernel):
        (node,) = make_nodes(kernel, 1)
        node.isolate()
        assert node.isolated
        errors = []
        node.run_job(1.0, then=lambda: None, fail=errors.append)
        kernel.run()
        assert isinstance(errors[0], NodeIsolated)

    def test_isolate_aborts_inflight_work(self, kernel):
        (node,) = make_nodes(kernel, 1)
        errors = []
        node.run_job(10.0, then=lambda: None, fail=errors.append)
        kernel.schedule(1.0, node.isolate)
        kernel.run()
        assert isinstance(errors[0], NodeIsolated)

    def test_heal_restores_service(self, kernel):
        (node,) = make_nodes(kernel, 1)
        node.isolate()
        node.heal()
        assert not node.isolated
        job = Job(kernel, 1.0)
        job.run_on(node)
        kernel.run()
        assert job.completed_at == pytest.approx(1.0)


class TestLanChaos:
    def test_extra_latency_applies_to_messages_and_transfers(self):
        lan = Lan(latency_s=0.001)
        base_msg = lan.message_delay(1.0)
        base_xfer = lan.transfer_time(1.0)
        lan.set_extra_latency(0.05)
        assert lan.message_delay(1.0) == pytest.approx(base_msg + 0.05)
        assert lan.transfer_time(1.0) == pytest.approx(base_xfer + 0.05)
        lan.set_extra_latency(0.0)
        assert lan.message_delay(1.0) == pytest.approx(base_msg)

    def test_extra_latency_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Lan().set_extra_latency(-0.1)

    def test_partition_bookkeeping(self, kernel):
        a, b, c = make_nodes(kernel, 3)
        lan = Lan()
        lan.partition([a], [b])
        assert not lan.reachable(a, b)
        assert not lan.reachable(b, a)
        assert lan.reachable(a, c)  # c is in neither group
        assert lan.partitioned
        lan.heal()
        assert lan.reachable(a, b)
        assert not lan.partitioned

    def test_partition_groups_must_be_disjoint(self, kernel):
        a, b = make_nodes(kernel, 2)
        with pytest.raises(ValueError):
            Lan().partition([a, b], [b])


# ----------------------------------------------------------------------
# ChaosInjector's Poisson crash stream
# ----------------------------------------------------------------------
class _CountingNode:
    """A node that counts crashes and stays up, so a stream never runs
    out of victims."""

    def __init__(self, name):
        self.name = name
        self.up = True
        self.isolated = False
        self.crashes = 0

    def crash(self):
        self.crashes += 1


def _poisson_injector(kernel, app_nodes, db_nodes=(), mtbf_s=5.0,
                      target="any", seed=3):
    """A :class:`ChaosInjector` running one Poisson stream over stub
    tiers whose replicas sit on the given nodes."""

    def tier(name, nodes):
        return SimpleNamespace(
            tier_name=name, replicas=[SimpleNamespace(node=n) for n in nodes]
        )

    system = SimpleNamespace(
        kernel=kernel,
        collector=MetricsCollector(),
        app_tier=tier("app", app_nodes),
        db_tier=tier("db", db_nodes),
    )
    campaign = ChaosCampaign("poisson", faults=[F.poisson(mtbf_s, target=target)])
    injector = ChaosInjector(system, campaign, np.random.default_rng(seed))
    injector.start()
    return injector


class TestPoissonStream:
    def test_stop_cancels_pending_arrival(self, kernel):
        nodes = make_nodes(kernel, 50)
        injector = _poisson_injector(kernel, nodes, mtbf_s=5.0)
        kernel.run(until=20.0)
        crashed = injector.faults_injected
        assert crashed > 0
        injector.stop()
        kernel.run(until=1000.0)
        assert injector.faults_injected == crashed
        assert sum(not n.up for n in nodes) == crashed

    def test_arrivals_crash_only_live_candidates(self, kernel):
        app = make_nodes(kernel, 4, prefix="app")
        db = make_nodes(kernel, 4, prefix="db")
        app[0].crash()
        app[1].isolate()
        injector = _poisson_injector(kernel, app, db, mtbf_s=2.0)
        kernel.run(until=500.0)
        crashed = [e["node"] for e in injector.events]
        # every live node falls exactly once; later arrivals find no victim
        assert sorted(crashed) == sorted(n.name for n in app[2:] + db)
        assert app[1].up and app[1].isolated

    def test_target_restricts_victims(self, kernel):
        app = make_nodes(kernel, 3, prefix="app")
        db = make_nodes(kernel, 3, prefix="db")
        injector = _poisson_injector(kernel, app, db, mtbf_s=2.0, target="db")
        kernel.run(until=500.0)
        assert all(n.up for n in app)
        assert not any(n.up for n in db)
        assert {e["tier"] for e in injector.events} == {"db"}

    def test_crash_count_tracks_mtbf(self, kernel):
        nodes = [_CountingNode(f"n{i}") for i in range(3)]
        horizon, mtbf = 10_000.0, 10.0
        injector = _poisson_injector(kernel, nodes, mtbf_s=mtbf)
        kernel.run(until=horizon)
        expected = horizon / mtbf  # 1000 arrivals; sd ~ 32
        assert abs(injector.faults_injected - expected) < 0.1 * expected
        assert sum(n.crashes for n in nodes) == injector.faults_injected

    def test_retains_only_pending_events(self, kernel):
        """A long stream keeps its one armed arrival for ``stop()``, not
        every arrival that has fired."""
        nodes = [_CountingNode(f"n{i}") for i in range(3)]
        injector = _poisson_injector(kernel, nodes, mtbf_s=10.0)
        kernel.run(until=10_000.0)
        assert injector.faults_injected > 900
        assert len(injector._scheduled) == 1
        assert injector._scheduled[0].fn is not None


# ----------------------------------------------------------------------
# Fault specs and campaigns (validation + picklability)
# ----------------------------------------------------------------------
class TestCampaignValues:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", target="cache")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", at_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec("slow", duration_s=-1.0)

    def test_degradation_severity_positive(self):
        with pytest.raises(ValueError):
            FaultSpec("gray", severity=0.0)

    def test_poisson_needs_mtbf(self):
        with pytest.raises(ValueError):
            FaultSpec("poisson")

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            ChaosCampaign("bad", detector="oracle")

    def test_faults_coerced_to_tuple(self):
        campaign = ChaosCampaign("c", faults=[F.crash(10.0)])
        assert isinstance(campaign.faults, tuple)

    def test_campaign_pickles(self):
        for factory in PRESETS.values():
            campaign = factory()
            clone = pickle.loads(pickle.dumps(campaign))
            assert clone == campaign

    def test_campaign_config_rides_the_cache_key(self):
        from repro.runner.cache import describe_config

        cfg_a = campaign_config(PRESETS["crash"](), seed=1)
        cfg_b = campaign_config(PRESETS["gray"](), seed=1)
        assert describe_config(cfg_a) != describe_config(cfg_b)


# ----------------------------------------------------------------------
# Phi-accrual detector (unit, against stub servers)
# ----------------------------------------------------------------------
class _StubCpu:
    def __init__(self):
        self.completed = 0
        self.active_jobs = 0


class _StubNode:
    def __init__(self):
        self.up = True
        self.cpu = _StubCpu()
        self.name = "stub-node"


class _StubServer:
    def __init__(self):
        self.name = "stub-server"
        self.running = True
        self.node = _StubNode()
        self.served = 0
        self.failures = 0
        self.pending = 0


def _watch(kernel, server, **kwargs):
    detector = PhiAccrualDetector(kernel, lambda: [server], **kwargs)
    suspicions = []
    detector.subscribe(lambda srv, phi, reason: suspicions.append((srv, phi, reason)))
    detector.on_start()
    return detector, suspicions


class TestPhiAccrualDetector:
    def test_stalled_server_is_suspected(self, kernel):
        server = _StubServer()
        detector, suspicions = _watch(kernel, server, threshold=4.0)

        def healthy():
            server.served += 1
            server.node.cpu.completed += 1

        for i in range(10):  # one completion per second until t=9.5
            kernel.schedule_at(i + 0.5, healthy)

        def stall():  # gray: work stuck on the node, nothing completes
            server.pending = 5
            server.node.cpu.active_jobs = 1

        kernel.schedule_at(10.0, stall)
        kernel.run(until=40.0)
        assert len(suspicions) == 1
        srv, phi, reason = suspicions[0]
        assert srv is server
        assert reason == "phi"
        assert phi >= 4.0

    def test_downstream_stall_is_not_suspected(self, kernel):
        # A healthy app server waiting on a broken database: requests
        # pile up, but its own CPU keeps completing slices.
        server = _StubServer()
        server.pending = 5
        server.node.cpu.active_jobs = 0
        _, suspicions = _watch(kernel, server, threshold=4.0)
        kernel.schedule_at(0.0, lambda: None)
        kernel.every(1.0, lambda: setattr(
            server.node.cpu, "completed", server.node.cpu.completed + 1
        ))
        kernel.run(until=60.0)
        assert suspicions == []

    def test_idle_server_is_not_suspected(self, kernel):
        server = _StubServer()  # pending == 0 throughout
        _, suspicions = _watch(kernel, server, threshold=4.0)
        kernel.schedule_at(100.0, lambda: None)  # keep the clock moving
        kernel.run(until=100.0)
        assert suspicions == []

    def test_failfast_catches_erroring_frozen_node(self, kernel):
        server = _StubServer()
        _, suspicions = _watch(kernel, server, failfast_ticks=3)

        def err():  # isolated node: errors advance, CPU frozen
            server.failures += 1
            server.pending = 2

        kernel.every(1.0, err)
        kernel.run(until=20.0)
        assert len(suspicions) == 1
        assert suspicions[0][2] == "fail-fast"

    def test_failfast_gated_by_local_cpu_progress(self, kernel):
        server = _StubServer()
        _, suspicions = _watch(kernel, server, failfast_ticks=3)

        def err_but_busy():  # relaying downstream errors, CPU alive
            server.failures += 1
            server.pending = 2
            server.node.cpu.completed += 1

        kernel.every(1.0, err_but_busy)
        kernel.run(until=20.0)
        assert suspicions == []

    def test_dead_server_left_to_heartbeat(self, kernel):
        server = _StubServer()
        server.pending = 5
        server.node.cpu.active_jobs = 1
        detector, suspicions = _watch(kernel, server, threshold=4.0)
        kernel.schedule_at(5.0, lambda: setattr(server.node, "up", False))
        kernel.run(until=60.0)
        assert suspicions == []
        assert detector.suspicions == 0

    def test_pickled_copy_keeps_suspicion(self, kernel):
        server = _StubServer()
        detector = PhiAccrualDetector(kernel, [server].copy, threshold=4.0)
        detector.on_start()
        server.pending = 5
        server.node.cpu.active_jobs = 1
        kernel.run(until=20.0)
        assert detector.suspicions == 1
        kernel2, detector2 = pickle.loads(pickle.dumps((kernel, detector)))
        (server2,) = detector2.servers_provider()
        assert detector2.phi(server2) == detector.phi(server) > 4.0
        kernel2.run(until=60.0)
        assert detector2.suspicions == 1

    def test_stop_halts_checks(self, kernel):
        server = _StubServer()
        detector, suspicions = _watch(kernel, server, threshold=4.0)
        assert detector.running
        detector.on_stop()
        assert not detector.running
        server.pending = 5
        server.node.cpu.active_jobs = 1
        kernel.schedule_at(100.0, lambda: None)
        kernel.run(until=100.0)
        assert suspicions == []


# ----------------------------------------------------------------------
# End-to-end campaigns (acceptance)
# ----------------------------------------------------------------------
def _run_campaign(campaign, seed=1, clients=60, duration_s=420.0):
    cfg = campaign_config(campaign, seed=seed, clients=clients,
                          duration_s=duration_s)
    system = ManagedSystem(cfg)
    system.run()
    return CompletedRun.from_system(system, 0.0)


class TestCampaignsEndToEnd:
    def test_crash_campaign_is_repaired(self):
        run = _run_campaign(PRESETS["crash"]())
        chaos = run.extensions["chaos"]
        assert chaos.faults_injected == 1
        assert chaos.repairs_started == 1
        card = score_run(run)
        assert card["repairs_completed"] == 1
        assert card["unrepaired"] == 0
        assert 0.0 < card["mttr_mean_s"] < 60.0
        assert 0.0 < card["availability"] <= 1.0

    def test_gray_failure_legacy_misses_phi_catches(self):
        gray = PRESETS["gray"]()
        legacy = _run_campaign(dataclasses.replace(gray, detector="legacy"))
        phi = _run_campaign(gray)
        # The legacy up-flag heartbeat never notices the crawling node.
        legacy_stats = legacy.extensions["chaos"]
        assert legacy_stats.repairs_started == 0
        assert legacy_stats.detections == []
        # The phi-accrual detector suspects it and triggers the repair.
        phi_stats = phi.extensions["chaos"]
        assert phi_stats.repairs_started >= 1
        assert phi_stats.detections[0]["tier"] == "database"
        assert phi_stats.detections[0]["reason"].startswith("detector:")
        # Recovering the replica restores goodput.
        assert (
            score_run(phi)["goodput_rps"] > score_run(legacy)["goodput_rps"]
        )

    def test_partition_campaign_detected_by_failfast(self):
        run = _run_campaign(PRESETS["partition"]())
        chaos = run.extensions["chaos"]
        assert chaos.repairs_started >= 1
        assert any(d["reason"] == "detector:fail-fast" for d in chaos.detections)

    def test_correlated_campaign_crashes_a_rack(self):
        run = _run_campaign(PRESETS["correlated"]())
        # both tiers share rack 1%3
        assert run.extensions["chaos"].faults_injected >= 2
        card = score_run(run)
        assert card["repairs_completed"] == card["disruptions"]

    def test_scorecard_identical_serial_parallel_cached(self, tmp_path):
        campaign = PRESETS["crash"]()
        seeds = (1, 2)

        def card(runner):
            return scorecard_json(score_campaign(campaign, seeds, runner)[0])

        serial = card(ExperimentRunner(parallel=False, cache=None))
        cache = ResultCache(tmp_path / "cache")
        parallel = card(ExperimentRunner(parallel=True, cache=cache))
        assert cache.misses == len(seeds)
        warm_cache = ResultCache(tmp_path / "cache")
        cached = card(ExperimentRunner(parallel=True, cache=warm_cache))
        assert warm_cache.hits == len(seeds)
        assert serial == parallel
        assert serial == cached

    def test_scorecard_aggregates_with_ci(self):
        campaign = PRESETS["crash"]()
        runner = ExperimentRunner(parallel=False, cache=None)
        card, _ = score_campaign(campaign, (1, 2), runner)
        assert card["seeds"] == [1, 2]
        agg = card["aggregate"]["mttr_mean_s"]
        assert agg["n"] == 2
        assert agg["mean"] > 0
        assert agg["ci95"] >= 0
        # Canonical JSON round-trips (NaN-free, stable key order).
        import json

        assert json.loads(scorecard_json(card))["campaign"] == "crash"

    def test_chaos_stats_survive_pickling(self):
        run = _run_campaign(PRESETS["crash"]())
        clone = pickle.loads(pickle.dumps(run))
        assert clone.extensions["chaos"] == run.extensions["chaos"]
        assert scorecard_json(score_run(clone)) == scorecard_json(score_run(run))
