"""Tests for the deploy subsystem: versioned configurations, bounce
strategies, canary analysis with SLO-gated rollback, scorecard
determinism — plus regressions for the hardening sweep (per-node MTTR
pairing, availability NaN, export collisions, RollingRebind edges)."""

import dataclasses
import pickle
from types import SimpleNamespace

import pytest

from repro.deploy.scenario import (
    PRESETS,
    STRATEGIES,
    DeployScenario,
    deploy_config,
    with_strategy,
)
from repro.deploy.bench import score_scenario
from repro.deploy.scorecard import score_run
from repro.deploy.versions import (
    ServerVersion,
    apply_version,
    clear_version,
    version_label,
)
from repro.deploy.canary import CanaryController
from repro.jade.rolling import RollingRebind
from repro.jade.system import ManagedSystem
from repro.metrics.aggregates import scorecard_json
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.runner.results import CompletedRun
from repro.workload.profiles import PiecewiseProfile


# ----------------------------------------------------------------------
# Versioned server configurations
# ----------------------------------------------------------------------
class TestServerVersion:
    def test_is_a_pure_value(self):
        v = ServerVersion("v2", demand_factor=4.0, error_rate=0.3)
        assert pickle.loads(pickle.dumps(v)) == v

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerVersion("")
        with pytest.raises(ValueError):
            ServerVersion("v2", demand_factor=0.0)
        with pytest.raises(ValueError):
            ServerVersion("v2", error_rate=1.0)

    def test_version_label_of_baseline_is_none(self):
        assert version_label(None) is None
        assert version_label(ServerVersion("v3")) == "v3"

    def test_error_rate_requires_rng(self):
        record = _fake_record()
        with pytest.raises(ValueError, match="no rng"):
            apply_version(record, ServerVersion("bad", error_rate=0.5))

    def test_apply_and_clear_roundtrip(self):
        record = _fake_record()
        rng = SimpleNamespace(random=lambda: 0.5)
        apply_version(
            record, ServerVersion("bad", demand_factor=2.0, error_rate=0.5),
            rng=rng,
        )
        server = record.component.content.server
        assert record.node.factor == 0.5
        assert server.version_label == "bad"
        assert server.fault_rate == 0.5
        assert server.fault_rng() == 0.5
        clear_version(record)
        assert record.version is None
        assert record.node.restored
        assert server.version_label is None
        assert server.fault_rate == 0.0
        assert server.fault_rng is None


def _fake_record():
    node = SimpleNamespace(factor=None, restored=False)
    node.degrade = lambda f: setattr(node, "factor", f)
    node.restore = lambda: setattr(node, "restored", True)
    server = SimpleNamespace(
        version_label=None, fault_rate=0.0, fault_rng=None
    )
    return SimpleNamespace(
        node=node,
        component=SimpleNamespace(content=SimpleNamespace(server=server)),
        version=None,
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class TestScenario:
    def test_validation(self):
        v = ServerVersion("v2")
        with pytest.raises(ValueError):
            DeployScenario("x", v, strategy="yolo")
        with pytest.raises(ValueError):
            DeployScenario("x", v, fleet=1)
        with pytest.raises(ValueError):
            DeployScenario("x", v, canary_replicas=3)  # >= fleet
        with pytest.raises(ValueError):
            DeployScenario("x", v, start_at_s=0.0)
        with pytest.raises(TypeError):
            DeployScenario("x", "v2")

    def test_presets_build_and_pickle(self):
        for name, factory in PRESETS.items():
            scenario = factory()
            assert scenario.name == name
            assert scenario.strategy in STRATEGIES
            assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_with_strategy(self):
        sc = with_strategy(PRESETS["clean-bounce"](), "brutal")
        assert sc.strategy == "brutal"
        assert sc.name == "clean-bounce"

    def test_flash_crowd_wires_a_spike(self):
        cfg = deploy_config(PRESETS["flash-crowd"](), clients=100)
        assert isinstance(cfg.profile, PiecewiseProfile)
        assert max(c for _t, c in cfg.profile._pts) == 200

    def test_crash_mid_bounce_wires_chaos_and_recovery(self):
        cfg = deploy_config(PRESETS["crash-mid-bounce"]())
        assert cfg.chaos is not None
        assert cfg.recovery
        assert cfg.chaos.faults[0].target == "db"

    def test_config_is_cacheable(self, tmp_path):
        from repro.runner.cache import describe_config

        cfg = deploy_config(PRESETS["bad-push"](), seed=3)
        a = describe_config(cfg)
        b = describe_config(deploy_config(PRESETS["bad-push"](), seed=3))
        assert a == b
        assert a != describe_config(deploy_config(PRESETS["clean-push"](), seed=3))


# ----------------------------------------------------------------------
# Bounce strategies (live systems, shortened timeline)
# ----------------------------------------------------------------------
def _run_live(scenario, clients=60, duration_s=130.0, start_at_s=40.0):
    scenario = dataclasses.replace(scenario, start_at_s=start_at_s)
    cfg = deploy_config(scenario, seed=1, clients=clients, duration_s=duration_s)
    system = ManagedSystem(cfg)
    system.run()
    return system


def _capacity_between(manager, t0, t1):
    serving = [s for t, s, _n in manager.capacity if t0 <= t <= t1]
    return serving


class TestBounceStrategies:
    def test_crossover_never_dips_below_fleet(self):
        system = _run_live(PRESETS["clean-bounce"]())
        manager = system.deploy
        assert manager.verdict == "promoted"
        dips = _capacity_between(
            manager, manager.started_t, manager.completed_t
        )
        assert dips and min(dips) >= manager.scenario.fleet
        assert all(
            version_label(r.version) == "v2"
            for r in system.app_tier.replicas
        )

    def test_upthendown_only_grows(self):
        system = _run_live(
            with_strategy(PRESETS["clean-bounce"](), "upthendown")
        )
        manager = system.deploy
        assert manager.verdict == "promoted"
        dips = _capacity_between(
            manager, manager.started_t, manager.completed_t
        )
        assert dips and min(dips) >= manager.scenario.fleet

    def test_downthenup_dips_by_exactly_one(self):
        system = _run_live(
            with_strategy(PRESETS["clean-bounce"](), "downthenup")
        )
        manager = system.deploy
        assert manager.verdict == "promoted"
        dips = _capacity_between(
            manager, manager.started_t, manager.completed_t
        )
        assert min(dips) == manager.scenario.fleet - 1

    def test_brutal_blacks_out(self):
        system = _run_live(
            with_strategy(PRESETS["clean-bounce"](), "brutal")
        )
        manager = system.deploy
        assert manager.verdict == "promoted"
        dips = _capacity_between(
            manager, manager.started_t, manager.completed_t
        )
        assert min(dips) == 0
        # The blackout fails requests fast rather than queueing them.
        assert system.collector.failed_requests > 0
        assert all(
            version_label(r.version) == "v2"
            for r in system.app_tier.replicas
        )

    def test_quarantine_is_lifted_after_the_bounce(self):
        system = _run_live(PRESETS["clean-bounce"]())
        assert system.app_tier.maintenance == set()


# ----------------------------------------------------------------------
# Canary analysis and rollback
# ----------------------------------------------------------------------
class TestCanary:
    def test_clean_push_promotes(self):
        system = _run_live(PRESETS["clean-push"](), duration_s=180.0)
        manager = system.deploy
        assert manager.verdict == "promoted"
        assert manager.verdict_reason == "slo-ok"
        kinds = [e["kind"] for e in manager.events]
        assert kinds == ["deploy-started", "canary-verdict", "deploy-completed"]
        assert all(
            version_label(r.version) == "v2"
            for r in system.app_tier.replicas
        )

    def test_bad_push_rolls_back(self):
        system = _run_live(PRESETS["bad-push"](), duration_s=180.0)
        manager = system.deploy
        assert manager.verdict == "rolled-back"
        assert manager.verdict_reason == "error-delta"
        kinds = [e["kind"] for e in manager.events]
        assert kinds == [
            "deploy-started",
            "canary-verdict",
            "rollback-triggered",
            "deploy-completed",
        ]
        m = manager.canary_metrics
        assert m["canary_error_rate"] > m["stable_error_rate"] + 0.05
        # Rolled back: every replica is on the stable baseline again.
        for record in system.app_tier.replicas:
            assert record.version is None
            server = record.component.content.server
            assert server.fault_rate == 0.0
            assert server.version_label is None

    def test_rollback_never_touches_the_stable_fleet(self):
        system = _run_live(PRESETS["bad-push"](), duration_s=180.0)
        manager = system.deploy
        # Only the canary cohort was ever bounced: one out, one back.
        dips = _capacity_between(
            manager, manager.started_t, manager.completed_t
        )
        assert min(dips) >= manager.scenario.fleet - manager.scenario.canary_replicas

    def test_no_canary_traffic_fails_safe(self, kernel):
        scenario = dataclasses.replace(PRESETS["clean-push"](), window_s=5.0)
        tier = SimpleNamespace(replicas=[])
        controller = CanaryController(kernel, tier, scenario)
        result = {}
        controller.measure(result.update)
        kernel.run()
        assert kernel.now == 5.0
        assert result["promoted"] is False
        assert result["reason"] == "no-canary-traffic"
        assert controller.verdict == result

    def test_stop_mid_window_restores_every_observer(self):
        scenario = dataclasses.replace(PRESETS["clean-push"](), start_at_s=40.0)
        cfg = deploy_config(scenario, seed=1, clients=60, duration_s=130.0)
        system = ManagedSystem(cfg)
        system.start_all()
        # Canary bounce from t=40 (4 s restart), warm-up 15 s: the
        # window is open from t=61 to t=106.
        system.advance(80.0)
        servers = [r.component.content.server for r in system.app_tier.replicas]
        assert len(servers) == scenario.fleet
        assert all(s.request_observer is not None for s in servers)
        system.deploy.stop()
        assert all(s.request_observer is None for s in servers)
        # The window's end no longer rules.
        system.advance(120.0)
        assert system.deploy.canary.verdict is None
        assert system.deploy.verdict is None
        assert all(s.request_observer is None for s in servers)

    def test_deploy_events_are_traced(self):
        from repro.obs.events import EVENT_KINDS

        for kind in ("deploy-started", "canary-verdict", "rollback-triggered"):
            assert kind in EVENT_KINDS


# ----------------------------------------------------------------------
# Scorecard + determinism
# ----------------------------------------------------------------------
class TestScorecard:
    def test_score_run_requires_a_deploy(self):
        run = SimpleNamespace(extensions={})
        with pytest.raises(ValueError):
            score_run(run)

    def test_scorecard_identical_serial_parallel_cached(self, tmp_path):
        scenario = dataclasses.replace(PRESETS["bad-push"](), start_at_s=60.0)
        seeds = (1, 2)

        def card(runner):
            return scorecard_json(
                score_scenario(
                    scenario, seeds, runner, clients=60, duration_s=330.0
                )[0]
            )

        serial = card(ExperimentRunner(parallel=False, cache=None))
        cache = ResultCache(tmp_path / "cache")
        parallel = card(ExperimentRunner(parallel=True, cache=cache))
        assert cache.misses == len(seeds)
        warm_cache = ResultCache(tmp_path / "cache")
        cached = card(ExperimentRunner(parallel=True, cache=warm_cache))
        assert warm_cache.hits == len(seeds)
        assert serial == parallel
        assert serial == cached

    def test_deploy_stats_survive_the_run(self):
        scenario = dataclasses.replace(PRESETS["bad-push"](), start_at_s=40.0)
        cfg = deploy_config(scenario, seed=1, clients=60, duration_s=300.0)
        system = ManagedSystem(cfg)
        system.run()
        run = CompletedRun.from_system(system, 0.0)
        assert run.extensions["deploy"].verdict == "rolled-back"
        card = score_run(run)
        assert card["rollback_latency_s"] == card["deploy_duration_s"]
        assert abs(card["goodput_ratio"] - 1.0) <= 0.10
        assert card["blackout_s"] == 0.0


# ----------------------------------------------------------------------
# Hardening-sweep regressions
# ----------------------------------------------------------------------
class TestChaosScorecardPairing:
    """Concurrent faults on different nodes must pair with *their own*
    repairs, and repairs must pair FIFO within a tier."""

    def _collector(self, lines):
        return SimpleNamespace(reconfigurations=lines)

    def test_repairs_pair_per_node(self):
        from repro.chaos.scorecard import _match, _repairs_by_node

        col = self._collector([
            (10.0, "[database] repair: db-1 failed on n1"),
            (12.0, "[database] repair: db-2 failed on n2"),
            (20.0, "[database] grow: db-3 active on n9"),
            (31.0, "[database] grow: db-4 active on n8"),
        ])
        repairs = _repairs_by_node(col)["database"]
        # FIFO within the tier: first start takes the first completion.
        assert repairs == [(10.0, "n1", 20.0), (12.0, "n2", 31.0)]
        used: set[int] = set()
        # The fault on n2 must match its own repair, not n1's earlier one.
        assert _match(12.0, "n2", repairs, used) == 31.0
        assert _match(10.0, "n1", repairs, used) == 20.0
        assert _match(10.0, "n3", repairs, used) is None

    def test_availability_is_nan_when_nothing_attempted(self):
        from repro.chaos.scorecard import score_run as chaos_score_run
        from repro.metrics.collector import MetricsCollector

        run = SimpleNamespace(
            extensions={
                "chaos": SimpleNamespace(
                    events=[], detections=[], faults_injected=0
                )
            },
            collector=MetricsCollector(),
            config=SimpleNamespace(
                seed=1, profile=SimpleNamespace(duration_s=10.0)
            ),
        )
        card = chaos_score_run(run)
        assert card["availability"] != card["availability"]  # NaN


class TestExportCollision:
    def test_extra_must_not_overwrite_core_keys(self):
        from repro.metrics.collector import MetricsCollector
        from repro.metrics.export import to_json_dict

        collector = MetricsCollector()
        report = to_json_dict(collector, 10.0)
        existing = sorted(report)[0]
        with pytest.raises(ValueError, match="overwrite"):
            to_json_dict(collector, 10.0, extra={existing: "clobber"})

    def test_disjoint_extra_merges(self):
        from repro.metrics.collector import MetricsCollector
        from repro.metrics.export import to_json_dict

        report = to_json_dict(
            MetricsCollector(), 10.0, extra={"recovery": {"mttr": 1.0}}
        )
        assert report["recovery"] == {"mttr": 1.0}


class TestRollingRebindEdges:
    def _build_web(self, kernel, lan, directory, n_apaches=3):
        from repro.cluster.node import make_nodes
        from repro.wrappers.apache import make_apache_component
        from repro.wrappers.tomcat import make_tomcat_component

        nodes = make_nodes(kernel, n_apaches + 2, prefix="w")
        kw = dict(kernel=kernel, directory=directory, lan=lan)
        tomcat_old = make_tomcat_component("t-old", node=nodes[-2], **kw)
        tomcat_new = make_tomcat_component("t-new", node=nodes[-1], **kw)
        apaches = []
        for i in range(n_apaches):
            apache = make_apache_component(f"a{i}", node=nodes[i], **kw)
            apache.bind("ajp", tomcat_old.get_interface("ajp"))
            apache.start()
            apaches.append(apache)
        return apaches, tomcat_old, tomcat_new

    def test_stopped_frontend_is_rebound_but_never_started(
        self, kernel, lan, directory
    ):
        apaches, _old, new = self._build_web(kernel, lan, directory)
        apaches[1].stop()  # deliberately down (e.g. quarantined)
        op = RollingRebind(
            kernel, apaches, "ajp", [new.get_interface("ajp")]
        ).start()
        kernel.run()
        assert op.done.fired
        assert op.restarted == 2
        assert not apaches[1].lifecycle_controller.is_started()
        bound = apaches[1].binding_controller.bound_servers("ajp")
        assert [s.component.name for s in bound] == ["t-new"]
        for apache in (apaches[0], apaches[2]):
            assert apache.lifecycle_controller.is_started()

    def test_abort_mid_restart_restores_the_frontend(
        self, kernel, lan, directory
    ):
        apaches, _old, new = self._build_web(kernel, lan, directory)
        op = RollingRebind(
            kernel, apaches, "ajp", [new.get_interface("ajp")]
        ).start()
        # Apache startup is 1.5 s: at t=0.5 the first frontend is down,
        # mid restart-wait.  Abort there.
        kernel.run(until=0.5)
        assert not apaches[0].lifecycle_controller.is_started()
        op.stop()
        # Stopping must leave it started and bound.
        assert apaches[0].lifecycle_controller.is_started()
        assert apaches[0].binding_controller.bound_instances("ajp")
        # The untouched frontends were never stopped.
        assert apaches[1].lifecycle_controller.is_started()
        assert apaches[2].lifecycle_controller.is_started()
        # The armed restart fires as a no-op: the pass never resumes.
        kernel.run()
        assert op.restarted == 0
        assert not op.done.fired

    def test_run_hook_applies_while_stopped(self, kernel, lan, directory):
        apaches, _old, new = self._build_web(kernel, lan, directory, n_apaches=1)
        states = []
        RollingRebind(
            kernel,
            apaches,
            "ajp",
            [new.get_interface("ajp")],
            on_stopped=lambda c: states.append(
                c.lifecycle_controller.is_started()
            ),
        ).start()
        kernel.run()
        assert states == [False]
        assert apaches[0].lifecycle_controller.is_started()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestDeployCli:
    def test_deploy_command_reports_rollback(self, capsys):
        from repro.cli import main

        rc = main([
            "deploy", "--scenario", "bad-push", "--seeds", "1",
            "--clients", "60", "--duration", "300",
            "--serial", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rolled-back" in out
        assert "rollback latency" in out

    def test_empty_seeds_rejected(self, capsys):
        from repro.cli import main

        for command in ("chaos", "deploy", "market"):
            assert main([command, "--seeds", ","]) == 2
