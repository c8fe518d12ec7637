"""The policy plugin subsystem and the controller autotuner
(``repro.policy``).

The load-bearing guarantees:

* the default path is **byte-identical** to an explicit
  ``PolicyConfig("threshold")`` run (latency stream, summary,
  reconfiguration counts), and every CPU-loop policy's outputs on a short
  ramp match digests recorded before the dedicated reactor classes were
  folded into ``PolicyReactor``;
* a ``PolicyConfig`` naming an unregistered policy or an undeclared
  parameter fails where it is written;
* every plugin's decision table does what its docstring says;
* the ``AdaptiveThresholdPolicy`` can no longer widen ``min_threshold``
  below zero, however large ``widen_step`` is (the clamp regression);
* plugin runs are engine citizens: serial == pool == cache;
* every non-hold verdict is traced as a ``policy-decided`` sibling and
  ``repro trace`` renders it;
* the sweep's controller axis and the autotuner rank/config machinery.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.obs.tracer import load_jsonl
from repro.policy.api import (
    HOLD,
    POLICIES,
    PolicyConfig,
    PolicyDecision,
    PolicyInputs,
    make_policy,
)
from repro.policy.feedforward import ForecastFeedforwardPolicy
from repro.policy.queue_model import QueueModelPolicy
from repro.policy.threshold import (
    AdaptiveThresholdPolicy,
    LatencyBandPolicy,
    ThresholdPolicy,
)
from repro.policy.tune import (
    TuneObjective,
    knob_record,
    load_tuned_knobs,
    paper_default,
    run_tune,
    score_run,
    tune_cells,
    write_tuned_config,
)
from repro.runner.cache import ResultCache, describe_config
from repro.runner.parallel import ExperimentRunner
from repro.runner.sweep import SweepPoint, SweepSpec
from repro.workload.profiles import RampProfile
from tests.conftest import collector_digest

SCALE = 0.05


def ramp_config(seed: int = 1, scale: float = SCALE, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=True,
        **kwargs,
    )


def inputs(
    smoothed: float = 0.5,
    replicas: int = 2,
    t: float = 100.0,
    raw: float | None = None,
    max_replicas: int | None = None,
) -> PolicyInputs:
    return PolicyInputs(
        t=t,
        smoothed=smoothed,
        raw=smoothed if raw is None else raw,
        node_count=replicas,
        replicas=replicas,
        min_replicas=1,
        max_replicas=max_replicas,
        tier="app",
    )


# ----------------------------------------------------------------------
# Registry + PolicyConfig
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_plugins_registered(self):
        assert set(POLICIES) >= {
            "threshold",
            "adaptive-threshold",
            "target-utilization",
            "latency-band",
            "queue-model",
            "forecast",
        }

    def test_make_policy_applies_params(self):
        p = make_policy("threshold", max_threshold=0.9, min_threshold=0.2)
        assert p.max_threshold == 0.9 and p.min_threshold == 0.2

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("bogus")

    def test_policies_and_configs_pickle(self):
        for name in POLICIES:
            p = make_policy(name)
            clone = pickle.loads(pickle.dumps(p))
            assert clone == p
        pc = PolicyConfig.parse("queue-model:rho_cap=0.85")
        assert pickle.loads(pickle.dumps(pc)) == pc


class TestPolicyConfig:
    def test_parse_name_only(self):
        pc = PolicyConfig.parse("queue-model")
        assert pc.name == "queue-model" and pc.params == ()
        assert pc.label == "queue-model"

    def test_parse_coerces_param_types(self):
        pc = PolicyConfig.parse("forecast:lead_s=90:forecaster=seasonal")
        params = pc.as_dict()
        assert params["lead_s"] == 90 and isinstance(params["lead_s"], int)
        assert params["forecaster"] == "seasonal"

    def test_label_roundtrips_through_parse(self):
        pc = PolicyConfig.parse("threshold:max_threshold=0.7")
        assert PolicyConfig.parse(pc.label) == pc

    def test_params_are_order_insensitive(self):
        a = PolicyConfig.parse("forecast:lead_s=90:forecaster=trend")
        b = PolicyConfig.parse("forecast:forecaster=trend:lead_s=90")
        assert a == b and a.label == b.label

    def test_malformed_part_raises(self):
        with pytest.raises(ValueError):
            PolicyConfig.parse("threshold:max_threshold")
        with pytest.raises(ValueError):
            PolicyConfig.parse("")

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy 'no-such-policy'"):
            PolicyConfig.parse("no-such-policy")

    def test_unknown_parameter_rejected_at_construction(self):
        # a typo fails in the config, not as a TypeError inside a run
        with pytest.raises(ValueError, match="no parameter max_thresold"):
            SweepPoint(
                "managed", 1, 0.1, 1, controller="threshold:max_thresold=0.9"
            )

    def test_build_takes_only_declared_defaults(self):
        p = PolicyConfig("queue-model").build(
            max_threshold=0.9, service_demand_s=0.01
        )
        assert p.service_demand_s == 0.01

    def test_build_defaults_lose_to_overrides(self):
        pc = PolicyConfig.parse("threshold:max_threshold=0.7")
        p = pc.build(max_threshold=0.9, min_threshold=0.2)
        assert p.max_threshold == 0.7  # explicit override wins
        assert p.min_threshold == 0.2  # default fills the gap


class TestPolicyInputs:
    def test_digest_is_stable_and_short(self):
        a, b = inputs(0.5), inputs(0.5)
        assert a.digest() == b.digest()
        assert len(a.digest()) == 12
        assert all(c in "0123456789abcdef" for c in a.digest())

    def test_digest_distinguishes_fields(self):
        assert inputs(0.5).digest() != inputs(0.51).digest()
        assert inputs(0.5, replicas=2).digest() != inputs(0.5, replicas=3).digest()


# ----------------------------------------------------------------------
# Decision tables
# ----------------------------------------------------------------------
class TestThresholdPolicy:
    def test_decision_table(self):
        p = ThresholdPolicy(max_threshold=0.8, min_threshold=0.35)
        assert p.decide(inputs(0.81), None).action == "grow"
        assert p.decide(inputs(0.81), None).reason == "above-max"
        assert p.decide(inputs(0.34), None).action == "shrink"
        assert p.decide(inputs(0.34), None).reason == "below-min"
        # strict comparisons, exactly like the pre-refactor reactor
        assert p.decide(inputs(0.8), None).is_hold
        assert p.decide(inputs(0.35), None).is_hold

    def test_band_validation(self):
        with pytest.raises(ValueError, match="need 0 <= min < max <= 1"):
            ThresholdPolicy(max_threshold=0.3, min_threshold=0.5)


class TestAdaptiveThresholdPolicy:
    def test_oscillation_widens_band(self):
        p = AdaptiveThresholdPolicy(oscillation_window_s=100.0, widen_step=0.05)
        state = p.initial_state()
        p.on_actuated("grow", 10.0, state)
        p.on_actuated("shrink", 50.0, state)
        assert state.min_threshold == pytest.approx(0.30)
        assert state.adaptations == 1

    def test_large_widen_step_cannot_push_threshold_below_zero(self):
        # Regression: widen_step > min_threshold used to drive the live
        # threshold negative (every reading then reads as "above" it).
        p = AdaptiveThresholdPolicy(
            oscillation_window_s=100.0, widen_step=0.9, min_floor=0.10
        )
        state = p.initial_state()
        for t in (10.0, 20.0, 30.0, 40.0):
            p.on_actuated("grow", t, state)
            p.on_actuated("shrink", t + 5.0, state)
        assert state.min_threshold >= 0.0
        assert state.min_threshold == pytest.approx(0.10)

    def test_min_floor_clamped_into_valid_range(self):
        assert AdaptiveThresholdPolicy(min_floor=-0.5).min_floor == 0.0
        # a floor above the starting threshold would invert the band
        assert AdaptiveThresholdPolicy(
            min_threshold=0.35, min_floor=0.8
        ).min_floor == pytest.approx(0.35)

    def test_reactor_level_regression(self, kernel):
        # The satellite fix observed from the reactor API, where the
        # original bug surfaced.
        from repro.jade.control_loop import InhibitionLock
        from repro.jade.reactors import PolicyReactor

        class FakeTier:
            name = "tier"
            replica_count = 2

            def grow(self):
                return True

            def shrink(self):
                return True

        reactor = PolicyReactor(
            kernel,
            FakeTier(),
            InhibitionLock(kernel, 0.0),
            AdaptiveThresholdPolicy(oscillation_window_s=1e9, widen_step=5.0),
            warmup_samples=0,
        )
        for _ in range(6):
            reactor.policy.on_actuated("grow", kernel.now, reactor.policy_state)
            reactor.policy.on_actuated("shrink", kernel.now, reactor.policy_state)
        assert reactor.policy_state.min_threshold >= 0.0


class TestQueueModelPolicy:
    def test_rho_target_from_demand_and_slo(self):
        p = QueueModelPolicy(slo_latency_s=0.25, service_demand_s=0.05)
        assert p.rho_target == pytest.approx(1 - 0.05 / 0.25)

    def test_rho_target_clamped(self):
        # demand >= SLO → the formula goes nonpositive; the floor holds
        assert QueueModelPolicy(
            slo_latency_s=0.1, service_demand_s=0.2
        ).rho_target == pytest.approx(0.05)
        assert QueueModelPolicy(
            slo_latency_s=10.0, service_demand_s=0.001, rho_cap=0.9
        ).rho_target == pytest.approx(0.9)

    def test_grow_sizes_tier_directly(self):
        p = QueueModelPolicy(slo_latency_s=0.25, service_demand_s=0.05)
        # rho* = 0.8; U=1.0 on 2 replicas → k* = ceil(2.5) = 3
        d = p.decide(inputs(1.0, replicas=2), None)
        assert d.action == "grow" and d.target == 3

    def test_grow_target_respects_cap(self):
        p = QueueModelPolicy(slo_latency_s=0.25, service_demand_s=0.05)
        d = p.decide(inputs(1.0, replicas=2, max_replicas=2), None)
        assert d.is_hold  # clamped target == current size

    def test_shrink_needs_margin(self):
        p = QueueModelPolicy(
            slo_latency_s=0.25, service_demand_s=0.05, shrink_margin=0.10
        )
        # rho* = 0.8, so shrink only below 0.72; U=0.25 on 2 → k*=1
        assert p.decide(inputs(0.25, replicas=2), None).action == "shrink"
        # U=0.38 on 2 → k* = ceil(0.95) = 1 but 0.38*2/1=0.76 > 0.72 … the
        # hysteresis is on the *measured* utilization, not the target
        hold = p.decide(inputs(0.75, replicas=2), None)
        assert hold.is_hold

    def test_hold_inside_band(self):
        p = QueueModelPolicy(slo_latency_s=0.25, service_demand_s=0.05)
        assert p.decide(inputs(0.75, replicas=2), None).is_hold


class TestForecastFeedforwardPolicy:
    def rising(self, p, state, n=10, start=0.3, step=0.05):
        for i in range(n):
            d = p.decide(
                inputs(start + i * step, t=15.0 * i, replicas=2), state
            )
        return d

    def test_reactive_grow_still_fires(self):
        p = ForecastFeedforwardPolicy()
        state = p.initial_state()
        d = p.decide(inputs(0.9), state)
        assert d.action == "grow" and d.reason == "above-max"

    def test_predicted_crossing_grows_early(self):
        p = ForecastFeedforwardPolicy(forecaster="trend", lead_s=300.0)
        state = p.initial_state()
        d = self.rising(p, state)
        # smoothed is still below max (0.75 max seen) but the trend
        # crosses within the lead horizon
        assert d.action == "grow" and d.reason == "predicted-above-max"

    def test_shrink_needs_prediction_agreement(self):
        p = ForecastFeedforwardPolicy(forecaster="trend", lead_s=120.0)
        state = p.initial_state()
        # rising from below the min band: measured says shrink, the
        # forecast says the load is coming back — hold
        for i, u in enumerate((0.10, 0.15, 0.20, 0.25, 0.30)):
            d = p.decide(inputs(u, t=15.0 * i), state)
        assert d.is_hold
        # flat and low: both agree — shrink
        p2 = ForecastFeedforwardPolicy(forecaster="trend", lead_s=120.0)
        s2 = p2.initial_state()
        for i in range(6):
            d = p2.decide(inputs(0.1, t=15.0 * i), s2)
        assert d.action == "shrink"

    def test_actuation_resets_forecaster(self):
        p = ForecastFeedforwardPolicy(forecaster="trend", lead_s=300.0)
        state = p.initial_state()
        self.rising(p, state)
        before = state.forecaster
        p.on_actuated("grow", 200.0, state)
        assert state.forecaster is not before


class TestLatencyBandPolicy:
    def test_decision_table(self):
        p = LatencyBandPolicy(max_latency_s=0.5, min_latency_s=0.06)
        assert p.decide(inputs(0.6), None).action == "grow"
        assert p.decide(inputs(0.05), None).action == "shrink"
        assert p.decide(inputs(0.3), None).is_hold

    def test_band_validation(self):
        with pytest.raises(ValueError, match="latency"):
            LatencyBandPolicy(max_latency_s=0.05, min_latency_s=0.06)

    def test_hold_constant(self):
        assert HOLD.is_hold
        assert PolicyDecision("grow", "above-max").is_hold is False


# ----------------------------------------------------------------------
# Byte-identity: the default path vs. an explicit policy, and pinned digests
# ----------------------------------------------------------------------
class TestByteIdentity:
    def pair(self, legacy_cfg, policy_cfg):
        runner = ExperimentRunner(cache=None, parallel=False)
        runs = runner.run_many({"legacy": legacy_cfg, "policy": policy_cfg})
        return runs["legacy"], runs["policy"]

    def assert_identical(self, a, b):
        assert a.summary() == b.summary()
        assert np.array_equal(
            a.collector.latencies.values, b.collector.latencies.values
        )
        for tier in ("app_tier", "db_tier"):
            ta, tb = getattr(a, tier), getattr(b, tier)
            assert ta.grows_completed == tb.grows_completed
            assert ta.shrinks_completed == tb.shrinks_completed
        assert a.events_processed == b.events_processed

    def test_explicit_threshold_policy_matches_legacy_reactor(self):
        legacy = ramp_config(seed=1)
        pc = PolicyConfig.parse("threshold")
        policy = ramp_config(seed=1)
        policy.app_loop = replace(policy.app_loop, policy=pc)
        policy.db_loop = replace(policy.db_loop, policy=pc)
        self.assert_identical(*self.pair(legacy, policy))

    # Collector digests of the scale-0.1 ramp (seed 1), recorded before the
    # threshold, adaptive and planner reactor classes were folded into
    # PolicyReactor; the target-utilization digest was recorded through
    # the planner reactor with its target at 0.55.
    GOLDEN = {
        None: "2dd07b080a773669e5c3dd130c70adcea75bd4aa75e38de69bf7ea28430c7c60",
        "adaptive-threshold":
            "2dd07b080a773669e5c3dd130c70adcea75bd4aa75e38de69bf7ea28430c7c60",
        "target-utilization:target_utilization=0.55":
            "b03906f51b42486a190808cd05eb42fc12197ff4762f117abe723ad222a59d31",
        "queue-model":
            "e48e530a35e9ef7fdb885711fe89f3fe534ec466f2fedd67be31547f738f5109",
        "forecast":
            "6481db38b7ddb0dc89a63d4540b2e952b4e5b974a5968ab70965281a6d7eb3fb",
    }

    @pytest.mark.parametrize(
        "controller", list(GOLDEN), ids=lambda c: c or "default"
    )
    def test_cpu_loop_policy_outputs_pinned(self, controller):
        cfg = ramp_config(seed=1, scale=0.1)
        if controller is not None:
            pc = PolicyConfig.parse(controller)
            cfg.app_loop = replace(cfg.app_loop, policy=pc)
            cfg.db_loop = replace(cfg.db_loop, policy=pc)
        system = ManagedSystem(cfg)
        assert collector_digest(system.run()) == self.GOLDEN[controller]
        if controller == "adaptive-threshold":
            # the adaptive path really ran: the DB loop widened its band
            assert system.optimizer.loops["db"].reactor.policy_state.adaptations == 1


# ----------------------------------------------------------------------
# Engine citizenship: serial == pool == cache for plugin runs
# ----------------------------------------------------------------------
class TestPluginRunsAreEngineCitizens:
    def queue_model_config(self, seed: int = 1) -> ExperimentConfig:
        cfg = ramp_config(seed=seed)
        pc = PolicyConfig.parse("queue-model")
        cfg.app_loop = replace(cfg.app_loop, policy=pc)
        cfg.db_loop = replace(cfg.db_loop, policy=pc)
        return cfg

    def test_serial_pool_cache_identical(self, tmp_path):
        configs = {"qm": self.queue_model_config()}
        ser = ExperimentRunner(cache=None, parallel=False).run_many(configs)
        par = ExperimentRunner(cache=None, parallel=True).run_many(configs)
        cached_runner = ExperimentRunner(cache=ResultCache(root=tmp_path))
        cached_runner.run_many(configs)
        hot = ExperimentRunner(cache=ResultCache(root=tmp_path))
        cache = hot.run_many(configs)
        assert hot.cache.hits == 1
        for other in (par, cache):
            assert ser["qm"].summary() == other["qm"].summary()
            assert np.array_equal(
                ser["qm"].collector.latencies.values,
                other["qm"].collector.latencies.values,
            )

    def test_policy_config_distinguishes_cache_keys(self):
        from repro.runner.cache import describe_config

        assert describe_config(self.queue_model_config()) != describe_config(
            ramp_config(seed=1)
        )
        with_param = ramp_config(seed=1)
        pc = PolicyConfig.parse("queue-model:rho_cap=0.85")
        with_param.app_loop = replace(with_param.app_loop, policy=pc)
        with_param.db_loop = replace(with_param.db_loop, policy=pc)
        assert describe_config(with_param) != describe_config(
            self.queue_model_config()
        )


# ----------------------------------------------------------------------
# PolicyDecided tracing (+ repro trace rendering)
# ----------------------------------------------------------------------
class TestPolicyDecidedTracing:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("policy-trace") / "trace.jsonl"
        cfg = ramp_config(seed=3, trace_jsonl=str(path))
        ManagedSystem(cfg).run()
        return load_jsonl(str(path))

    def test_every_executed_decision_has_policy_sibling(self, traced):
        policy_events = [r for r in traced if r["kind"] == "policy-decided"]
        assert policy_events
        for record in policy_events:
            assert record["policy"] == "threshold"
            assert record["source"] in ("resize-app", "resize-db")
            assert record["action"] in ("grow", "shrink")
            assert len(record["inputs_digest"]) == 12
            # sibling, not causal parent: the verdict carries no cause
            assert "cause" not in record
        executed = [
            r
            for r in traced
            if r["kind"] == "decision"
            and r["executed"]
            and r["reason"] in ("above-max", "below-min")
        ]
        assert len(policy_events) >= len(executed)

    def test_timeline_renders_policy_events(self, traced, tmp_path):
        from repro.obs.timeline import render_timeline_file

        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            for r in traced:
                fh.write(json.dumps(r) + "\n")
        out = render_timeline_file(str(path))
        assert "policy[threshold]" in out
        assert "inputs#" in out


# ----------------------------------------------------------------------
# Sweep controller axis
# ----------------------------------------------------------------------
class TestSweepControllerAxis:
    def test_default_label_unchanged(self):
        point = SweepPoint("managed", 1, 0.1, 1)
        assert point.label == "managed-s1-x0.1-c1"

    def test_controller_suffix_only_when_non_default(self):
        point = SweepPoint("managed", 1, 0.1, 1, controller="queue-model")
        assert point.label == "managed-s1-x0.1-c1-pqueue-model"

    def test_config_installs_policy_on_both_loops(self):
        cfg = SweepPoint(
            "managed", 1, 0.1, 1, controller="forecast:lead_s=90"
        ).config()
        assert cfg.app_loop.policy == PolicyConfig.parse("forecast:lead_s=90")
        assert cfg.db_loop.policy == cfg.app_loop.policy

    def test_static_cells_reject_controllers(self):
        with pytest.raises(ValueError, match="managed loops"):
            SweepPoint("static", 1, 0.1, 1, controller="queue-model")

    def test_federated_cells_reject_controllers(self):
        with pytest.raises(ValueError, match="default controller"):
            SweepPoint(
                "managed", 1, 0.1, 1, regions=2, controller="queue-model"
            )

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            SweepPoint("managed", 1, 0.1, 1, controller="bogus")


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
class TestTunePoint:
    """A tune cell is a sweep cell: the loop knobs are SweepPoint fields
    and SweepSpec axes, defaulting to the paper's constants."""

    #: the paper's hand-set controller (the tuner's reference cell)
    PAPER_DEFAULT = paper_default(
        SweepPoint("managed", 1, 0.15, 1, app_max=0.7, inhibition_s=30.0)
    )

    @staticmethod
    def point(**knobs) -> SweepPoint:
        return SweepPoint("managed", 1, 0.1, 1, **knobs)

    def test_paper_default_is_the_committed_reference(self):
        assert self.PAPER_DEFAULT.app_max == 0.80
        assert self.PAPER_DEFAULT.db_max == 0.75
        assert self.PAPER_DEFAULT.inhibition_s == 60.0

    def test_validation(self):
        with pytest.raises(ValueError, match="app band"):
            self.point(app_max=0.3, app_min=0.5)
        with pytest.raises(ValueError, match="db band"):
            self.point(db_max=0.3, db_min=0.5)
        with pytest.raises(ValueError):
            self.point(inhibition_s=-1.0)

    def test_loop_configs_carry_the_point(self):
        point = self.point(
            app_max=0.7, db_min=0.45, window_scale=0.5, inhibition_s=30.0
        )
        cfg = point.config()
        app, db = cfg.app_loop, cfg.db_loop
        assert app.max_threshold == 0.7
        assert db.min_threshold == 0.45
        assert app.window_s == pytest.approx(30.0)   # 60 × 0.5
        assert db.window_s == pytest.approx(45.0)    # 90 × 0.5
        assert cfg.inhibition_s == 30.0

    def test_grid_filters_inverted_bands(self):
        spec = SweepSpec(
            seeds=(1,), policies=("managed",), app_max=(0.4, 0.8),
            app_min=(0.5,),
        )
        assert all(p.app_min < p.app_max for p in spec.grid())
        assert len(spec.grid()) == 1

    def test_random_subsample_is_deterministic(self):
        spec = SweepSpec(
            seeds=(1,), policies=("managed",), app_max=(0.6, 0.7, 0.8),
            db_max=(0.65, 0.75),
        )
        assert len(tune_cells(spec, samples=3)) == 3
        assert [c[0].label for c in tune_cells(spec, samples=3)] == [
            c[0].label for c in tune_cells(spec, samples=3)
        ]


class TestTuner:
    @pytest.fixture(scope="class")
    def report(self):
        # db grow threshold at 0.99 = the tier never scales up: a known-
        # bad cell the tuner must rank last.
        spec = SweepSpec(
            seeds=(1,), scales=(0.1,), policies=("managed",),
            db_max=(0.75, 0.99),
        )
        return run_tune(
            spec, runner=ExperimentRunner(cache=None, parallel=False)
        )

    def test_known_bad_cell_ranks_last(self, report):
        assert len(report["cells"]) == 2
        assert report["cells"][-1]["point"]["db_max"] == 0.99
        assert report["best"]["point"]["db_max"] == 0.75
        assert (
            report["cells"][0]["score"]["mean"]
            < report["cells"][-1]["score"]["mean"]
        )

    def test_score_decomposition_is_the_weighted_sum(self, report):
        obj = TuneObjective()
        for cell in report["cells"]:
            expected = (
                obj.slo_weight * cell["slo_violation_s"]["mean"]
                + obj.node_hour_weight * cell["node_hours"]["mean"]
                + obj.reconfig_weight * cell["reconfigs"]["mean"]
            )
            assert cell["score"]["mean"] == pytest.approx(expected)

    def test_tuned_config_roundtrip(self, report, tmp_path):
        path = write_tuned_config(report, tmp_path / "tuned.json")
        point = SweepPoint("managed", 1, 0.1, 1, **load_tuned_knobs(path))
        assert knob_record(point) == report["best"]["point"]
        # the artifact records provenance
        record = json.loads(path.read_text())
        assert record["objective"]["slo_latency_s"] == 0.25
        assert record["spec"]["scales"] == [0.1]

    def test_score_run_metrics_are_finite(self, report):
        runner = ExperimentRunner(cache=None, parallel=False)
        run = runner.run(SweepPoint("managed", 1, SCALE, 1).config())
        scores = score_run(run, TuneObjective())
        assert all(math.isfinite(v) for v in scores.values())
        assert scores["node_hours"] > 0


class TestPolicySmokeGate:
    """``repro bench --only policy --smoke``: the tuner smoke's sane cell
    and the section's default seed-1 arm are one config, simulated once."""

    def test_sane_cell_is_the_default_arm(self):
        from repro.policy import bench

        sane = next(
            p
            for p in bench.smoke_spec().grid()
            if p.app_max == 0.80 and p.db_max == 0.75
        )
        assert describe_config(sane.config()) == describe_config(
            bench.arms((1,))["default"][0].config()
        )

    def test_smoke_gate_simulates_the_shared_run_once(self, monkeypatch):
        import repro.runner.parallel as parallel
        from repro.policy import bench

        executed = []
        execute = parallel.execute_config

        def counting(config):
            executed.append(describe_config(config))
            return execute(config)

        monkeypatch.setattr(parallel, "execute_config", counting)
        section = bench.run_section(seeds=(1,), parallel=False, smoke=True)
        bench.check_section(section)
        configs = len(section["tune_smoke"]["cells"]) + len(section["arms"])
        assert len(executed) == configs - 1 == len(set(executed))
        assert "cache" not in section["tune_smoke"]
