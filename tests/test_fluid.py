"""The hybrid fluid/discrete workload engine.

Covers the accuracy-gate machinery, the hybrid handoff at the user
threshold, RNG-stream independence (fluid draws nothing from the seeded
streams), serial==pool==cache byte-identity for fluid configs, the exactness of
the incremental tick (capacity fixed-point exit, step memo), and the
large-cohort numeric-stability fix in the Gamma demand draws.
"""

import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jade.system import ExperimentConfig
from repro.metrics.collector import MetricsCollector
from repro.runner import ExperimentRunner, ResultCache
from repro.simulation.resources import ThrashingCurve, constant_capacity
from repro.workload.calibration import DEFAULT_CALIBRATION
from repro.workload.fluid import _CAP_ITERS, _RHO_MAX, FluidEngine
from repro.workload.fluid_bench import TOLERANCES, run_accuracy_gate
from repro.workload.profiles import RampProfile
from repro.workload.rubis import RubisModel


def fluid_ramp_config(seed=1, scale=0.05, fluid=True, threshold=0, **kw):
    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=True,
        fluid=fluid,
        fluid_threshold=threshold,
        **kw,
    )


# ----------------------------------------------------------------------
# Satellite: Gamma-additive demand draws at very large K
# ----------------------------------------------------------------------
class TestVaryLargeCohorts:
    def model(self, seed=42):
        from repro.simulation import SimKernel

        return RubisModel(SimKernel(), rng=np.random.default_rng(seed))

    def test_small_cohorts_bit_identical_to_plain_gamma(self):
        m = self.model()
        ref = np.random.default_rng(42)
        shape = m.cal.demand_gamma_shape
        for weight in (1, 10, 100, 9999):
            assert m._vary(0.01, weight=weight) == float(
                ref.gamma(shape * weight, 0.01 / shape)
            )

    def test_gaussian_limit_engages_at_documented_k(self):
        m = self.model()
        shape = m.cal.demand_gamma_shape
        switch = int(math.ceil(m.GAUSSIAN_LIMIT_SHAPE / shape))
        # below the switch: exact Gamma (one gamma variate consumed)
        ref = np.random.default_rng(42)
        assert m._vary(0.01, weight=switch - 1) == float(
            ref.gamma(shape * (switch - 1), 0.01 / shape)
        )
        # at the switch: one standard-normal variate consumed instead
        m2 = self.model()
        ref2 = np.random.default_rng(42)
        total = 0.01 * switch
        k = shape * switch
        expected = total + (total / math.sqrt(k)) * ref2.standard_normal()
        assert m2._vary(0.01, weight=switch) == float(max(expected, 0.0))

    def test_gaussian_limit_mean_and_spread(self):
        m = self.model(seed=7)
        weight, mean = 100_000, 0.01
        total = mean * weight
        draws = np.array([m._vary(mean, weight=weight) for _ in range(500)])
        assert abs(draws.mean() - total) / total < 0.001
        # relative sd of a Gamma(k) sum is 1/sqrt(k)
        k = m.cal.demand_gamma_shape * weight
        assert draws.std() / total == pytest.approx(1 / math.sqrt(k), rel=0.2)
        assert (draws > 0).all()

    def test_overflowing_aggregate_raises_instead_of_inf(self):
        m = self.model()
        with pytest.raises(ValueError, match="demand draw overflow"):
            m._vary(1e300, weight=10**20)


# ----------------------------------------------------------------------
# Accuracy-gate machinery (synthetic runs; the full-scale gate is below)
# ----------------------------------------------------------------------
def synthetic_run(latency=0.1, completed=1000, cpu=0.5, db_changes=()):
    col = MetricsCollector()
    for t in range(0, 600, 10):
        col.record_latency(float(t), latency, weight=completed // 60)
        col.record_tier_cpu("application", float(t), cpu, cpu)
        col.record_tier_cpu("database", float(t), cpu, cpu)
    col.record_replicas("application", 0.0, 1)
    col.record_replicas("database", 0.0, 1)
    for t, n in db_changes:
        col.record_replicas("database", t, n)
    config = SimpleNamespace(profile=SimpleNamespace(duration_s=600.0))
    return SimpleNamespace(collector=col, config=config)


class TestAccuracyGateMachinery:
    def test_identical_runs_pass(self):
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0, 2)]),
        )
        assert gate["passed"] and all(gate["checks"].values())
        assert gate["change_time_skew_s"] == 0.0
        assert gate["latency_rel_diff"]["max"] == 0.0

    def test_diverged_replica_sequence_fails(self):
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0, 2), (200.0, 3)]),
        )
        assert not gate["replica_sequences_identical"]
        assert not gate["passed"]

    def test_change_time_skew_beyond_window_fails(self):
        skew = TOLERANCES["change_time_skew_s"] + 1.0
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0 + skew, 2)]),
        )
        assert gate["replica_sequences_identical"]
        assert not gate["checks"]["change_time_skew_s"]

    def test_latency_drift_beyond_tolerance_fails(self):
        factor = 1.0 + TOLERANCES["latency_rel_max"] + 0.05
        gate = run_accuracy_gate(
            synthetic_run(latency=0.1), synthetic_run(latency=0.1 * factor)
        )
        assert not gate["checks"]["latency_rel_max"]

    def test_cpu_drift_beyond_tolerance_fails(self):
        drift = TOLERANCES["tier_cpu_mean_abs"] + 0.01
        gate = run_accuracy_gate(
            synthetic_run(cpu=0.5), synthetic_run(cpu=0.5 + drift)
        )
        assert not gate["checks"]["tier_cpu_mean_abs"]


# ----------------------------------------------------------------------
# Hybrid handoff at the threshold
# ----------------------------------------------------------------------
class TestHybridHandoff:
    def run_hybrid(self, threshold=300, scale=0.05, seed=1):
        from repro.jade.system import ManagedSystem

        system = ManagedSystem(fluid_ramp_config(seed, scale, threshold=threshold))
        system.run()
        return system

    def test_crosses_both_ways_and_counts(self):
        system = self.run_hybrid()
        stats = system.emulator.distill()
        # ramp passes 300 users on the way up and back down
        assert stats.handoffs_to_fluid >= 1
        assert stats.handoffs_to_discrete >= 1
        assert stats.peak_fluid_population >= 300
        assert stats.ticks > 0 and stats.completions > 0

    def test_no_lost_or_duplicated_demand_across_switch(self):
        system = self.run_hybrid()
        profile = system.config.profile
        # the recorded workload staircase must follow the profile exactly:
        # every target the profile emits appears once, regardless of
        # which engine was serving it
        changes = system.collector.workload.changes
        for t, clients in changes[1:]:  # [0] is the series' (0, 0) sentinel
            assert clients == profile.clients_at(t), (t, clients)
        peak = max(v for _, v in system.collector.workload.changes)
        assert peak == profile.peak_clients
        # both engines completed work (latency samples before the first
        # switch and while fluid was active)
        col = system.collector
        assert col.completed_requests > 0
        assert col.failed_requests == 0

    def test_discrete_only_below_threshold(self):
        # threshold above the peak: the fluid engine must never engage
        system = self.run_hybrid(threshold=10_000)
        stats = system.emulator.distill()
        assert stats.handoffs_to_fluid == 0
        assert stats.ticks == 0
        assert system.collector.completed_requests > 0

    def test_fluid_stats_surface_on_completed_run(self):
        from repro.runner.results import CompletedRun
        from repro.runner.parallel import execute_config

        run = execute_config(fluid_ramp_config(threshold=300))
        assert isinstance(run, CompletedRun)
        fluid = run.extensions["fluid"]
        assert fluid.handoffs_to_fluid >= 1
        assert fluid.threshold == 300
        # discrete configs distill no workload stats
        discrete = execute_config(fluid_ramp_config(fluid=False))
        assert "fluid" not in discrete.extensions


# ----------------------------------------------------------------------
# RNG-stream independence
# ----------------------------------------------------------------------
class TestRngIndependence:
    def test_market_price_tape_unperturbed(self):
        from repro.market.scenario import PRESETS, market_config

        base = market_config(
            PRESETS["spot-heavy"](), seed=3, peak=200, scale=0.05
        )
        runner = ExperimentRunner(cache=None, parallel=False)
        runs = runner.run_many(
            {"discrete": base, "fluid": replace(base, fluid=True)}
        )
        d = runs["discrete"].extensions.get("market")
        f = runs["fluid"].extensions.get("market")
        assert d is not None and f is not None
        assert d.price_history == f.price_history

    def test_chaos_fault_schedule_unperturbed(self):
        from repro.chaos import PRESETS, campaign_config

        base = campaign_config(
            PRESETS["crash"](), seed=3, clients=40, duration_s=240.0
        )
        runner = ExperimentRunner(cache=None, parallel=False)
        runs = runner.run_many(
            {"discrete": base, "fluid": replace(base, fluid=True)}
        )
        d = runs["discrete"].extensions.get("chaos")
        f = runs["fluid"].extensions.get("chaos")
        assert d is not None and f is not None
        assert d.faults_injected == f.faults_injected > 0
        assert [
            (e["t"], e["fault"], e["node"]) for e in d.events
        ] == [(e["t"], e["fault"], e["node"]) for e in f.events]


# ----------------------------------------------------------------------
# serial == pool == cache byte-identity for fluid configs
# ----------------------------------------------------------------------
class TestFluidByteIdentity:
    def test_parallel_matches_serial_exactly(self):
        configs = {
            "fluid": fluid_ramp_config(),
            "hybrid": fluid_ramp_config(threshold=300),
        }
        par = ExperimentRunner(cache=None, parallel=True).run_many(configs)
        ser = ExperimentRunner(cache=None, parallel=False).run_many(configs)
        for label in configs:
            assert par[label].summary() == ser[label].summary()
            assert np.array_equal(
                par[label].collector.latencies.values,
                ser[label].collector.latencies.values,
            )
            assert par[label].events_processed == ser[label].events_processed

    def test_cache_roundtrip_is_exact(self, tmp_path):
        config = {"fluid": fluid_ramp_config(seed=2)}
        first = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out1 = first.run_many(config)
        assert first.cache.misses == 1 and first.cache.hits == 0

        second = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out2 = second.run_many(config)
        assert second.cache.hits == 1 and second.cache.misses == 0
        assert out1["fluid"].summary() == out2["fluid"].summary()
        assert np.array_equal(
            out1["fluid"].collector.latencies.values,
            out2["fluid"].collector.latencies.values,
        )
        assert "fluid" in out2["fluid"].extensions

    def test_fluid_knobs_distinguish_cache_keys(self):
        from repro.runner import describe_config

        base = describe_config(fluid_ramp_config(fluid=False))
        assert describe_config(fluid_ramp_config()) != base
        assert describe_config(fluid_ramp_config(threshold=5)) != describe_config(
            fluid_ramp_config()
        )


# ----------------------------------------------------------------------
# Exact incremental tick: capacity fixed-point exit and the step memo
# ----------------------------------------------------------------------
def always_five_rounds(tier, X, d_even, d_per, conc_cap):
    """The capacity fixed point without the early exit (reference)."""
    raw, caps = tier.raw, tier.caps
    se = list(raw)
    rho = tier.rho
    conc = tier.conc
    for _ in range(_CAP_ITERS + 1):
        total = 0.0
        for s in se:
            total += s
        even = X * d_even / total
        for i, s in enumerate(se):
            r = even + X * d_per / s if d_per else even
            if r > _RHO_MAX:
                r = _RHO_MAX
            rho[i] = r
            c = r / (1.0 - r)
            conc[i] = c if c < conc_cap else conc_cap
        for i, (s, cap) in enumerate(zip(raw, caps)):
            se[i] = 0.5 * (se[i] + s * cap(conc[i]))
    tier.se = se


class ReferenceTier:
    """The tier solve and sojourns as separate passes (reference for
    :meth:`_TierFlow.evaluate`): the damped fixed point with its exit,
    then the even and barrier sojourns from the solved state."""

    def __init__(self, nodes):
        self.raw = [n.cpu.speed * n.cpu.degradation for n in nodes]
        self.caps = [n.cpu.capacity_model for n in nodes]
        self.se = list(self.raw)
        self.rho = [0.0] * len(nodes)
        self.conc = [0.0] * len(nodes)

    def solve(self, X, d_even, d_per, conc_cap):
        raw, caps = self.raw, self.caps
        se = list(raw)
        rho = self.rho
        conc = self.conc
        for _ in range(_CAP_ITERS + 1):
            total = 0.0
            for s in se:
                total += s
            even = X * d_even / total
            for i, s in enumerate(se):
                r = even + X * d_per / s if d_per else even
                if r > _RHO_MAX:
                    r = _RHO_MAX
                rho[i] = r
                c = r / (1.0 - r)
                conc[i] = c if c < conc_cap else conc_cap
            fixed = True
            for i, (s, cap) in enumerate(zip(raw, caps)):
                v = 0.5 * (se[i] + s * cap(conc[i]))
                if v != se[i]:
                    fixed = False
                se[i] = v
            if fixed:
                break
        self.se = se

    def sojourn_even(self, d_even):
        total = 0.0
        for s in self.se:
            total += s
        service = 0.0
        queue = 0.0
        for s, r in zip(self.se, self.rho):
            share = s / total
            service += share * (d_even / s)
            queue += share * (r / (1.0 - r))
        return service + (d_even / total) * queue

    def sojourn_barrier(self, d_per):
        worst = 0.0
        for s, r in zip(self.se, self.rho):
            t = (d_per / s) / (1.0 - r)
            if t > worst:
                worst = t
        return worst


def reference_response(engine, X, app, db, conc_cap):
    """``FluidEngine._response`` recomputing every step invariant per call
    (reference)."""
    cal = engine.cal
    R = engine._network_delay()
    for node, dreq in engine.balancers:
        s = node.cpu.speed * node.cpu.degradation
        if not node.up or node.isolated or s <= 0.0:
            continue
        rho = min(X * dreq / s, _RHO_MAX)
        R += (dreq / s) / (1.0 - rho)
    d_app = cal.app_demand_total()
    app.solve(X, d_app, 0.0, conc_cap)
    R += app.sojourn_even(d_app)
    wf = cal.write_fraction
    db.solve(
        X, (1.0 - wf) * cal.db_read_demand_s, wf * cal.db_write_demand_s, conc_cap
    )
    R += (1.0 - wf) * db.sojourn_even(cal.db_read_demand_s)
    R += wf * db.sojourn_barrier(cal.db_write_demand_s)
    return R


def opaque_unit(n):
    return 1.0


def cpu_node(speed, degradation, cap=constant_capacity, up=True, isolated=False):
    return SimpleNamespace(
        up=up,
        isolated=isolated,
        cpu=SimpleNamespace(speed=speed, degradation=degradation, capacity_model=cap),
    )


#: (speed, degradation, capacity kind, knee offset from the solved
#: concurrency, thrashing slope, thrashing floor)
station_specs = st.lists(
    st.tuples(
        st.floats(0.1, 8.0),
        st.floats(0.01, 1.0),
        st.sampled_from(["constant", "thrashing", "opaque-unit", "opaque-curve"]),
        st.integers(-3, 3),
        st.floats(0.0, 2.0),
        st.floats(0.01, 1.0),
    ),
    min_size=1,
    max_size=6,
)


def build_tier(specs, concs):
    """Nodes for ``specs``; a thrashing knee sits ``offset`` away from the
    concurrency the station reaches at full speed (``concs``), so it
    straddles the solved operating point."""
    nodes = []
    for (speed, degradation, kind, offset, slope, floor), c in zip(specs, concs):
        knee = max(0, int(min(c, 1e6)) + offset)
        curve = ThrashingCurve(knee=knee, slope=slope, floor=floor)
        cap = {
            "constant": constant_capacity,
            "thrashing": curve,
            "opaque-unit": opaque_unit,
            "opaque-curve": lambda n, curve=curve: curve(n),
        }[kind]
        nodes.append(cpu_node(speed, degradation, cap))
    return nodes


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=400, deadline=None)
@given(
    app_specs=station_specs,
    db_specs=station_specs,
    X=st.floats(1e-3, 5e3),
    conc_cap=st.floats(1.0, 1e5),
    write_fraction=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    balancers=st.lists(
        st.tuples(st.floats(0.1, 4.0), st.booleans(), st.booleans()), max_size=3
    ),
    lan=st.booleans(),
)
def test_fixed_point_exit_is_bit_identical(
    app_specs, db_specs, X, conc_cap, write_fraction, balancers, lan
):
    """One ``_response`` evaluation (round one inline, damped rounds past a
    knee, hoisted step invariants) equals the separate solve/sojourn
    passes bit for bit: ``R``, and every tier's ``rho``, ``conc``, ``se``;
    and the solve's early exit equals always running every round."""
    cal = replace(DEFAULT_CALIBRATION, write_fraction=write_fraction)
    engine = FluidEngine(
        None,
        None,
        calibration=cal,
        balancers=[
            (cpu_node(speed, 1.0, up=up, isolated=isolated), 0.0005)
            for speed, up, isolated in balancers
        ],
        lan=SimpleNamespace(latency_s=1e-4, extra_latency_s=0.0, bandwidth_mbps=100.0)
        if lan
        else None,
    )
    # Where each station's concurrency lands at full speed: the knees
    # are placed around it.
    probe_app, probe_db = engine._tiers(
        build_tier(app_specs, [0.0] * len(app_specs)),
        build_tier(db_specs, [0.0] * len(db_specs)),
    )
    for tier, specs in ((probe_app, app_specs), (probe_db, db_specs)):
        tier.knees = [sys.maxsize] * len(specs)
        tier.evaluate(X, conc_cap)
    app_nodes = build_tier(app_specs, probe_app.conc)
    db_nodes = build_tier(db_specs, probe_db.conc)

    app, db = engine._tiers(app_nodes, db_nodes)
    R = engine._response(
        X, app, db, conc_cap, engine._network_delay(), engine._stations()
    )
    ref_app, ref_db = ReferenceTier(app_nodes), ReferenceTier(db_nodes)
    R_ref = reference_response(engine, X, ref_app, ref_db, conc_cap)
    assert R.hex() == R_ref.hex()
    for fast, ref in ((app, ref_app), (db, ref_db)):
        for attr in ("se", "rho", "conc"):
            assert bits(getattr(fast, attr)) == bits(getattr(ref, attr)), attr

    slow = ReferenceTier(db_nodes)
    always_five_rounds(slow, X, db.d_even, db.d_per, conc_cap)
    for attr in ("se", "rho", "conc"):
        assert bits(getattr(ref_db, attr)) == bits(getattr(slow, attr)), attr


def collector_bytes(col) -> bytes:
    """Every simulated output of a run's collector, as bytes."""
    parts = [
        series.times.astype("<f8").tobytes() + series.values.astype("<f8").tobytes()
        for series in (col.latencies, col.node_cpu, col.failures)
    ]
    parts.append(
        repr({t: col.replica_changes(t) for t in sorted(col.tier_replicas)}).encode()
    )
    parts.append(repr(col.reconfigurations).encode())
    return b"".join(parts)


def run_ticks(config, monkeypatch, memo):
    """Run ``config``; return its collector bytes, every tick's
    ``FluidState`` and the number of memo hits."""
    from repro.jade.system import ManagedSystem

    states, hits = [], []
    tick, recall = FluidEngine.tick, FluidEngine._recall

    def recording_tick(self, population, dt):
        state = tick(self, population, dt)
        states.append(state)
        return state

    def counting_recall(self, key):
        hit = recall(self, key) if memo else None
        hits.append(hit is not None)
        return hit

    with monkeypatch.context() as m:
        m.setattr(FluidEngine, "tick", recording_tick)
        m.setattr(FluidEngine, "_recall", counting_recall)
        system = ManagedSystem(config)
        system.run()
    return collector_bytes(system.collector), states, sum(hits)


def composed_chaos_market_config():
    from repro.chaos import ChaosCampaign
    from repro.chaos import faults as F
    from repro.market.scenario import PRESETS, market_config

    campaign = ChaosCampaign(
        "composed",
        (
            F.crash(40.0, target="db"),
            F.gray(60.0, 30.0, factor=0.2, target="app"),
            F.extra_latency(80.0, 30.0, extra_s=0.02),
        ),
    )
    base = market_config(PRESETS["spot-heavy"](), seed=2, peak=300, scale=0.2)
    return replace(base, fluid=True, chaos=campaign)


class TestExactIncrementalTick:
    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: fluid_ramp_config(scale=0.15),
            lambda: fluid_ramp_config(scale=0.25, threshold=300),
            composed_chaos_market_config,
        ],
        ids=["fluid", "hybrid-300", "chaos-market"],
    )
    def test_memo_on_equals_memo_off(self, make_config, monkeypatch):
        out_on, states_on, hits_on = run_ticks(make_config(), monkeypatch, True)
        out_off, states_off, hits_off = run_ticks(make_config(), monkeypatch, False)
        assert hits_on > 0 and hits_off == 0
        assert states_on == states_off
        assert out_on == out_off

    def test_composed_run_exercises_every_fault(self):
        from repro.jade.system import ManagedSystem

        system = ManagedSystem(composed_chaos_market_config())
        system.run()
        fired = {e["fault"] for e in system.chaos.events}
        assert {"crash", "gray", "latency"} <= fired

    @staticmethod
    def engine_on(nodes, lan):
        app, db, plb = nodes[:2], nodes[2:4], nodes[4]
        return FluidEngine(
            nodes[0].kernel,
            MetricsCollector(),
            app_nodes=lambda: app,
            db_nodes=lambda: db,
            balancers=[(plb, 0.0005)],
            lan=lan,
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e, nodes, lan: nodes[2].cpu.set_degradation(0.5),
            lambda e, nodes, lan: nodes[3].crash(),
            lambda e, nodes, lan: nodes[1].isolate(),
            lambda e, nodes, lan: setattr(lan, "extra_latency_s", 0.01),
            lambda e, nodes, lan: nodes[4].cpu.set_degradation(0.25),
            lambda e, nodes, lan: setattr(e, "_last_x", 0.9 * e._last_x),
        ],
        ids=[
            "degradation", "crash", "isolation", "lan-latency", "balancer",
            "warm-start",
        ],
    )
    def test_changed_input_recomputes(self, mutate):
        from repro.cluster import Lan
        from repro.cluster.node import Node
        from repro.simulation import SimKernel

        kernel = SimKernel()
        curve = ThrashingCurve(knee=40, slope=0.05, floor=0.05)
        nodes = [Node(kernel, f"n{i}", capacity_model=curve) for i in range(5)]
        lan = Lan()
        engine = self.engine_on(nodes, lan)
        for _ in range(500):
            before = engine._memo
            state, app, db = engine.step(400, 1.0)
            if before is not None and engine._memo is before:
                break  # equal inputs: served from the memo
        else:
            pytest.fail("level never reached a float fixed point")
        mutate(engine, nodes, lan)
        level, last_x = engine.level, engine._last_x
        fresh = self.engine_on(nodes, lan)
        fresh.level, fresh._last_x = level, last_x
        expected, exp_app, exp_db = fresh.step(400, 1.0)
        got, got_app, got_db = engine.step(400, 1.0)
        assert got_app is not app and engine._memo is not before
        assert got == expected != state
        assert (engine.level, engine._last_x) == (fresh.level, fresh._last_x)
        for tier, ref in ((got_app, exp_app), (got_db, exp_db)):
            assert tier.nodes == ref.nodes
            assert bits(tier.rho + tier.conc + tier.se) == bits(
                ref.rho + ref.conc + ref.se
            )


# ----------------------------------------------------------------------
# The committed accuracy gate, end to end (full-scale Fig. 9 pair)
# ----------------------------------------------------------------------
class TestAccuracyGateEndToEnd:
    def test_fig9_gate_and_million_budget(self):
        from repro.workload.fluid_bench import check_section, run_section

        section = run_section(use_cache=False)
        check_section(section)  # replica identity, tolerances, 1M budget
        gate = section["accuracy"]
        assert gate["replica_sequences"]["database"]["fluid"][-1] == 1
        assert section["speedup"]["speedup"] > 2.0
        assert section["million"]["users"] >= 1_000_000
