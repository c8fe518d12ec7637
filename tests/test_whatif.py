"""Tests for the what-if engine (repro.capacity.whatif).

The load-bearing guarantees from the module docstring:

* forking with the same seed twice yields **byte-identical** candidate
  outcome reports,
* forking never mutates the parent run, and
* a branch resumes the parent's exact state: the stay candidate under the
  true profile reproduces the parent's own continuation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.capacity.cost import CostModel
from repro.capacity.forecast import LinearTrendForecaster
from repro.capacity.whatif import (
    BALANCER_NODES,
    Candidate,
    WhatIfEngine,
    default_candidates,
    evaluate_branch,
    force_replicas,
    resume_branch,
    run_to_fork,
)
from repro.runner.cache import ResultCache
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile, RampProfile

#: a compressed ramp that crosses the DB grow threshold quickly
RAMP = dict(base=80, peak=260, step_period_s=15.0, warmup_s=60.0, cooldown_s=60.0)
FORK_AT = 150.0


def build_system(seed: int = 11) -> ManagedSystem:
    return ManagedSystem(
        ExperimentConfig(
            profile=RampProfile(**RAMP), seed=seed, managed=True,
            sample_nodes=False,
        )
    )


def make_engine() -> WhatIfEngine:
    # Short windows keep the branch simulations cheap in the suite.
    return WhatIfEngine(horizon_s=45.0, cost_model=CostModel())


def forecast_from(system: ManagedSystem):
    forecaster = LinearTrendForecaster()
    for t, clients in system.collector.workload.changes:
        forecaster.observe(t, clients)
    return forecaster.predict(45.0, 15.0)


@pytest.fixture(scope="module")
def fork():
    system = build_system()
    snapshot = run_to_fork(system, FORK_AT)
    return system, snapshot, forecast_from(system)


class TestDeterminism:
    def test_same_fork_twice_is_byte_identical(self, fork):
        _, snapshot, forecast = fork
        engine = make_engine()
        first = engine.report(engine.evaluate(snapshot, forecast))
        second = engine.report(engine.evaluate(snapshot, forecast))
        assert first == second

    def test_independent_parents_same_seed_agree(self, fork):
        _, snapshot, forecast = fork
        other = build_system()
        other_snapshot = run_to_fork(other, FORK_AT)
        assert other_snapshot == snapshot
        report_a = make_engine().report(make_engine().evaluate(snapshot, forecast))
        report_b = make_engine().report(
            make_engine().evaluate(other_snapshot, forecast_from(other))
        )
        assert report_a == report_b

    def test_different_seed_differs(self, fork):
        _, snapshot, forecast = fork
        other = build_system(seed=12)
        other_snapshot = run_to_fork(other, FORK_AT)
        report_a = make_engine().report(make_engine().evaluate(snapshot, forecast))
        report_b = make_engine().report(
            make_engine().evaluate(other_snapshot, forecast)
        )
        assert report_a != report_b


class TestParentIsolation:
    def test_evaluation_does_not_advance_or_mutate_parent(self, fork):
        system, snapshot, forecast = fork
        before = (
            system.kernel.now,
            system.kernel.events_processed,
            system.collector.completed_requests,
            system.collector.failed_requests,
            len(system.collector.latencies),
            system.app_tier.replica_count,
            system.db_tier.replica_count,
            system.cluster.free_count,
        )
        make_engine().evaluate(snapshot, forecast)
        after = (
            system.kernel.now,
            system.kernel.events_processed,
            system.collector.completed_requests,
            system.collector.failed_requests,
            len(system.collector.latencies),
            system.app_tier.replica_count,
            system.db_tier.replica_count,
            system.cluster.free_count,
        )
        assert before == after

    def test_parent_finishes_identically_with_and_without_whatif(self):
        end = RampProfile(**RAMP).duration_s

        def finish(evaluate: bool) -> tuple:
            system = build_system()
            snapshot = run_to_fork(system, FORK_AT)
            if evaluate:
                make_engine().evaluate(snapshot, forecast_from(system))
            system.kernel.run(until=end)
            col = system.collector
            return (
                col.completed_requests,
                col.failed_requests,
                [tuple(c) for c in col.tier_replicas["database"].changes],
                round(col.latencies.window(0.0, end).mean(), 12),
            )

        assert finish(evaluate=False) == finish(evaluate=True)


class TestCandidates:
    def test_replica_counts_validated(self):
        with pytest.raises(ValueError):
            Candidate(0, 1)
        with pytest.raises(ValueError):
            Candidate(1, -1)

    def test_label(self):
        assert Candidate(2, 3).label == "app2/db3"

    def test_default_candidates_at_floor_deduplicates(self, fork):
        _, snapshot, _ = fork
        floor = replace(snapshot, app_replicas=1, db_replicas=1)
        candidates = default_candidates(floor)
        labels = [c.label for c in candidates]
        assert labels == ["app1/db1", "app2/db1", "app1/db2", "app2/db2"]
        assert len(set(labels)) == len(labels)

    def test_max_delta_widens_neighbourhood(self, fork):
        _, snapshot, _ = fork
        wide = default_candidates(snapshot, max_delta=2)
        assert len(wide) > len(default_candidates(snapshot, max_delta=1))


def fork_small_pool(pool_nodes: int):
    """An unmanaged 60-client system on a small pool, forked at t=100."""
    system = ManagedSystem(
        ExperimentConfig(
            profile=ConstantProfile(60, 200.0), seed=3, managed=False,
            pool_nodes=pool_nodes, thrashing=False, sample_nodes=False,
        )
    )
    return run_to_fork(system, 100.0)


class TestPoolExhaustion:
    def test_oversized_candidate_is_infeasible(self):
        # A 5-node pool: 2 balancers + tomcat1 + mysql1 leaves one free
        # node, so app2/db2 cannot be hosted.
        snapshot = fork_small_pool(5)
        assert snapshot.free_nodes == 1
        forecast = [(115.0, 70.0), (130.0, 80.0)]
        engine = make_engine()
        outcomes = engine.evaluate(
            snapshot, forecast, [Candidate(1, 1), Candidate(2, 2)]
        )
        by_label = {o.candidate.label: o for o in outcomes}
        assert by_label["app1/db1"].feasible
        assert not by_label["app2/db2"].feasible
        assert by_label["app2/db2"].error == "no-free-node"
        assert math.isinf(by_label["app2/db2"].cost.total)
        # Ranking skips the infeasible candidate.
        assert engine.best(outcomes).candidate.label == "app1/db1"

    def test_all_infeasible_raises(self):
        snapshot = fork_small_pool(4)
        assert snapshot.free_nodes == 0
        engine = make_engine()
        outcomes = engine.evaluate(snapshot, [(115.0, 70.0)], [Candidate(3, 3)])
        assert not outcomes[0].feasible
        with pytest.raises(ValueError, match="no feasible"):
            engine.best(outcomes)


class TestEngineContract:
    def test_node_seconds_accounts_tiers_and_balancers(self, fork):
        _, snapshot, forecast = fork
        engine = make_engine()
        outcome = engine.evaluate(snapshot, forecast, [Candidate(1, 1)])[0]
        window = engine.horizon_s
        floor = (BALANCER_NODES + 2) * window  # 2 balancers + app1 + db1
        assert outcome.node_seconds >= floor - 1e-6

    def test_run_to_fork_rejects_started_system(self):
        system = build_system()
        system.kernel.run(until=1.0)
        with pytest.raises(ValueError, match="freshly built"):
            run_to_fork(system, 10.0)

    def test_run_to_fork_rejects_started_emulator(self):
        # Regression: a system whose emulator was started (but whose clock
        # never advanced) must also be rejected — run_to_fork would start
        # the emulator a second time.
        system = build_system()
        system.emulator.start()
        with pytest.raises(ValueError, match="freshly built"):
            run_to_fork(system, 10.0)

    def test_run_to_fork_rejects_processed_events(self):
        system = build_system()
        system.kernel.schedule(0.0, lambda: None)
        system.kernel.run(until=0.0)
        assert system.kernel.now == 0.0  # clock alone would not catch it
        assert system.kernel.events_processed > 0
        with pytest.raises(ValueError, match="freshly built"):
            run_to_fork(system, 10.0)

    def test_run_to_fork_starts_every_extension(self):
        # Regression: run_to_fork must start every extension (chaos,
        # deploy, market too), so a fork taken after a campaign's fault
        # time sees the fault.
        from repro.chaos.campaign import PRESETS, campaign_config

        campaign = PRESETS["crash"]()
        fault_t = campaign.faults[0].at_s
        system = ManagedSystem(
            campaign_config(campaign, seed=1, clients=40, duration_s=fault_t + 60.0)
        )
        run_to_fork(system, fault_t + 10.0)
        assert system.chaos.faults_injected == 1

    def test_engine_validates_windows(self):
        with pytest.raises(ValueError):
            WhatIfEngine(horizon_s=0.0)
        with pytest.raises(ValueError):
            WhatIfEngine(prune_check_s=0.0)

    def test_report_is_sorted_canonical_json(self, fork):
        _, snapshot, forecast = fork
        engine = make_engine()
        report = engine.report(engine.evaluate(snapshot, forecast, [Candidate(1, 1)]))
        import json

        parsed = json.loads(report)
        assert isinstance(parsed, list)
        assert list(parsed[0]) == sorted(parsed[0])


class TestParallelEvaluation:
    def test_parallel_report_byte_identical_to_serial(self, fork):
        _, snapshot, forecast = fork
        serial = make_engine()
        serial_report = serial.report(serial.evaluate(snapshot, forecast))
        parallel = WhatIfEngine(
            horizon_s=45.0,
            cost_model=CostModel(),
            parallel=True,
            max_workers=2,
        )
        parallel_report = parallel.report(parallel.evaluate(snapshot, forecast))
        assert parallel_report == serial_report

    def test_parallel_winner_matches_serial(self, fork):
        _, snapshot, forecast = fork
        serial = make_engine()
        parallel = WhatIfEngine(
            horizon_s=45.0,
            cost_model=CostModel(),
            parallel=True,
            max_workers=2,
        )
        serial_best = serial.best(serial.evaluate(snapshot, forecast))
        parallel_best = parallel.best(parallel.evaluate(snapshot, forecast))
        assert parallel_best.candidate == serial_best.candidate


class TestWarmedBranchCache:
    def make_cached_engine(self, tmp_path) -> WhatIfEngine:
        return WhatIfEngine(
            horizon_s=45.0,
            cost_model=CostModel(),
            cache=ResultCache(tmp_path / "cache"),
        )

    def test_first_evaluation_misses_then_hits(self, fork, tmp_path):
        _, snapshot, forecast = fork
        cold = self.make_cached_engine(tmp_path)
        cold_out = cold.evaluate(snapshot, forecast)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold_out)
        assert cold.branches_run == len(cold_out)

        warm = self.make_cached_engine(tmp_path)
        warm_out = warm.evaluate(snapshot, forecast)
        assert warm.cache_hits == len(warm_out)
        assert warm.cache_misses == 0
        assert warm.branches_run == 0  # replayed nothing
        assert warm.report(warm_out) == cold.report(cold_out)

    def test_cached_report_byte_identical_to_uncached(self, fork, tmp_path):
        _, snapshot, forecast = fork
        plain = make_engine()
        plain_report = plain.report(plain.evaluate(snapshot, forecast))
        cached = self.make_cached_engine(tmp_path)
        cached.evaluate(snapshot, forecast)
        warm = self.make_cached_engine(tmp_path)
        assert warm.report(warm.evaluate(snapshot, forecast)) == plain_report


class TestDominancePruning:
    def make_pruning_engine(self, **kwargs) -> WhatIfEngine:
        return WhatIfEngine(
            horizon_s=45.0,
            cost_model=CostModel(),
            prune=True,
            prune_check_s=10.0,
            **kwargs,
        )

    def test_pruning_never_changes_selected_candidate(self, fork):
        _, snapshot, forecast = fork
        serial = make_engine()
        serial_out = serial.evaluate(snapshot, forecast)
        pruning = self.make_pruning_engine()
        pruned_out = pruning.evaluate(snapshot, forecast)
        assert (
            pruning.best(pruned_out).candidate
            == serial.best(serial_out).candidate
        )

    def test_pruned_outcomes_cost_above_winner(self, fork):
        _, snapshot, forecast = fork
        engine = self.make_pruning_engine()
        outcomes = engine.evaluate(snapshot, forecast)
        best_total = engine.best(outcomes).cost.total
        for outcome in outcomes:
            if outcome.pruned:
                assert outcome.cost.total > best_total

    def test_non_pruned_records_identical_to_serial(self, fork):
        _, snapshot, forecast = fork
        serial_out = make_engine().evaluate(snapshot, forecast)
        pruned_out = self.make_pruning_engine().evaluate(snapshot, forecast)
        for pruned, plain in zip(pruned_out, serial_out):
            if not pruned.pruned:
                assert pruned.to_record() == plain.to_record()

    def test_pruning_composes_with_parallel(self, fork):
        _, snapshot, forecast = fork
        serial = make_engine()
        engine = self.make_pruning_engine(parallel=True, max_workers=2)
        outcomes = engine.evaluate(snapshot, forecast)
        assert (
            engine.best(outcomes).candidate
            == serial.best(serial.evaluate(snapshot, forecast)).candidate
        )


class TestCheckpointBranch:
    """A branch resumes the parent's exact state."""

    def test_stay_branch_reproduces_the_parent_continuation(self):
        # An unmanaged seed-1 ramp forked at saturation; the stay
        # candidate with the true profile as its forecast must replay the
        # parent's own continuation bit for bit.
        profile = RampProfile(warmup_s=45.0, step_period_s=9.0, cooldown_s=45.0)
        parent = ManagedSystem(
            ExperimentConfig(profile=profile, seed=1, managed=False)
        )
        fork_t, horizon = 200.0, 60.0
        snapshot = run_to_fork(parent, fork_t)
        forecast = [
            (fork_t + k, float(profile.clients_at(fork_t + k)))
            for k in range(1, int(horizon) + 1)
        ]
        engine = WhatIfEngine(horizon_s=horizon, cost_model=CostModel())
        stay = Candidate(snapshot.app_replicas, snapshot.db_replicas)
        spec = engine.branch_spec(snapshot, forecast, stay)
        branch = resume_branch(spec)
        assert force_replicas(branch, stay)
        branch.kernel.run(until=fork_t + horizon)
        parent.kernel.run(until=fork_t + horizon)
        ours = branch.collector.latencies.window(fork_t, fork_t + horizon)
        theirs = parent.collector.latencies.window(fork_t, fork_t + horizon)
        assert len(theirs.values) > 0
        assert np.array_equal(ours.values, theirs.values)
        assert branch.kernel.events_processed == parent.kernel.events_processed
        outcome = evaluate_branch(spec)
        assert outcome.latency_mean_s == float(theirs.values.mean())

    def test_managed_parent_branches_keep_tier_cpu(self, fork):
        # The reactive loops own a managed system's tier probes; the
        # branch stops the loops but keeps the probes sampling.
        _, snapshot, forecast = fork
        for outcome in make_engine().evaluate(snapshot, forecast):
            assert outcome.feasible
            assert math.isfinite(outcome.app_cpu_mean)
            assert math.isfinite(outcome.db_cpu_mean)

    @pytest.mark.parametrize("parent", ["chaos", "market", "deploy"])
    def test_no_management_event_after_forcing(self, parent):
        from repro.chaos.campaign import PRESETS as CHAOS, campaign_config
        from repro.deploy.scenario import PRESETS as DEPLOY, deploy_config
        from repro.market.scenario import PRESETS as MARKET, market_config

        if parent == "chaos":
            campaign = CHAOS["crash"]()
            config = campaign_config(campaign, seed=1, clients=40, duration_s=400.0)
            fork_t = campaign.faults[0].at_s - 5.0
        elif parent == "market":
            config = market_config(MARKET["volatile"](), seed=1, scale=0.15)
            fork_t = 200.0
        else:
            # a crossover bounce in flight: it runs out before forcing
            scenario = DEPLOY["clean-bounce"]()
            config = deploy_config(scenario, seed=1, clients=60)
            fork_t = scenario.start_at_s + 10.0
        snapshot = run_to_fork(ManagedSystem(config), fork_t)
        engine = WhatIfEngine(horizon_s=120.0, cost_model=CostModel())
        grow = Candidate(snapshot.app_replicas + 1, snapshot.db_replicas)
        branch = resume_branch(engine.branch_spec(snapshot, [], grow))
        assert force_replicas(branch, grow)
        logged = len(branch.collector.reconfigurations)
        branch.kernel.run(until=fork_t + 120.0)
        assert len(branch.collector.reconfigurations) == logged

    def test_fault_injected_before_the_fork_clears_on_time(self):
        # The latency campaign adds 50 ms to the LAN at t = 180 s for
        # 120 s.  A branch forked mid-fault stops the injector, yet the
        # fault must end at t = 300 s as it does in the parent.
        from repro.chaos.campaign import PRESETS as CHAOS, campaign_config

        config = campaign_config(
            CHAOS["latency"](), seed=1, clients=40, duration_s=400.0
        )
        parent = ManagedSystem(config)
        snapshot = run_to_fork(parent, 250.0)
        assert parent.lan.extra_latency_s == 0.05
        engine = WhatIfEngine(horizon_s=120.0, cost_model=CostModel())
        stay = Candidate(snapshot.app_replicas, snapshot.db_replicas)
        branch = resume_branch(engine.branch_spec(snapshot, [], stay))
        assert branch.lan.extra_latency_s == 0.05
        branch.kernel.run(until=340.0)
        parent.kernel.run(until=340.0)
        assert branch.lan.extra_latency_s == parent.lan.extra_latency_s == 0.0


class TestCacheSoundness:
    def test_parents_in_other_states_share_no_cache_entry(self, tmp_path):
        # The same config forked at the same instant, but one parent was
        # driven outside its config (a grow before running, as the
        # recovery command does): the two states differ, so no branch of
        # one may resolve from the other's cache entries.
        plain = run_to_fork(build_system(), FORK_AT)
        driven_system = build_system()
        assert driven_system.db_tier.grow()
        driven = run_to_fork(driven_system, FORK_AT)
        assert driven.sha256 != plain.sha256
        cache = ResultCache(tmp_path / "cache")
        forecast = [(FORK_AT + 15.0, 200.0)]
        candidates = [Candidate(1, 1), Candidate(1, 2), Candidate(2, 2)]
        engine = make_engine()
        plain_keys = {
            cache.key_for(engine.branch_spec(plain, forecast, c))
            for c in candidates
        }
        driven_keys = {
            cache.key_for(engine.branch_spec(driven, forecast, c))
            for c in candidates
        }
        assert not plain_keys & driven_keys
        first = WhatIfEngine(horizon_s=45.0, cost_model=CostModel(), cache=cache)
        first.evaluate(plain, forecast, candidates)
        second = WhatIfEngine(horizon_s=45.0, cost_model=CostModel(), cache=cache)
        second.evaluate(driven, forecast, candidates)
        assert second.cache_hits == 0
        assert second.branches_run == len(candidates)
