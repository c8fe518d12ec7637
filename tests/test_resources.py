"""Unit and property tests for the CPU models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.kernel import SimKernel
from repro.simulation.resources import (
    PsCpu,
    ResourceStopped,
    ThrashingCurve,
    constant_capacity,
)
from repro.cluster.node import Node, NodeDown, NodeIsolated
from tests.conftest import Job, ignore


def run_jobs(cpu, kernel, demands, submit_times=None):
    jobs = []
    for i, demand in enumerate(demands):
        t = 0.0 if submit_times is None else submit_times[i]
        job = Job(kernel, demand)
        kernel.schedule_at(t, job.submit, cpu)
        jobs.append(job)
    kernel.run()
    return jobs


class TestPsCpu:
    def test_single_job_takes_its_demand(self, kernel):
        cpu = PsCpu(kernel)
        (job,) = run_jobs(cpu, kernel, [2.5])
        assert job.completed_at == pytest.approx(2.5)

    def test_equal_jobs_share_equally(self, kernel):
        cpu = PsCpu(kernel)
        jobs = run_jobs(cpu, kernel, [1.0, 1.0, 1.0])
        for job in jobs:
            assert job.completed_at == pytest.approx(3.0)

    def test_short_job_finishes_first(self, kernel):
        cpu = PsCpu(kernel)
        short, long_ = run_jobs(cpu, kernel, [1.0, 3.0])
        # Both share until the short one finishes at t=2 (each got 1s of
        # service); the long one then runs alone for its remaining 2s.
        assert short.completed_at == pytest.approx(2.0)
        assert long_.completed_at == pytest.approx(4.0)

    def test_late_arrival_shares_remaining(self, kernel):
        cpu = PsCpu(kernel)
        a, b = run_jobs(cpu, kernel, [2.0, 2.0], submit_times=[0.0, 1.0])
        # a runs alone [0,1] (1s served), then shares: a needs 1 more
        # => at rate 1/2 finishes at t=3; b then alone, 1s left, t=4.
        assert a.completed_at == pytest.approx(3.0)
        assert b.completed_at == pytest.approx(4.0)

    def test_speed_scales_service(self, kernel):
        cpu = PsCpu(kernel, speed=2.0)
        (job,) = run_jobs(cpu, kernel, [3.0])
        assert job.completed_at == pytest.approx(1.5)

    def test_zero_demand_completes_immediately(self, kernel):
        cpu = PsCpu(kernel)
        job = Job(kernel, 0.0)
        job.submit(cpu)
        assert cpu.completed == 1 and cpu.active_jobs == 0
        kernel.step()
        assert job.completed_at == 0.0

    def test_busy_time_accounting(self, kernel):
        cpu = PsCpu(kernel)
        run_jobs(cpu, kernel, [1.0, 1.0], submit_times=[0.0, 5.0])
        # busy [0,1] and [5,6]
        assert cpu.busy_time() == pytest.approx(2.0)

    def test_busy_time_with_overlap_counts_wall_clock(self, kernel):
        cpu = PsCpu(kernel)
        run_jobs(cpu, kernel, [1.0, 1.0], submit_times=[0.0, 0.0])
        assert cpu.busy_time() == pytest.approx(2.0)  # both finish at t=2

    def test_completed_and_service_counters(self, kernel):
        cpu = PsCpu(kernel)
        run_jobs(cpu, kernel, [0.5, 1.5])
        assert cpu.completed == 2
        assert cpu.service_delivered == pytest.approx(2.0)

    def test_abort_all_fails_jobs(self, kernel):
        cpu = PsCpu(kernel)
        errors = []
        cpu.submit(10.0, then=lambda: None, fail=errors.append)
        kernel.schedule(1.0, cpu.abort_all)
        kernel.run()
        assert isinstance(errors[0], ResourceStopped)
        assert cpu.active_jobs == 0

    def test_submit_after_abort_works(self, kernel):
        cpu = PsCpu(kernel)
        cpu.submit(10.0)
        kernel.schedule(1.0, cpu.abort_all)
        kernel.run()
        fresh = Job(kernel, 1.0)
        fresh.submit(cpu)
        kernel.run()
        assert fresh.completed_at == pytest.approx(kernel.now)

    def test_negative_demand_rejected(self, kernel):
        with pytest.raises(ValueError):
            PsCpu(kernel).submit(-1.0)

    def test_nan_demand_rejected(self, kernel):
        """A NaN demand would never complete and never fail."""
        cpu = PsCpu(kernel)
        with pytest.raises(ValueError):
            cpu.submit(float("nan"))
        with pytest.raises(ValueError):
            cpu.submit(float("nan"), then=lambda: None, fail=lambda e: None)
        assert cpu.active_jobs == 0

    def test_thrashing_slows_service(self, kernel):
        curve = ThrashingCurve(knee=2, slope=1.0, floor=0.01)
        cpu = PsCpu(kernel, capacity_model=curve)
        # 4 jobs: capacity(4) = 1/(1+2) = 1/3; per-job rate 1/12.
        jobs = run_jobs(cpu, kernel, [1.0] * 4)
        assert all(j.completed_at > 4.0 for j in jobs)

    def test_sub_ulp_remainder_completes_one_ulp_later(self, kernel):
        # vnow = 0.5 leaves a 1e-9 due-tolerance, so a 2e-9 s job is not
        # due on arrival; at t = 1e8 its real remaining time is below half
        # an ulp of now, so the computed wake lands at now itself.
        cpu = PsCpu(kernel)
        cpu.submit(0.5)
        t = 1e8
        job = Job(kernel, 2e-9)
        kernel.schedule_at(t, job.submit, cpu)
        assert t + 2e-9 == t
        for _ in range(10):
            if job.completed_at is not None or not kernel.step():
                break
        assert job.completed_at == math.nextafter(t, math.inf)
        assert cpu.completed == 2 and cpu.active_jobs == 0


class TestContinuationJobs:
    """Jobs that carry a ``then``/``fail`` continuation."""

    def _submit(self, cpu, demand, log, tag):
        kernel = cpu.kernel
        cpu.submit(
            demand,
            then=lambda: log.append((tag, kernel.now)),
            fail=lambda err: log.append((tag, type(err).__name__)),
        )

    def test_then_and_fail_come_together(self, kernel):
        cpu = PsCpu(kernel)
        with pytest.raises(ValueError):
            cpu.submit(1.0, then=lambda: None)
        with pytest.raises(ValueError):
            cpu.submit(1.0, fail=lambda err: None)
        assert cpu.active_jobs == 0

    def test_lone_completion_is_tail_dispatched(self, kernel):
        cpu = PsCpu(kernel)
        log = []
        kernel.schedule_at(0.0, self._submit, cpu, 1.0, log, "a")
        kernel.run()
        assert log == [("a", 1.0)]
        assert kernel.tail_dispatched == 1

    def test_simultaneous_completions_are_posted(self, kernel):
        cpu = PsCpu(kernel)
        log = []
        for tag in "ab":
            kernel.schedule_at(0.0, self._submit, cpu, 1.0, log, tag)
        kernel.run()
        assert log == [("a", 2.0), ("b", 2.0)]
        assert kernel.tail_dispatched == 0

    @pytest.mark.parametrize("factory", [PsCpu])
    def test_abort_posts_fail(self, factory, kernel):
        cpu = factory(kernel)
        log = []
        self._submit(cpu, 5.0, log, "a")
        kernel.run(until=1.0)
        assert cpu.abort_all() == 1
        assert log == [] and cpu.active_jobs == 0
        kernel.run()
        assert log == [("a", "ResourceStopped")]


class TestLazyDone:
    """A job without a continuation on a node that cannot run it: a
    crashed node refuses it, an isolated one accepts and drops it."""

    def test_down_node(self, kernel):
        node = Node(kernel, "n1")
        node.run_job(10.0)
        kernel.schedule(1.0, node.crash)
        kernel.run(until=5.0)
        assert node.cpu.active_jobs == 0 and node.cpu.completed == 0
        with pytest.raises(NodeDown):
            node.run_job(1.0)
        log = []
        node.run_job(1.0, then=ignore, fail=log.append)
        kernel.run()
        assert len(log) == 1 and isinstance(log[0], NodeDown)

    def test_isolated_node(self, kernel):
        node = Node(kernel, "n1")
        kernel.run(until=2.0)
        node.isolate()
        node.run_job(1.0)
        assert kernel.pending == 0
        assert node.cpu.active_jobs == 0
        log = []
        node.run_job(1.0, then=lambda: None, fail=log.append)
        kernel.run()
        assert len(log) == 1 and isinstance(log[0], NodeIsolated)


class TestThrashingCurve:
    def test_full_capacity_below_knee(self):
        curve = ThrashingCurve(knee=10, slope=0.1)
        assert curve(0) == 1.0
        assert curve(10) == 1.0

    def test_decay_above_knee(self):
        curve = ThrashingCurve(knee=10, slope=0.1, floor=0.01)
        assert curve(20) == pytest.approx(1.0 / 2.0)
        assert curve(11) < 1.0

    def test_floor_respected(self):
        curve = ThrashingCurve(knee=0, slope=10.0, floor=0.25)
        assert curve(1000) == 0.25

    def test_monotone_nonincreasing(self):
        curve = ThrashingCurve(knee=5, slope=0.3)
        values = [curve(n) for n in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ThrashingCurve(knee=-1)
        with pytest.raises(ValueError):
            ThrashingCurve(slope=-0.1)
        with pytest.raises(ValueError):
            ThrashingCurve(floor=0.0)

    def test_constant_capacity_is_one(self):
        assert constant_capacity(0) == 1.0
        assert constant_capacity(10**6) == 1.0


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=12
    )
)
@settings(max_examples=60, deadline=None)
def test_ps_conserves_work(demands):
    """Total service delivered equals total demand; the last completion is
    exactly the sum of demands when all jobs arrive together (unit rate)."""
    kernel = SimKernel()
    cpu = PsCpu(kernel)
    jobs = [Job(kernel, d) for d in demands]
    for j in jobs:
        j.submit(cpu)
    kernel.run()
    assert cpu.service_delivered == pytest.approx(sum(demands))
    last = max(j.completed_at for j in jobs)
    assert last == pytest.approx(sum(demands), rel=1e-6)


@given(
    demands=st.lists(
        st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=12
    )
)
@settings(max_examples=60, deadline=None)
def test_ps_completion_order_matches_demand_order(demands):
    """With simultaneous arrivals, PS completes jobs in demand order."""
    kernel = SimKernel()
    cpu = PsCpu(kernel)
    jobs = [Job(kernel, d) for d in demands]
    for j in jobs:
        j.submit(cpu)
    kernel.run()
    by_demand = sorted(jobs, key=lambda j: j.demand)
    completions = [j.completed_at for j in by_demand]
    assert all(a <= b + 1e-9 for a, b in zip(completions, completions[1:]))


class TestAbortAllReuse:
    """abort_all must leave the resource in its initial state so a
    replica's CPU can be reused after a crash/stop without ghost wakes or
    stale virtual time."""

    def test_abort_fails_inflight_jobs(self, kernel):
        cpu = PsCpu(kernel)
        errors = []
        for _ in range(3):
            cpu.submit(5.0, then=lambda: None, fail=errors.append)
        kernel.schedule(1.0, cpu.abort_all, RuntimeError("crash"))
        kernel.run()
        assert cpu.completed == 0
        assert len(errors) == 3
        assert all(isinstance(err, RuntimeError) for err in errors)

    def test_resource_reusable_after_abort(self, kernel):
        """Fresh jobs after an abort see exact PS timing — the virtual
        clock and wake bookkeeping were reset, not left mid-flight."""
        cpu = PsCpu(kernel)
        for _ in range(4):
            cpu.submit(10.0)
        kernel.schedule(1.0, cpu.abort_all, RuntimeError("crash"))
        kernel.run()

        start = kernel.now
        fresh = [Job(kernel, 2.0), Job(kernel, 2.0)]
        for j in fresh:
            j.submit(cpu)
        kernel.run()
        # Two equal jobs sharing one unit-speed CPU: both finish in 4 s.
        for j in fresh:
            assert j.completed_at == pytest.approx(start + 4.0)
        assert cpu.completed == 2

    def test_stale_wake_after_abort_is_inert(self, kernel):
        """The wake posted before the abort still fires (posts cannot be
        cancelled) but must complete nothing."""
        cpu = PsCpu(kernel)
        cpu.submit(2.0)
        kernel.schedule(0.5, cpu.abort_all, RuntimeError("crash"))
        kernel.run()
        assert cpu.completed == 0
        assert kernel.pending == 0

    def test_utilization_window_reset(self, kernel):
        cpu = PsCpu(kernel)
        cpu.submit(3.0)
        kernel.schedule(1.0, cpu.abort_all, RuntimeError("crash"))
        kernel.run()
        assert cpu._vnow == 0.0
        assert cpu._live == 0


class TestWeightedJobs:
    """A weight-K job stands for K concurrent identical requests whose
    summed demand travels on one job (the cohort fast path)."""

    def test_weight_must_be_positive(self, kernel):
        cpu = PsCpu(kernel)
        with pytest.raises(ValueError):
            cpu.submit(1.0, weight=0)
        assert cpu.active_jobs == 0

    def test_weighted_job_times_like_constituents(self, kernel):
        """One weight-2 job with summed demand 2.0 completes when two
        interleaved weight-1 jobs of demand 1.0 would: at t=2."""
        cpu = PsCpu(kernel)
        job = Job(kernel, 2.0, weight=2)
        job.submit(cpu)
        kernel.run()
        assert job.completed_at == pytest.approx(2.0)
        assert cpu.completed == 2

    def test_weighted_job_contends_like_constituents(self, kernel):
        """Against a weight-1 competitor, a weight-2 job claims two PS
        shares: the competitor sees a 3-way split, not a 2-way one."""
        cpu = PsCpu(kernel)
        heavy = Job(kernel, 2.0, weight=2)
        light = Job(kernel, 1.0)
        heavy.submit(cpu)
        light.submit(cpu)
        kernel.run()
        # Identical per-constituent demand (1.0 each over 3 shares): all
        # three constituents finish together at t=3.
        assert light.completed_at == pytest.approx(3.0)
        assert heavy.completed_at == pytest.approx(3.0)
        assert cpu.completed == 3
