"""Aggregated client cohorts.

A :class:`ClientCohort` of weight K stands for K identical closed-loop
browsers: per cycle one think draw, one request whose demands are the sum
over the K constituents (Gamma additivity), and counters weighted by K.
The tests pin the two load-bearing properties:

* **K = 1 identity** — a weight-1 cohort consumes the RNG streams exactly
  like the original per-client session, so the default configuration is
  bit-for-bit unchanged;
* **weak scaling** — a population of N·K clients emulated as N cohorts on
  K×-scaled hardware reproduces the unscaled N-client run's utilization
  and (weighted) completion counts.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.legacy.requests import WebRequest
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import SimKernel
from repro.simulation.process import Process, sleep, wait
from repro.simulation.rng import RngStreams
from repro.workload.calibration import DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator
from repro.workload.cohort import ClientCohort
from repro.workload.profiles import ConstantProfile, PiecewiseProfile, RampProfile
from repro.workload.rubis import CLIENT_BLOCK, RubisModel, block_draws


@pytest.fixture
def kernel():
    return SimKernel()


class CountingEntry:
    """Entry point that completes every request after a fixed delay."""

    def __init__(self, kernel, delay=0.05):
        self.kernel = kernel
        self.count = 0
        self.weight_sum = 0
        self.delay = delay

    def __call__(self, request):
        self.count += 1
        self.weight_sum += request.weight
        self.kernel.schedule(self.delay, request.complete, self.kernel)


def make_emulator(kernel, profile, cohort=1, seed=3):
    entry = CountingEntry(kernel)
    collector = MetricsCollector()
    emulator = ClientEmulator(
        kernel,
        entry=entry,
        profile=profile,
        collector=collector,
        streams=RngStreams(seed),
        cohort=cohort,
    )
    return emulator, entry, collector


# ----------------------------------------------------------------------
# Construction and population accounting
# ----------------------------------------------------------------------
class TestCohortBasics:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            ClientCohort(0, 0)
        with pytest.raises(ValueError):
            ClientCohort(0, -3)

    def test_emulator_rejects_bad_cohort(self, kernel):
        with pytest.raises(ValueError):
            make_emulator(kernel, ConstantProfile(10, 60.0), cohort=0)

    def test_active_clients_counts_constituents(self, kernel):
        emulator, _, _ = make_emulator(
            kernel, ConstantProfile(100, 60.0), cohort=10
        )
        emulator.start()
        kernel.run(until=10.0)
        assert emulator.active_clients == 100
        # 10 cohort processes, not 100.
        assert len([c for c in emulator._clients if c.active]) == 10

    def test_partial_cohort_covers_deficit_exactly(self, kernel):
        """A population that does not divide by the cohort size is covered
        exactly on the way up (the last cohort is smaller)."""
        emulator, _, _ = make_emulator(
            kernel, ConstantProfile(25, 60.0), cohort=10
        )
        emulator.start()
        kernel.run(until=10.0)
        assert emulator.active_clients == 25
        weights = sorted(c.weight for c in emulator._clients if c.active)
        assert weights == [5, 10, 10]

    @pytest.mark.parametrize("cohort", [1, 7])
    def test_active_total_matches_sum_over_cohorts(self, kernel, cohort):
        """The running active total equals the sum over active cohorts
        at every adjustment up and down a ramp, and after stop()."""
        profile = RampProfile(
            base=10, peak=80, step_clients=9, step_period_s=4.0,
            warmup_s=4.0, cooldown_s=4.0,
        )
        emulator, _, collector = make_emulator(kernel, profile, cohort=cohort)
        adjust = emulator._adjust
        totals = []

        def checked_adjust():
            adjust()
            brute = sum(c.weight for c in emulator._clients if c.active)
            recorded = collector.workload.value_at(kernel.now)
            totals.append((emulator.active_clients, brute, recorded))

        emulator._adjust = checked_adjust
        emulator.start()
        kernel.run(until=profile.duration_s)
        assert all(t == b == r for t, b, r in totals)
        assert max(b for _, b, _ in totals) == 80
        assert totals[-1][1] < 10 + cohort
        emulator.stop()
        assert emulator.active_clients == 0
        assert not any(c.active for c in emulator._clients)

    def test_requests_carry_cohort_weight(self, kernel):
        emulator, entry, collector = make_emulator(
            kernel, ConstantProfile(40, 120.0), cohort=8
        )
        emulator.start()
        kernel.run(until=120.0)
        assert entry.count > 0
        assert entry.weight_sum == 8 * entry.count
        assert collector.completed_requests == entry.weight_sum
        assert emulator.requests_issued == entry.weight_sum

    def test_throughput_counts_constituents(self, kernel):
        """X = N / (Z + R) holds for the *constituent* population even
        though only N/K samples are recorded."""
        emulator, _, collector = make_emulator(
            kernel, ConstantProfile(50, 600.0), cohort=10
        )
        emulator.start()
        kernel.run(until=600.0)
        assert collector.throughput(100.0, 600.0) == pytest.approx(
            50 / 6.55, rel=0.1
        )


# ----------------------------------------------------------------------
# K = 1 identity
# ----------------------------------------------------------------------
class TestUnitCohortIdentity:
    def test_vary_weight_one_is_rng_identical(self):
        a = RubisModel(np.random.default_rng(42))
        b = RubisModel(np.random.default_rng(42))
        for mean in (0.01, 0.03, 0.002):
            assert a._vary(mean) == b._vary(mean, 1)

    def test_cohort_one_emulator_matches_default(self, kernel):
        """cohort=1 takes the same code path as the default configuration:
        identical request streams, latencies, and counters."""
        emulator, entry, collector = make_emulator(
            kernel, ConstantProfile(20, 200.0), cohort=1
        )
        emulator.start()
        kernel.run(until=200.0)

        k2 = SimKernel()
        default, entry2, col2 = make_emulator(k2, ConstantProfile(20, 200.0))
        default.start()
        k2.run(until=200.0)

        assert entry.count == entry2.count
        assert collector.completed_requests == col2.completed_requests
        assert np.array_equal(collector.latencies.times, col2.latencies.times)
        assert np.array_equal(collector.latencies.values, col2.latencies.values)

    def test_full_system_cohort_one_identical(self):
        """End-to-end: a managed run with cohort=1/hardware_scale=1 equals
        the default config exactly (same seeds, same draws, same events)."""
        profile = ConstantProfile(30, 120.0)
        runs = []
        for cfg in (
            ExperimentConfig(profile=profile, seed=5, tail_s=10.0),
            ExperimentConfig(
                profile=profile, seed=5, tail_s=10.0, cohort=1, hardware_scale=1.0
            ),
        ):
            system = ManagedSystem(cfg)
            system.run()
            runs.append(system)
        a, b = runs
        assert a.kernel.events_processed == b.kernel.events_processed
        assert np.array_equal(
            a.collector.latencies.values, b.collector.latencies.values
        )
        assert a.summary() == b.summary()


# ----------------------------------------------------------------------
# Weak scaling: N·K clients as N cohorts on K×-scaled hardware
# ----------------------------------------------------------------------
def _weak_scaled_pair(k, clients=20, duration=200.0, seed=3):
    profile_up = ConstantProfile(clients * k, duration)
    scaled = ManagedSystem(
        ExperimentConfig(
            profile=profile_up,
            seed=seed,
            cohort=k,
            hardware_scale=float(k),
            tail_s=20.0,
        )
    )
    scaled.run()
    base = ManagedSystem(
        ExperimentConfig(
            profile=ConstantProfile(clients, duration), seed=seed, tail_s=20.0
        )
    )
    base.run()
    return scaled, base


@pytest.mark.parametrize("k", [10, 100])
def test_weak_scaling_matches_unscaled_run(k):
    """Tier CPU utilization and weighted completions of the cohort run
    track the unscaled run within tolerance."""
    scaled, base = _weak_scaled_pair(k)
    s, b = scaled.summary(), base.summary()
    assert s["completed"] == pytest.approx(k * b["completed"], rel=0.02)
    assert s["throughput_rps"] == pytest.approx(k * b["throughput_rps"], rel=0.02)
    assert s["node_cpu_mean"] == pytest.approx(b["node_cpu_mean"], rel=0.15)
    assert s["latency_mean_ms"] == pytest.approx(b["latency_mean_ms"], rel=0.25)
    for tier in ("application", "database"):
        sc = scaled.collector.tier_cpu.get(tier)
        bc = base.collector.tier_cpu.get(tier)
        if sc is None or bc is None or not len(sc.values) or not len(bc.values):
            continue
        assert float(sc.values.mean()) == pytest.approx(
            float(bc.values.mean()), abs=0.05
        )


# ----------------------------------------------------------------------
# Gamma additivity of the demand model
# ----------------------------------------------------------------------
@given(
    weight=st.integers(min_value=1, max_value=200),
    mean=st.floats(min_value=0.001, max_value=0.1),
)
@settings(max_examples=25, deadline=None)
def test_vary_weight_scales_mean(weight, mean):
    """A weight-w draw is Gamma(w·shape, mean/shape): its expectation is
    w·mean and its CV shrinks as 1/sqrt(w) — the statistical fan-in that
    lets one draw stand for w clients."""
    model = RubisModel(np.random.default_rng(7))
    n = 800
    draws = np.array([model._vary(mean, weight) for _ in range(n)])
    assert np.all(draws > 0)
    expected = weight * mean
    # CV of the sample mean: 0.5 / sqrt(weight) / sqrt(n); allow 6 sigma.
    tol = 6 * 0.5 / np.sqrt(weight * n)
    assert abs(draws.mean() / expected - 1.0) < max(tol, 0.01)


# ----------------------------------------------------------------------
# Exactness of the callback session against the generator session
# ----------------------------------------------------------------------
def reference_session(cohort, emulator):
    """The closed loop as a generator under :class:`Process`, the way
    every cohort ran before the callback state machine (reference copy,
    kept in the tests only)."""
    kernel = emulator.kernel
    cal = emulator.cal
    model = emulator.model
    collector = emulator.collector
    weight = cohort.weight
    rng = emulator.streams.get(f"client-think-{cohort.client_id}")
    if cal.static_fraction > 0.0:

        def draw_think():
            return float(rng.exponential(cal.think_time_mean_s))

    else:
        draw_think = block_draws(
            partial(rng.exponential, cal.think_time_mean_s), CLIENT_BLOCK
        ).__next__
    navigator = emulator._navigator_factory(cohort.client_id)
    while cohort.active:
        yield sleep(draw_think())
        if not cohort.active:
            break
        if cal.static_fraction > 0.0 and rng.random() < cal.static_fraction:
            request = WebRequest(
                kernel,
                "StaticDocument",
                is_static=True,
                static_demand=model._vary(cal.static_demand_s, weight),
                client_id=cohort.client_id,
                weight=weight,
            )
        else:
            inter = navigator.next_interaction()
            request = model.make_request(
                inter, client_id=cohort.client_id, weight=weight
            )
        emulator.requests_issued += weight
        emulator.entry(request)
        timeout_event = None
        if emulator.request_timeout_s is not None:

            def abandon(req=request):
                emulator.abandoned += weight
                req.fail(kernel, "client timeout")

            timeout_event = kernel.schedule(emulator.request_timeout_s, abandon)
        try:
            yield wait(request.completion)
        except Exception:
            collector.record_failure(kernel.now, weight)
            continue
        finally:
            if timeout_event is not None:
                timeout_event.cancel()
        latency = request.latency
        assert latency is not None
        collector.record_latency(kernel.now, latency, weight)


class ReferenceEmulator(ClientEmulator):
    """Spawns every cohort as a generator :class:`Process`."""

    def _spawn_client(self, weight: int = 1) -> None:
        cid = self._next_client_id
        self._next_client_id += 1
        client = ClientCohort(cid, weight)
        self._clients.append(client)
        self._active_weight += weight
        Process(self.kernel, reference_session(client, self), name=f"client-{cid}")


class ScriptedEntry:
    """Entry point that answers the i-th request as ``plan[i]`` says:
    complete or fail after a delay, or complete or fail inside the call."""

    def __init__(self, kernel, plan):
        self.kernel = kernel
        self.plan = plan
        self.log = []

    def __call__(self, request):
        kernel = self.kernel
        kind, delay = self.plan[len(self.log) % len(self.plan)]
        self.log.append(
            (
                kernel.now,
                request.client_id,
                request.weight,
                request.interaction,
                request.is_static,
                request.app_demand_pre,
                request.app_demand_post,
                request.db_demand,
                request.static_demand,
            )
        )
        if kind == "complete":
            kernel.schedule(delay, request.complete, kernel)
        elif kind == "complete-now":
            request.complete(kernel)
        elif kind == "fail-now":
            request.fail(kernel, "refused")
        else:
            kernel.schedule(delay, request.fail, kernel, "late failure")


def _run_session(emulator_cls, setup):
    kernel = SimKernel()
    entry = ScriptedEntry(kernel, setup["plan"])
    collector = MetricsCollector()
    emulator = emulator_cls(
        kernel,
        entry=entry,
        profile=PiecewiseProfile(setup["steps"], setup["duration"]),
        collector=collector,
        streams=RngStreams(setup["seed"]),
        calibration=dataclasses.replace(
            DEFAULT_CALIBRATION,
            think_time_mean_s=1.0,
            static_fraction=setup["static_fraction"],
        ),
        request_timeout_s=setup["timeout"],
        cohort=setup["cohort"],
    )
    emulator.start()
    if setup["stop_at"] is not None:
        kernel.schedule(setup["stop_at"], emulator.stop)
    kernel.run(until=setup["duration"] + 10.0)
    return {
        "requests": entry.log,
        "latency_t": collector.latencies.times.tolist(),
        "latency_v": collector.latencies.values.tolist(),
        "failure_t": collector.failures.times.tolist(),
        "failure_v": collector.failures.values.tolist(),
        "completed": collector.completed_requests,
        "failed": collector.failed_requests,
        "issued": emulator.requests_issued,
        "abandoned": emulator.abandoned,
        "work": kernel.events_processed + kernel.tail_dispatched,
    }


_answers = st.tuples(
    st.sampled_from(["complete", "complete-now", "fail-now", "fail-late"]),
    st.floats(min_value=0.0, max_value=1.5),
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    cohort=st.sampled_from([1, 3]),
    static_fraction=st.sampled_from([0.0, 0.4]),
    timeout=st.sampled_from([None, 0.5]),
    plan=st.lists(_answers, min_size=1, max_size=6),
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0), st.integers(0, 8)
        ),
        min_size=1,
        max_size=5,
    ),
    stop_at=st.one_of(st.none(), st.floats(min_value=1.0, max_value=40.0)),
)
@settings(max_examples=100, deadline=None)
def test_callback_session_matches_generator_session(
    seed, cohort, static_fraction, timeout, plan, steps, stop_at
):
    """The state machine issues the same requests at the same instants,
    records the same latencies and failures, abandons the same requests
    and does the same kernel work as the generator it replaced, under
    random populations (deactivations included), cohort sizes, static
    documents, timeouts and entry-point outcomes."""
    setup = {
        "seed": seed,
        "cohort": cohort,
        "static_fraction": static_fraction,
        "timeout": timeout,
        "plan": plan,
        "steps": steps,
        "duration": 40.0,
        "stop_at": stop_at,
    }
    ours = _run_session(ClientEmulator, setup)
    reference = _run_session(ReferenceEmulator, setup)
    assert ours == reference


def test_cohort_runs_without_generators():
    """The per-request client path resumes no generator: no cohort method
    is a generator function and the emulator builds no Process."""
    import inspect

    import repro.workload.clients
    import repro.workload.cohort

    methods = inspect.getmembers(ClientCohort, inspect.isfunction)
    assert not any(inspect.isgeneratorfunction(fn) for _, fn in methods)
    for module in (repro.workload.clients, repro.workload.cohort):
        assert not hasattr(module, "Process")
