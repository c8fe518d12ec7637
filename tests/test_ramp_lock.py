"""Behaviour lock of the ramp's request path.

The end-to-end benchmark checks the full-scale ramps, but only outside
the tier-1 suite.  These values pin the same two schedules at a short
scale: for seeds 1 and 7, the paper's trapezoid (80 → 500 clients)
compressed to 0.15 of its durations, managed and static, must reproduce
the collector digest and the kernel's dispatched, tail-dispatched and
tombstone counts, exactly.  A change to the kernel, the PS-CPU or the
legacy hop chain that moves one event moves one of these.

The fluid ramp is pinned at the benchmark's own size (the trapezoid at
twice the paper's durations, seed 1; about half a second): it bypasses
the request path, so its digest moves with the probes, the node
sampler, the policy loop and the fluid tick instead.  The same ramp,
pickled while the fluid level cycles between two memoized steps, resumes
to the same digest.

The federation's evacuation is pinned at a tenth of the paper's
durations (seed 1, two regions, run serially): each region's collector
digest and kernel counts, through a crash, its repair, the evacuation
and the spill to the survivor.
"""

from __future__ import annotations

import pickle

import pytest

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import RampProfile
from tests.conftest import collector_digest

#: fraction of the paper's ramp durations (warm-up, step, cool-down)
SCALE = 0.15

#: (seed, managed) -> (collector digest, events processed, tail
#: dispatched, tombstones skipped)
LOCK = {
    (1, True): (
        "1960996bd404fa02cdd1253962ab1df3c24577e7cc7a293d0cbffd5b702c5eaf",
        144316, 107926, 1,
    ),
    (1, False): (
        "6fc9738c3548d7555b2cfab0b6766670bad60581eff422d0a44f7d9e970923d2",
        58681, 46756, 1,
    ),
    (7, True): (
        "17bf65fa6efec6f3fbc7102691f9433fa4e0a4abb437bb57196caae427dbcae5",
        174955, 127896, 1,
    ),
    (7, False): (
        "2921dfec30394da19d03b3d98144a3450537fc3e24f46a48661dd1b5cd0791f3",
        56384, 44874, 1,
    ),
}


#: the fluid ramp's (collector digest, events processed, tail
#: dispatched, tombstones skipped, app probe samples, db probe samples)
FLUID_LOCK = (
    "97c221e04ed1c697b18e3df0a82fb577631d37f6827dd4b4d803c0c5236d36e7",
    95394, 0, 1, 6060, 6060,
)


#: region -> (collector digest, events processed, tail dispatched,
#: tombstones skipped) of the reduced-scale evacuation
FEDERATION_LOCK = {
    "ap-east": (
        "f5f516903c59455124bef4b8ae9dbc3a049699ac2fc11ca133952c2658fd372e",
        21269, 14767, 1,
    ),
    "eu-west": (
        "4da5e968a2a569294033a48527d3076cb498fece29f12ef17c9716bcc48b0dbf",
        37600, 28576, 1,
    ),
}


def build(seed: int, managed: bool) -> ManagedSystem:
    profile = RampProfile(
        peak=500,
        warmup_s=300.0 * SCALE,
        step_period_s=60.0 * SCALE,
        cooldown_s=300.0 * SCALE,
    )
    return ManagedSystem(ExperimentConfig(profile=profile, seed=seed, managed=managed))


@pytest.mark.parametrize(
    "seed, managed",
    sorted(LOCK),
    ids=[f"seed{s}-{'managed' if m else 'static'}" for s, m in sorted(LOCK)],
)
def test_ramp_run_is_locked(seed, managed):
    system = build(seed, managed)
    collector = system.run()
    kernel = system.kernel
    observed = (
        collector_digest(collector),
        kernel.events_processed,
        kernel.tail_dispatched,
        kernel.tombstones_skipped,
    )
    assert observed == LOCK[seed, managed]


def fluid_ramp() -> ManagedSystem:
    scale = 2.0
    profile = RampProfile(
        warmup_s=300.0 * scale,
        step_period_s=60.0 * scale,
        cooldown_s=300.0 * scale,
    )
    return ManagedSystem(ExperimentConfig(profile=profile, seed=1, fluid=True))


def test_fluid_ramp_is_locked():
    system = fluid_ramp()
    collector = system.run()
    kernel = system.kernel
    probes = system._tier_probes
    observed = (
        collector_digest(collector),
        kernel.events_processed,
        kernel.tail_dispatched,
        kernel.tombstones_skipped,
        probes["app"].samples_taken,
        probes["db"].samples_taken,
    )
    assert observed == FLUID_LOCK


def test_paused_fluid_ramp_resumes_to_the_same_digest():
    """Pickled while the fluid level cycles between two memoized steps
    (each slot's result is the other's input level, and both hold their
    tick's injection plan), the ramp resumes to the locked digest."""
    paused = fluid_ramp()
    horizon = paused.start_all()
    engine = paused.emulator.engine
    until = horizon / 2 + 0.5
    while True:
        assert until < horizon, "the level never cycled between two slots"
        paused.advance(until)
        memo = engine._memo
        if (
            len(memo) == 2
            and all(solved.plan for solved in memo)
            and memo[0].level == memo[1].key[2] != memo[1].level == memo[0].key[2]
            and engine.level in (memo[0].level, memo[1].level)
        ):
            break
        until += 1.0
    clone = pickle.loads(pickle.dumps(paused))
    assert collector_digest(clone.finish()) == FLUID_LOCK[0]


def test_federation_evacuation_is_locked(monkeypatch):
    from repro.federation import coordinator
    from repro.federation.spec import evacuation

    runtimes = []

    class Recorded(coordinator.RegionRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    monkeypatch.setattr(coordinator, "RegionRuntime", Recorded)
    spec = evacuation(regions=2, scale=0.1, seed=1)
    result = coordinator.run_federation(spec, parallel=False)
    observed = {}
    for runtime in runtimes:
        kernel = runtime.system.kernel
        observed[runtime.name] = (
            collector_digest(result.regions[runtime.name].run.collector),
            kernel.events_processed,
            kernel.tail_dispatched,
            kernel.tombstones_skipped,
        )
    assert observed == FEDERATION_LOCK
