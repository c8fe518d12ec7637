"""The four canonical runs the benchmark times.

Each workload is a closed loop of RUBiS browsers (6.5 s mean think time)
following the paper's trapezoid: 80 clients, +21 per step up to the
peak, then symmetrically back down (§5.2).  ``scale`` stretches every
duration of the trapezoid; the benchmark runs at ``scale=1`` and the
harness test at a tiny one.  Builders import ``repro`` lazily so the
orchestrating process never loads the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: run through ``run_federation`` instead of ``ManagedSystem.run``
    federated: bool
    #: (seed, scale) -> ExperimentConfig | FederationSpec
    build: Callable[[int, float], object]


def _ramp(seed: int, scale: float, **knobs):
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    profile = RampProfile(
        warmup_s=300.0 * scale, step_period_s=60.0 * scale, cooldown_s=300.0 * scale
    )
    return ExperimentConfig(profile=profile, seed=seed, **knobs)


def _evacuation(seed: int, scale: float):
    from repro.federation.spec import evacuation

    return evacuation(regions=2, scale=0.5 * scale, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ramp-discrete",
            "Fig. 9 managed ramp, 3000 s per-client: the per-request path "
            "(kernel, PS-CPU, legacy hop chain, RUBiS draws) dominates",
            False,
            lambda seed, scale: _ramp(seed, scale),
        ),
        Workload(
            "ramp-fluid",
            "same ramp at scale 2 on the fluid engine: bypasses the "
            "per-request path, so periodic, probe and policy costs show",
            False,
            lambda seed, scale: _ramp(seed, 2.0 * scale, fluid=True),
        ),
        Workload(
            "static-thrash",
            "unmanaged ramp: the DB thrashes with deep PS-CPU queues, so "
            "shallow-queue wins that hurt deep queues show here",
            False,
            lambda seed, scale: _ramp(seed, scale, managed=False),
        ),
        Workload(
            "federation-evac",
            "2-region evacuation with crash, partition, repair and spill: "
            "the only run through process barriers, chaos and recovery",
            True,
            _evacuation,
        ),
    )
}
