"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event machinery on which the
whole reproduction runs: an event kernel (:mod:`repro.simulation.kernel`),
signals and lightweight generator-based processes for the management
layer's sequential tasks — actuators, recovery-log replay, deployments,
chaos (:mod:`repro.simulation.process`) — seeded random-stream management
(:mod:`repro.simulation.rng`) and CPU resource models
(:mod:`repro.simulation.resources`).  The per-request path runs on plain
kernel callbacks and CPU-job continuations, without processes.

The paper's experiments are time-based (1 s control periods, 60/90 s moving
averages, a 3000 s workload ramp); simulating time lets a full experiment run
in seconds of wall-clock while keeping every temporal constant identical to
the paper's.
"""

from repro.simulation.kernel import Event, SimKernel
from repro.simulation.process import Process, Signal, sleep, wait
from repro.simulation.resources import (
    CpuJob,
    CpuResource,
    FifoCpu,
    PsCpu,
    ThrashingCurve,
    constant_capacity,
)
from repro.simulation.rng import RngStreams

__all__ = [
    "CpuJob",
    "CpuResource",
    "Event",
    "FifoCpu",
    "Process",
    "PsCpu",
    "RngStreams",
    "Signal",
    "SimKernel",
    "ThrashingCurve",
    "constant_capacity",
    "sleep",
    "wait",
]
