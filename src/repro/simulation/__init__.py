"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event machinery on which the
whole reproduction runs: an event kernel and its one-shot signals
(:mod:`repro.simulation.kernel`), seeded random-stream management
(:mod:`repro.simulation.rng`) and the processor-sharing CPU model
(:mod:`repro.simulation.resources`).  Everything runs on plain kernel
callbacks: the request path on CPU-job continuations, the management
layer's step sequences (actuators, recovery-log replay, deployments) as
callback state machines whose steps post each other or wait on signals.

The paper's experiments are time-based (1 s control periods, 60/90 s moving
averages, a 3000 s workload ramp); simulating time lets a full experiment run
in seconds of wall-clock while keeping every temporal constant identical to
the paper's.
"""
