"""Pluggable control-loop policies + the sweep-driven autotuner.

Importing the package populates the registry with the built-in plugins:

* ``threshold`` — the paper's rule (the default of every CPU loop);
* ``adaptive-threshold`` — the §7 oscillation-damping extension;
* ``target-utilization`` — sizing to a fixed utilization target;
* ``queue-model`` — M/G/1-PS sizing from the calibrated demand mix;
* ``forecast`` — feedforward on predicted utilization;
* ``latency-band`` — the band of the latency-SLO loop.

See :mod:`repro.policy.api` for the contract and
:mod:`repro.policy.tune` for the autotuner.
"""

# Importing the built-in plugins registers them.
from repro.policy import feedforward, queue_model, threshold  # noqa: F401
