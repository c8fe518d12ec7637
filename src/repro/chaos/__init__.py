"""Chaos engineering subsystem (extension).

The paper's self-recovery experiments inject one clean fail-stop crash.
Real clusters fail in richer ways — stragglers, gray failures, network
partitions, correlated rack outages — and an autonomic manager is only as
good as its behaviour under those shapes.  This package turns the single
scripted crash into a reproducible resilience test harness:

* :mod:`repro.chaos.faults` — composable, seeded fault models
  (:class:`~repro.chaos.faults.FaultSpec`, applied by
  :class:`~repro.chaos.faults.ChaosInjector`): crash, fail-slow, gray
  failure, partition, added latency, correlated rack outage, Poisson
  crash streams;
* :mod:`repro.chaos.campaign` —
  :class:`~repro.chaos.campaign.ChaosCampaign`, a declarative, picklable
  schedule of faults that runs through the cached parallel
  :class:`~repro.runner.parallel.ExperimentRunner` (``repro chaos``);
* :mod:`repro.chaos.detectors` —
  :class:`~repro.chaos.detectors.PhiAccrualDetector`, a progress-based
  failure detector that catches gray and fail-slow failures the
  ``up``-flag heartbeat misses;
* :mod:`repro.chaos.scorecard` — per-campaign MTTR, availability,
  goodput and SLO-violation-under-fault with multi-seed confidence
  intervals (recorded by :mod:`repro.chaos.bench`).
"""
