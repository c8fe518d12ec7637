"""Parallel, cached experiment runner.

The figure benchmarks all reduce to "run
:class:`~repro.jade.system.ManagedSystem` with this
:class:`~repro.jade.system.ExperimentConfig` and analyse the collector".
Those runs are independent and expensive (the full §5.2 ramp simulates
3600 s), so this package provides the machinery to run them efficiently:

* :mod:`repro.runner.results` —
  :class:`~repro.runner.results.CompletedRun`, a picklable proxy carrying
  everything the analysis code reads (collector, config, tier and
  proactive counters) without the live kernel;
* :mod:`repro.runner.fingerprint` — a content hash over the simulator's
  source, so cached results invalidate when the code changes;
* :mod:`repro.runner.cache` — a content-addressed on-disk result cache
  keyed by (payload description, code fingerprint), size-capped with LRU
  eviction (``repro cache {stats,clear,prune}``);
* :mod:`repro.runner.parallel` —
  :func:`~repro.runner.parallel.fanout_map`, the generic
  order-preserving process-pool map, and
  :class:`~repro.runner.parallel.ExperimentRunner`, which fans a batch of
  configs out over it with cache short-circuiting;
* :mod:`repro.runner.sweep` — ``repro sweep``: the grid fan-out
  (seeds × scales × policies × cohorts) with CSV/JSON output;
* :mod:`repro.runner.bench` — the ``repro bench`` engine benchmark:
  micro-benchmarks, a multi-seed ramp replication, the what-if
  decision-latency benchmark and a sweep-throughput probe, written to
  ``BENCH_engine.json`` with confidence intervals.
"""
