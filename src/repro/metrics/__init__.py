"""Measurement infrastructure.

Time-series recording (:mod:`~repro.metrics.series`), the temporal/spatial
averaging the paper's sensors perform (:mod:`~repro.metrics.aggregates`),
and the experiment-wide collector the benchmark harness reads figures from
(:mod:`~repro.metrics.collector`).
"""
