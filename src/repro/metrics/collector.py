"""Experiment-wide metrics collector.

One :class:`MetricsCollector` per experiment run gathers everything the
paper's figures and tables are built from:

* per-request latencies (Figures 8 & 9);
* per-tier smoothed CPU utilization (Figures 6 & 7);
* per-tier replica counts (Figure 5);
* workload level (active emulated clients);
* throughput, and node CPU/memory samples (Table 1).
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Optional, Union

import numpy as np

from repro.metrics.aggregates import summarize
from repro.metrics.series import StepSeries, TimeSeries, copy_out, float_column


class MetricsCollector:
    """Append-only sink for experiment measurements."""

    def __init__(self) -> None:
        self.latencies = TimeSeries("latency_s")          # (completion t, latency)
        self.failures = TimeSeries("failures")            # (t, 1.0) per failed req
        self.workload = StepSeries("active_clients")      # emulated client count
        self.tier_cpu: dict[str, TimeSeries] = {}         # smoothed CPU per tier
        self.tier_cpu_raw: dict[str, TimeSeries] = {}     # spatial avg, unsmoothed
        self.tier_replicas: dict[str, StepSeries] = {}    # replica count per tier
        self.node_cpu = TimeSeries("node_cpu")            # all-node CPU samples
        self.node_memory = TimeSeries("node_memory")      # all-node memory samples
        self.reconfigurations: list[tuple[float, str]] = []
        self.completed_requests = 0
        self.failed_requests = 0
        #: per-latency-sample weights (cohort completions record one sample
        #: for ``weight`` identical constituent requests); parallel to
        #: ``latencies``.  While every weight is 1 it is just their count;
        #: the first other weight turns it into a packed column
        self._latency_weights: Union[int, array] = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_latency(self, t: float, latency_s: float, weight: int = 1) -> None:
        """Record one latency sample standing for ``weight`` identical
        completions (cohort fan-out).  Percentile summaries treat the
        sample once; counts and throughput are weighted."""
        self.completed_requests += weight
        self.latencies.append(t, latency_s)
        weights = self._latency_weights
        if weights.__class__ is int:
            if weight == 1:
                self._latency_weights = weights + 1
                return
            weights = self._latency_weights = float_column(repeat(1.0, weights))
        weights.append(weight)

    def record_failure(self, t: float, weight: int = 1) -> None:
        self.failed_requests += weight
        self.failures.append(t, float(weight))

    def record_workload(self, t: float, clients: int) -> None:
        self.workload.set(t, float(clients))

    def record_tier_cpu(self, tier: str, t: float, smoothed: float, raw: float) -> None:
        series = self.tier_cpu.get(tier)
        if series is None:  # build the pair once, not on every reading
            series = self.tier_cpu[tier] = TimeSeries(f"cpu[{tier}]")
            self.tier_cpu_raw[tier] = TimeSeries(f"cpu_raw[{tier}]")
        series.append(t, smoothed)
        self.tier_cpu_raw[tier].append(t, raw)

    def record_replicas(self, tier: str, t: float, count: int) -> None:
        series = self.tier_replicas.get(tier)
        if series is None:
            series = StepSeries(f"replicas[{tier}]", initial=float(count))
            self.tier_replicas[tier] = series
        else:
            series.set(t, float(count))

    def record_node_sample(self, t: float, cpu: float, memory: float) -> None:
        self.node_cpu.append(t, cpu)
        self.node_memory.append(t, memory)

    def record_reconfiguration(self, t: float, description: str) -> None:
        self.reconfigurations.append((t, description))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def latency_summary(self) -> dict[str, float]:
        return summarize(self.latencies.values)

    def throughput(self, t_start: float, t_end: float) -> float:
        """Completed requests per second over [t_start, t_end), counting
        each cohort sample as its weight in constituent requests."""
        if t_end <= t_start:
            raise ValueError("empty interval")
        t = self.latencies.times
        mask = (t >= t_start) & (t < t_end)
        w = self._weights()
        if w is not None and len(w) == len(t):
            n = float(w[mask].sum())
        else:  # all unit weights, or direct appends to ``latencies``
            n = float(np.count_nonzero(mask))
        return n / (t_end - t_start)

    def _weights(self) -> Optional[np.ndarray]:
        """The latency weights as a float64 copy, or None while every
        recorded weight is 1."""
        weights = self._latency_weights
        return None if weights.__class__ is int else copy_out(weights)

    def latency_buckets(self, width: float, t_end: Optional[float] = None) -> TimeSeries:
        return self.latencies.bucket_mean(width, t_end)

    def replica_changes(self, tier: str) -> list[tuple[float, float]]:
        series = self.tier_replicas.get(tier)
        return series.changes if series is not None else []

    def error_rate(self) -> float:
        total = self.completed_requests + self.failed_requests
        if total == 0:
            return 0.0
        return self.failed_requests / total

    def summary(self, horizon_s: float) -> dict[str, float]:
        """The run summary the benchmark tables (and federation
        scorecards) read; throughput is over ``[0, horizon_s)``."""
        latency = self.latency_summary()
        replicas = self.tier_replicas
        return {
            "completed": self.completed_requests,
            "failed": self.failed_requests,
            "throughput_rps": self.throughput(0.0, horizon_s),
            "latency_mean_ms": latency["mean"] * 1e3,
            "latency_p95_ms": latency["p95"] * 1e3,
            "app_replicas_max": (
                replicas["application"].max() if "application" in replicas else 1
            ),
            "db_replicas_max": (
                replicas["database"].max() if "database" in replicas else 1
            ),
            "node_cpu_mean": self.node_cpu.mean(),
            "node_mem_mean": self.node_memory.mean(),
        }
