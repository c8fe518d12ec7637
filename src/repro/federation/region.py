"""One region of a federation: a full ManagedSystem driven epoch by epoch.

:class:`RegionRuntime` owns the region's :class:`ManagedSystem` and
walks it through the epoch protocol the coordinator speaks:

* :meth:`start` — build managers, start the emulator (the lifecycle
  split on :class:`~repro.jade.system.ManagedSystem` this PR adds);
* :meth:`apply` — absorb the inbound :class:`WeightUpdate` at a barrier
  (the only mutation a region ever receives from outside);
* :meth:`run_epoch` — advance the kernel one epoch and flush the
  outbound :class:`RegionReport` (latency/capacity over the window);
* :meth:`finish_result` — drain the tail and distill a picklable
  :class:`RegionResult`.

``run_epoch`` measures its own CPU busy time (``time.process_time``),
so serial and parallel execution report the same per-epoch cost model
and the bench's critical-path accounting is mode-independent.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Optional

import numpy as np

# The phi detector a chaos campaign selects is imported lazily by
# ManagedSystem; loading it here keeps it out of forked region workers.
import repro.chaos.detectors  # noqa: F401
from repro.federation.messages import RegionReport, WeightUpdate
from repro.federation.spec import FederationSpec, RegionSpec, build_region_config
from repro.jade.system import ManagedSystem
from repro.metrics.aggregates import percentile_sorted
from repro.runner.results import CompletedRun


class RegionResult:
    """Everything the analysis reads from one finished region (picklable:
    rides worker pipes and the result cache)."""

    __slots__ = (
        "name",
        "run",
        "reports",
        "updates_applied",
        "epoch_busy_s",
        "build_s",
        "finish_s",
    )

    def __init__(
        self,
        name: str,
        run: CompletedRun,
        reports: list[RegionReport],
        updates_applied: list[WeightUpdate],
        epoch_busy_s: list[float],
        build_s: float,
        finish_s: float,
    ) -> None:
        self.name = name
        self.run = run
        self.reports = reports
        self.updates_applied = updates_applied
        self.epoch_busy_s = epoch_busy_s
        self.build_s = build_s
        self.finish_s = finish_s

    # ------------------------------------------------------------------
    def scorecard(self) -> dict:
        """Simulation-only outcome (no wall-clock), the byte-identity
        surface: serial and parallel runs must render this identically."""
        return {
            "region": self.name,
            "seed": self.run.config.seed,
            "summary": self.run.summary(),
            "events_processed": self.run.events_processed,
            "reports": [dataclasses.asdict(r) for r in self.reports],
            "updates": [dataclasses.asdict(u) for u in self.updates_applied],
        }

    def scorecard_json(self) -> str:
        """Canonical rendering (sorted keys, fixed separators) — compared
        byte-for-byte across execution modes by the tests."""
        return json.dumps(
            self.scorecard(), sort_keys=True, separators=(",", ":")
        )


class RegionRuntime:
    """The live, in-process side of one region (never crosses a pipe)."""

    def __init__(
        self,
        fed: FederationSpec,
        spec: RegionSpec,
        trace_jsonl: Optional[str] = None,
    ) -> None:
        self.fed = fed
        self.spec = spec
        self.name = spec.name
        t0 = time.process_time()
        self.config = build_region_config(fed, spec, trace_jsonl=trace_jsonl)
        self.system = ManagedSystem(self.config)
        if self.system.tracer is not None:
            self.system.tracer.region = self.name
        self.build_s = time.process_time() - t0
        self.profile = self.config.profile  # RoutedProfile
        self._wall0 = time.perf_counter()
        self._lat_idx = 0
        self._completed0 = 0
        self._failed0 = 0
        self.reports: list[RegionReport] = []
        self.updates_applied: list[WeightUpdate] = []
        self.epoch_busy_s: list[float] = []
        self.finish_s = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        t0 = time.process_time()
        self.system.start_all()
        self.build_s += time.process_time() - t0

    def apply(self, updates: list[WeightUpdate]) -> None:
        """Absorb this region's routing decision at the barrier (called
        between ``advance`` calls, so the workload change is atomic at
        the epoch boundary)."""
        for update in updates:
            if update.region != self.name:
                continue
            self.profile.apply(update)
            self.updates_applied.append(update)
            if self.system.tracer is not None:
                from repro.obs.events import EpochRouted

                self.system.tracer.emit(
                    EpochRouted(
                        self.system.kernel.now,
                        region=self.name,
                        epoch=update.epoch,
                        weight=update.weight,
                        spill_clients=update.spill_clients,
                        reason=update.reason,
                    )
                )

    def run_epoch(self, epoch: int) -> tuple[RegionReport, float]:
        """Advance one epoch; returns (outbound report, CPU busy s)."""
        t0 = time.process_time()
        end = min((epoch + 1) * self.fed.epoch_s, self.fed.horizon_s)
        self.system.advance(end)
        report = self._report(epoch, end)
        busy = time.process_time() - t0
        self.epoch_busy_s.append(busy)
        self.reports.append(report)
        return report, busy

    def _report(self, epoch: int, t: float) -> RegionReport:
        system = self.system
        col = system.collector
        window = col.latencies.tail_since(self._lat_idx)
        self._lat_idx = len(col.latencies)
        if window:
            latencies = [v for _, v in window]
            lat_mean = float(np.asarray(latencies, dtype=np.float64).mean())
            lat_p95 = percentile_sorted(sorted(latencies), 95.0)
        else:
            lat_mean = lat_p95 = 0.0
        completed = col.completed_requests - self._completed0
        failed = col.failed_requests - self._failed0
        self._completed0 = col.completed_requests
        self._failed0 = col.failed_requests
        return RegionReport(
            epoch=epoch,
            region=self.name,
            t=t,
            active_clients=system.emulator.active_clients,
            app_replicas=len(system.app_tier.replicas),
            db_replicas=len(system.db_tier.replicas),
            free_nodes=system.cluster.free_count,
            completed=completed,
            failed=failed,
            latency_mean_s=lat_mean,
            latency_p95_s=lat_p95,
        )

    def finish_result(self) -> RegionResult:
        """Drain the tail, stop the managers, distill the result."""
        t0 = time.process_time()
        self.system.finish()
        self.finish_s = time.process_time() - t0
        run = CompletedRun.from_system(
            self.system, time.perf_counter() - self._wall0
        )
        return RegionResult(
            name=self.name,
            run=run,
            reports=self.reports,
            updates_applied=self.updates_applied,
            epoch_busy_s=self.epoch_busy_s,
            build_s=self.build_s,
            finish_s=self.finish_s,
        )
