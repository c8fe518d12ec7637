"""Point-in-time capture of a managed system.

A what-if fork does not copy the live object graph (queued kernel
callbacks, in-flight requests and actuator processes suspended
mid-generator are unpicklable); it captures the *observable* state the
branch needs — replica counts, client population, pool headroom, hardware
parameters, and the experiment seed — and the engine rebuilds a
deterministic branch system from it.  Capturing is read-only by
construction, which is what makes the parent-non-mutation guarantee of the
what-if engine trivial to uphold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.workload.calibration import Calibration

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.system import ManagedSystem


def _last_tier_cpu(system: "ManagedSystem", tier: str) -> float:
    series = system.collector.tier_cpu.get(tier)
    last = series.last() if series is not None else None
    return last[1] if last is not None else float("nan")


@dataclass(frozen=True)
class SystemSnapshot:
    """Everything a branch simulation needs to start from 'here'."""

    t: float
    seed: int
    clients: int
    app_replicas: int
    db_replicas: int
    free_nodes: int
    pool_nodes: int
    node_speed: float
    thrashing: bool
    app_cpu: float                  # last smoothed tier CPU (NaN if unmeasured)
    db_cpu: float
    inhibition_free_at: float       # -inf when no lock applies
    calibration: Calibration = field(compare=False)

    @classmethod
    def capture(
        cls, system: "ManagedSystem", inhibition=None
    ) -> "SystemSnapshot":
        """Read the current state of ``system`` (no mutation)."""
        cfg = system.config
        free_at = float("-inf")
        if inhibition is None:
            inhibition = getattr(system.optimizer, "inhibition", None)
        if inhibition is not None:
            free_at = inhibition.free_at
        return cls(
            t=system.kernel.now,
            seed=cfg.seed,
            clients=system.emulator.active_clients,
            app_replicas=system.app_tier.replica_count,
            db_replicas=system.db_tier.replica_count,
            free_nodes=system.cluster.free_count,
            pool_nodes=cfg.pool_nodes,
            node_speed=cfg.node_speed,
            thrashing=cfg.thrashing,
            app_cpu=_last_tier_cpu(system, "application"),
            db_cpu=_last_tier_cpu(system, "database"),
            inhibition_free_at=free_at,
            calibration=cfg.calibration,
        )

    def to_record(self) -> dict:
        """Flat JSON-friendly dict (calibration elided — it is part of the
        experiment config, not of the observable state)."""
        return {
            "t": self.t,
            "seed": self.seed,
            "clients": self.clients,
            "app_replicas": self.app_replicas,
            "db_replicas": self.db_replicas,
            "free_nodes": self.free_nodes,
            "pool_nodes": self.pool_nodes,
            "node_speed": self.node_speed,
        }
