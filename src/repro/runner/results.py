"""Picklable experiment results.

A live :class:`~repro.jade.system.ManagedSystem` pickles at any instant,
but the pickle is the whole simulated system (kernel queue, servers, RNG
streams; megabytes at full scale): too much to ship between processes or
cache on disk per run.  :class:`CompletedRun` is the transportable
distillate: the collector, the config, the tier counters, and each
extension's distilled stats.  Everything in it is plain data, so
two runs of the same config produce structurally identical pickles.
"""

from __future__ import annotations


class TierStats:
    """Reconfiguration counters of one :class:`TierManager`."""

    __slots__ = ("name", "grows_completed", "shrinks_completed", "replicas")

    def __init__(
        self, name: str, grows_completed: int, shrinks_completed: int, replicas: int
    ) -> None:
        self.name = name
        self.grows_completed = grows_completed
        self.shrinks_completed = shrinks_completed
        self.replicas = replicas

    @classmethod
    def of(cls, tier) -> "TierStats":
        return cls(
            tier.tier_name,
            tier.grows_completed,
            tier.shrinks_completed,
            len(tier.replicas),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TierStats({self.name}, +{self.grows_completed}/"
            f"-{self.shrinks_completed}, x{self.replicas})"
        )


class CompletedRun:
    """Everything an analysis needs from a finished experiment.

    Exposes the same read surface the benchmarks use on a live
    :class:`ManagedSystem` — ``collector``, ``config``, ``app_tier`` /
    ``db_tier`` counters and :meth:`summary` — so the two are
    interchangeable downstream.  ``extensions`` maps an extension's name
    (``"proactive"``, ``"chaos"``, ``"deploy"``, ``"market"``,
    ``"fluid"``) to its distilled stats; extensions without stats (the
    optimizer, self-recovery) and extensions the config left off have no
    entry.
    """

    __slots__ = (
        "config",
        "collector",
        "app_tier",
        "db_tier",
        "extensions",
        "events_processed",
        "wall_time_s",
    )

    def __init__(
        self,
        config,
        collector,
        app_tier: TierStats,
        db_tier: TierStats,
        extensions: dict[str, object],
        events_processed: int,
        wall_time_s: float,
    ) -> None:
        self.config = config
        self.collector = collector
        self.app_tier = app_tier
        self.db_tier = db_tier
        self.extensions = extensions
        self.events_processed = events_processed
        self.wall_time_s = wall_time_s

    @classmethod
    def from_system(cls, system, wall_time_s: float) -> "CompletedRun":
        """Distill a finished :class:`ManagedSystem`."""
        return cls(
            config=system.config,
            collector=system.collector,
            app_tier=TierStats.of(system.app_tier),
            db_tier=TierStats.of(system.db_tier),
            extensions=system.distill(),
            events_processed=system.kernel.events_processed,
            wall_time_s=wall_time_s,
        )

    def summary(self) -> dict[str, float]:
        """Same table as :meth:`ManagedSystem.summary`."""
        return self.collector.summary(self.config.profile.duration_s)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompletedRun(seed={self.config.seed}, "
            f"{self.collector.completed_requests} completed, "
            f"{self.events_processed} events, {self.wall_time_s:.2f}s wall)"
        )
