"""Versioned server configurations.

A :class:`ServerVersion` is a frozen, picklable description of one pushed
server configuration — a pure value, like
:class:`~repro.chaos.faults.FaultSpec`, so scenarios carrying one flow
through ``describe_config`` and the process-pool runner unchanged.

The performance model of a push reuses the chaos degradation hooks: a
version with ``demand_factor > 1`` makes every request on that replica
cost proportionally more CPU (implemented as ``node.degrade(1 /
demand_factor)`` — the same mechanism as a fail-slow fault, seen from the
opposite direction: the *software* got slower, not the hardware), and a
version with ``error_rate > 0`` makes the server 500 that fraction of
admitted requests (``LegacyServer.fault_rate``).  The stable baseline is
the absence of a version: ``ReplicaRecord.version is None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServerVersion:
    """One pushed server configuration and its behavioural deltas."""

    label: str
    #: multiplier on the effective service demand of every request served
    #: by a replica running this version (1.0 = performance-neutral push)
    demand_factor: float = 1.0
    #: probability an admitted request fails with a 500 (a bad push's
    #: servlet bug); 0.0 = clean push
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("version label must be non-empty")
        if self.demand_factor <= 0.0:
            raise ValueError("demand_factor must be positive")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")


def version_label(version: Optional[ServerVersion]) -> Optional[str]:
    """The label of ``version``, or None for the stable baseline."""
    return None if version is None else version.label


def apply_version(record, version: ServerVersion, rng=None) -> None:
    """Install ``version``'s effects on a (stopped or running) replica.

    ``rng`` supplies the per-request error draws (the deploy subsystem's
    seeded stream); without one an ``error_rate > 0`` version raises, so
    a misconfigured wiring fails loudly instead of silently shipping a
    clean push.
    """
    if version.demand_factor != 1.0:
        record.node.degrade(1.0 / version.demand_factor)
    else:
        record.node.restore()
    server = getattr(record.component.content, "server", None)
    if server is not None:
        server.version_label = version.label
        server.fault_rate = version.error_rate
        if version.error_rate > 0.0:
            if rng is None:
                raise ValueError(
                    f"version {version.label!r} has error_rate > 0 but no rng"
                )
            server.fault_rng = rng.random
        else:
            server.fault_rng = None
    record.version = version


def clear_version(record) -> None:
    """Roll a replica back to the stable baseline (undo every effect)."""
    record.node.restore()
    server = getattr(record.component.content, "server", None)
    if server is not None:
        server.version_label = None
        server.fault_rate = 0.0
        server.fault_rng = None
    record.version = None
