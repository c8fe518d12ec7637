"""LAN model.

The paper's cluster is "connected through a 100 Mbps Ethernet LAN".  We model
it as a uniform-latency switch: a fixed per-message latency and a shared-link
bandwidth used for bulk transfers (software installation, database state
synchronization).  This is deliberately simple — the paper's bottleneck is
CPU, not the network — but it makes reconfiguration latencies (install +
sync) non-zero and tunable.
"""

from __future__ import annotations

from typing import Iterable


def _names(group: Iterable) -> frozenset[str]:
    """Normalize a group of nodes (or node names) to a name set."""
    return frozenset(getattr(member, "name", member) for member in group)


class Lan:
    """Uniform switched LAN.

    Chaos hooks: ``set_extra_latency`` models a degraded switch (the added
    delay applies to every message and transfer until cleared), and
    ``partition``/``reachable``/``heal`` keep partition bookkeeping so
    experiments can both cut groups apart and query the current topology.
    """

    def __init__(
        self,
        latency_s: float = 0.0002,
        bandwidth_mbps: float = 100.0,
        name: str = "lan0",
    ) -> None:
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.latency_s = latency_s
        self.bandwidth_mbps = bandwidth_mbps
        self.name = name
        #: chaos: additional per-message/transfer delay (degraded switch)
        self.extra_latency_s = 0.0
        #: one-way delay of a 1 KB message, what every request hop waits
        #: (kept current by :meth:`set_extra_latency`)
        self.hop_delay_s = self.message_delay()
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []

    def message_delay(self, payload_kb: float = 1.0) -> float:
        """One-way delay for a small message of ``payload_kb`` kilobytes."""
        if payload_kb < 0:
            raise ValueError("payload must be >= 0")
        # 100 Mbps = 12.5 MB/s = 12800 KB/s
        return (
            self.latency_s
            + self.extra_latency_s
            + payload_kb / (self.bandwidth_mbps * 128.0)
        )

    def transfer_time(self, size_mb: float) -> float:
        """Time to ship a bulk payload of ``size_mb`` megabytes."""
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        return (
            self.latency_s
            + self.extra_latency_s
            + size_mb * 8.0 / self.bandwidth_mbps
        )

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def set_extra_latency(self, extra_s: float) -> None:
        """Add ``extra_s`` to every delay (0 restores the healthy switch)."""
        if extra_s < 0:
            raise ValueError("extra latency must be >= 0")
        self.extra_latency_s = extra_s
        self.hop_delay_s = self.message_delay()

    def partition(self, group_a: Iterable, group_b: Iterable) -> None:
        """Cut ``group_a`` from ``group_b`` (nodes or node names)."""
        a, b = _names(group_a), _names(group_b)
        if a & b:
            raise ValueError("partition groups must be disjoint")
        self._partitions.append((a, b))

    def reachable(self, a, b) -> bool:
        """Can ``a`` talk to ``b`` under the current partitions?"""
        name_a = getattr(a, "name", a)
        name_b = getattr(b, "name", b)
        for left, right in self._partitions:
            if (name_a in left and name_b in right) or (
                name_a in right and name_b in left
            ):
                return False
        return True

    def heal(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    @property
    def partitioned(self) -> bool:
        return bool(self._partitions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lan({self.bandwidth_mbps} Mbps, {self.latency_s * 1e3:.2f} ms)"
