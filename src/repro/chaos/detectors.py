"""Progress-based failure detection (phi-accrual).

The legacy :class:`~repro.jade.sensors.HeartbeatSensor` asks "does the
process answer?" — ``server.running and node.up``.  Gray and fail-slow
nodes answer every such probe while serving at a crawl, so the
self-recovery manager never repairs them.  Following Hayashibara et al.'s
phi-accrual idea, this detector instead watches *service progress*
(request completions as implicit heartbeats) and accrues suspicion
as the time since the last completion stretches past the server's own
historical inter-completion interval:

    phi = log10-scaled accrual = 0.4343 * elapsed / mean_interval

A server with queued work (``pending > 0``) whose phi crosses the
threshold is suspected — regardless of what the liveness flag says.  A
second rule catches network-isolated nodes, whose work *fails fast*
instead of stalling: errors advancing while completions stand still for
``failfast_ticks`` consecutive checks is equally damning.

Both rules are scoped by *node-local* evidence, so a healthy app server
stalled behind a failed database is not collaterally repaired: phi only
accrues while CPU work is visibly stuck on the server's own node
(``active_jobs > 0``), and fail-fast only fires while the node's own CPU
completion counter is frozen (an isolated node accepts no work; a server
merely relaying downstream errors keeps burning local CPU).

Suspicions are pushed to subscribers (the self-recovery manager routes
them into the repair path) and, when tracing is on, emitted as
:class:`~repro.obs.events.DetectorSuspected` events.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulation.kernel import PeriodicTask, SimKernel

#: 1/ln(10): converts "elapsed in units of the mean interval" to the
#: log10-scaled phi of the accrual-detector literature
_PHI_SCALE = 0.4343

SuspicionListener = Callable[[object, float, str], None]


class PhiAccrualDetector:
    """Completions-as-heartbeats failure detector over a set of servers.

    ``servers_provider`` is the same callable the heartbeat sensor uses;
    anything with ``served``/``failures``/``pending`` counters (weighted
    request counts) is watchable.  Servers that are plainly dead
    (``running`` False or node down) are left to the legacy heartbeat —
    this detector exists for the failures that path cannot see.
    """

    def __init__(
        self,
        kernel: SimKernel,
        servers_provider,
        period_s: float = 1.0,
        threshold: float = 4.0,
        min_interval_s: float = 1.0,
        failfast_ticks: int = 3,
        ewma_alpha: float = 0.2,
        name: str = "phi-detector",
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if failfast_ticks < 1:
            raise ValueError("failfast_ticks must be >= 1")
        self.kernel = kernel
        self.servers_provider = servers_provider
        self.period_s = period_s
        self.threshold = threshold
        self.min_interval_s = min_interval_s
        self.failfast_ticks = failfast_ticks
        self.ewma_alpha = ewma_alpha
        self.name = name
        self.suspicions = 0
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        self._listeners: list[SuspicionListener] = []
        #: per-server state keyed by the server itself (servers hash by
        #: identity) so a pickled copy keeps its keys
        self._state: dict[object, dict] = {}
        self._task: Optional[PeriodicTask] = None

    def subscribe(self, listener: SuspicionListener) -> None:
        """``listener(server, phi, reason)`` on every new suspicion."""
        self._listeners.append(listener)

    # -- lifecycle (same contract as the sensors) ----------------------
    def on_start(self, component=None) -> None:
        if self._task is None:
            self._task = self.kernel.every(self.period_s, self._check)

    def on_stop(self, component=None) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None

    # ------------------------------------------------------------------
    def phi(self, server: object) -> float:
        """Current suspicion level for ``server`` (0.0 if unknown/healthy)."""
        st = self._state.get(server)
        if st is None or getattr(server, "pending", 0) <= 0:
            return 0.0
        elapsed = self.kernel.now - st["last_progress"]
        return _PHI_SCALE * elapsed / max(st["mean"], self.min_interval_s)

    def _check(self) -> None:
        now = self.kernel.now
        seen = set()
        for server in self.servers_provider():
            node = getattr(server, "node", None)
            if not getattr(server, "running", True) or (
                node is not None and not node.up
            ):
                continue  # plainly dead: the heartbeat sensor's job
            seen.add(server)
            served = getattr(server, "served", 0)
            failures = getattr(server, "failures", 0)
            pending = getattr(server, "pending", 0)
            cpu = getattr(node, "cpu", None)
            cpu_done = getattr(cpu, "completed", None) if cpu is not None else None
            st = self._state.get(server)
            if st is None:
                # First observation seeds the anchor (cf. the utilization
                # sampler: no delta yet, no judgement yet).
                self._state[server] = {
                    "served": served,
                    "failures": failures,
                    "cpu_done": cpu_done,
                    "last_progress": now,
                    "mean": self.min_interval_s,
                    "streak": 0,
                    "suspected": False,
                }
                continue
            # Node-local evidence: is CPU work stuck on *this* node?  A
            # server stalled behind a broken downstream dependency keeps
            # completing its own CPU slices, so both gates stay open only
            # when the node itself stopped making progress.
            cpu_stuck = cpu_done is None or (
                st["cpu_done"] is not None and cpu_done <= st["cpu_done"]
            )
            node_busy = cpu is None or cpu.active_jobs > 0
            if served > st["served"]:
                # Progress: update the learned inter-completion interval.
                interval = now - st["last_progress"]
                alpha = self.ewma_alpha
                st["mean"] = (1.0 - alpha) * st["mean"] + alpha * interval
                st["last_progress"] = now
                st["streak"] = 0
                st["suspected"] = False
            elif failures > st["failures"]:
                # Errors without completions: fail-fast evidence — but
                # only if the node's own CPU is frozen too (an isolated
                # node accepts no work; a relay of downstream errors
                # still burns local cycles).
                st["streak"] = st["streak"] + 1 if cpu_stuck else 0
            elif pending <= 0:
                # Idle with an empty queue: no evidence either way.
                st["last_progress"] = now
                st["streak"] = 0
            st["served"] = served
            st["failures"] = failures
            st["cpu_done"] = cpu_done
            if st["suspected"]:
                continue
            elapsed = now - st["last_progress"]
            phi = _PHI_SCALE * elapsed / max(st["mean"], self.min_interval_s)
            if st["streak"] >= self.failfast_ticks:
                st["suspected"] = True
                self._suspect(server, node, phi, "fail-fast")
            elif pending > 0 and node_busy and cpu_stuck and phi >= self.threshold:
                st["suspected"] = True
                self._suspect(server, node, phi, "phi")
        # Forget servers that left the managed set (repaired/removed).
        if len(self._state) > len(seen):
            self._state = {
                server: st for server, st in self._state.items() if server in seen
            }

    def _suspect(self, server, node, phi: float, reason: str) -> None:
        self.suspicions += 1
        if self.tracer is not None:
            from repro.obs.events import DetectorSuspected

            self.tracer.emit(
                DetectorSuspected(
                    self.kernel.now,
                    detector=self.name,
                    server=getattr(server, "name", repr(server)),
                    node=node.name if node is not None else "",
                    phi=phi,
                    reason=reason,
                )
            )
        for listener in list(self._listeners):
            listener(server, phi, reason)
