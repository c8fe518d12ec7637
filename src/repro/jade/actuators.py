"""Actuators.

"Actuators represent the individual mechanisms necessary to implement
reconfiguration operations, e.g. allocating a new node to a cluster of
replicas, adding/removing a replica to the cluster of replicated servers,
updating connections between the tiers." (§3.4)

"Thanks to the uniform management interface provided by Jade, the actuators
are generic, since increasing or decreasing the number of replicas of an
application is implemented as adding or removing components in the
application structure." (§4.1)

:class:`TierManager` bundles those mechanisms for one replicated tier.  It
is generic: the same code resizes the Tomcat tier (bind/unbind on PLB's
``workers`` interface) and the MySQL tier (bind/unbind on C-JDBC's
``backends`` interface, where the wrapper performs the recovery-log
synchronization).  The paper's grow sequence — allocate node, install
software if necessary, reconcile state, integrate with the load balancer —
is implemented verbatim, with simulated durations.

:class:`BottleneckActuator` resizes one of several tiers: the actuator of
the latency-SLO loop, whose reading (end-to-end latency) names no tier.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cluster.allocator import ClusterManager, NoFreeNodeError
from repro.cluster.installer import SoftwareInstallationService
from repro.cluster.node import Node
from repro.fractal.component import Component
from repro.jade.sensors import UtilizationSampler
from repro.metrics.aggregates import left_sum
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import SimKernel

ReadyCheck = Callable[["ReplicaRecord"], bool]
#: a value that changes whenever some replica's ready check may answer
#: differently (compared with ``==``); required with a ready check
ReadyVersion = Callable[[], object]


class ReplicaRecord:
    """One replica of a managed tier."""

    __slots__ = ("component", "node", "binding_instance", "version")

    def __init__(self, component: Component, node: Node, binding_instance: Optional[str]):
        self.component = component
        self.node = node
        self.binding_instance = binding_instance
        #: server configuration version (None = stable baseline; set by
        #: the deploy subsystem when the replica runs a pushed version)
        self.version = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Replica {self.component.name} on {self.node.name}>"


class TierManager:
    """Generic resize/repair actuator for one replicated tier."""

    def __init__(
        self,
        kernel: SimKernel,
        tier_name: str,
        composite: Component,
        balancer: Component,
        balancer_itf: str,
        replica_itf: str,
        factory: Callable[..., Component],
        cluster: ClusterManager,
        installer: Optional[SoftwareInstallationService] = None,
        package: Optional[str] = None,
        replica_attributes: Optional[dict[str, Any]] = None,
        bindings_template: Optional[list[tuple[str, Any]]] = None,
        factory_context: Optional[dict[str, Any]] = None,
        collector: Optional[MetricsCollector] = None,
        ready_check: Optional[ReadyCheck] = None,
        ready_version: Optional[ReadyVersion] = None,
        drain_delay_s: float = 1.0,
        arbitration: Optional[object] = None,
        name_prefix: Optional[str] = None,
    ) -> None:
        if (ready_check is None) != (ready_version is None):
            raise ValueError("ready_check and ready_version go together")
        self.kernel = kernel
        self.tier_name = tier_name
        self.composite = composite
        self.balancer = balancer
        self.balancer_itf = balancer_itf
        self.replica_itf = replica_itf
        self.factory = factory
        self.cluster = cluster
        self.installer = installer
        self.package = package
        self.replica_attributes = dict(replica_attributes or {})
        self.bindings_template = list(bindings_template or [])
        self.factory_context = dict(factory_context or {})
        self.collector = collector
        self.ready_check = ready_check
        self.ready_version = ready_version
        self.drain_delay_s = drain_delay_s
        self.arbitration = arbitration
        self.name_prefix = name_prefix or tier_name
        self.replicas: list[ReplicaRecord] = []
        self.busy = False
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        #: component names under a planned bounce (see
        #: :meth:`enter_maintenance`)
        self._maintenance: set[str] = set()
        #: bumped at every change of ``replicas`` or ``_maintenance``
        self.members_version = 0
        #: the kept ``active_nodes()`` list and the key it was built at
        self._active: list[Node] = []
        self._active_key: object = None
        #: version stamped on replicas grown from now on (None = stable)
        self.current_version = None
        #: optional hook applied to each newly active replica record
        #: (the deploy subsystem installs the version's effects here)
        self.version_applier: Optional[Callable[[ReplicaRecord], None]] = None
        self._next_id = 1
        #: the running grow or shrink (one at a time, under ``busy``): its
        #: node, new component, replica record, name, trace cause, start
        self._op_node = self._op_component = self._op_record = None
        self._op_name, self._op_cause, self._op_start_t = "", None, 0.0
        self.grows_completed = 0
        self.shrinks_completed = 0
        self.repairs_completed = 0
        self.grow_failures = 0
        #: callbacks fired when a reconfiguration completes (the control
        #: loop resets its moving average here: samples taken against the
        #: previous configuration no longer describe the system)
        self.on_reconfigured: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    def nodes(self) -> list[Node]:
        return [r.node for r in self.replicas]

    @property
    def maintenance(self) -> frozenset[str]:
        """Component names under a planned bounce: excluded from
        ``servers()``/``active_nodes()`` so the heartbeat sensor does not
        "repair" a replica the deploy subsystem stopped on purpose."""
        return frozenset(self._maintenance)

    def enter_maintenance(self, name: str) -> None:
        """Quarantine replica ``name`` for a planned bounce."""
        self._maintenance.add(name)
        self.members_version += 1

    def leave_maintenance(self, name: str) -> None:
        """Release replica ``name`` from quarantine (a no-op if it is not
        quarantined)."""
        self._maintenance.discard(name)
        self.members_version += 1

    def active_nodes(self) -> list[Node]:
        """Nodes of replicas that are actually serving (a database replica
        replaying the recovery log is excluded: its CPU is saturated by the
        synchronization, not by client load, and including it would bias the
        probe into re-triggering growth; replicas quarantined for a planned
        bounce are excluded for the same reason).

        Read every second by the probes and the fluid engine, so the list
        is kept: it is rebuilt only when ``members_version`` (bumped
        wherever ``replicas`` or the quarantine changes) or
        ``ready_version()`` moved since it was built.  Callers must not
        mutate the list."""
        check = self.ready_check
        if check is None:
            key = self.members_version
        else:
            key = (self.members_version, self.ready_version())
        if key != self._active_key:
            quarantined = self._maintenance
            records = [
                r for r in self.replicas if r.component.name not in quarantined
            ]
            if check is not None:
                records = [r for r in records if check(r)]
            self._active = [r.node for r in records]
            self._active_key = key
        return self._active

    def components(self) -> list[Component]:
        return [r.component for r in self.replicas]

    def servers(self) -> list[object]:
        """The legacy server behind each replica (for heartbeat sensors).
        Replicas under planned maintenance are skipped: a deliberately
        stopped server must not trip the failure detector into a spurious
        repair mid-bounce."""
        return [
            r.component.content.server
            for r in self.replicas
            if getattr(r.component.content, "server", None) is not None
            and r.component.name not in self._maintenance
        ]

    # ------------------------------------------------------------------
    def adopt(self, component: Component, node: Node, binding_instance: Optional[str]) -> None:
        """Register an initially-deployed replica with the manager."""
        if any(r.component is component for r in self.replicas):
            raise ValueError(f"{component.name} already managed")
        self.replicas.append(ReplicaRecord(component, node, binding_instance))
        self.members_version += 1
        self._next_id = max(self._next_id, len(self.replicas) + 1)
        self._record_count()

    # ------------------------------------------------------------------
    # Grow
    # ------------------------------------------------------------------
    def grow(self) -> bool:
        """Start adding one replica.  Returns False (and does nothing) if a
        reconfiguration is already running, arbitration denies the
        operation, or no node is free; True once the asynchronous sequence
        has started."""
        if self.busy:
            return False
        if self.arbitration is not None and not self.arbitration.request(
            "grow", self.tier_name
        ):
            return False
        try:
            node = self.cluster.allocate(f"tier:{self.tier_name}")
        except NoFreeNodeError:
            self.grow_failures += 1
            self._event("grow-failed: no free node")
            if self.tracer is not None:
                from repro.obs.events import NodeFailed

                self.tracer.emit(
                    NodeFailed(
                        self.kernel.now,
                        node="",
                        owner=f"tier:{self.tier_name}",
                        reason="no-free-node",
                    )
                )
            return False
        self.busy = True
        start_seq = None
        if self.tracer is not None:
            from repro.obs.events import NodeAllocated, ReconfigStarted

            self.tracer.emit(
                NodeAllocated(
                    self.kernel.now,
                    node=node.name,
                    owner=f"tier:{self.tier_name}",
                )
            )
            start_seq = self.tracer.emit(
                ReconfigStarted(
                    self.kernel.now,
                    tier=self.tier_name,
                    operation="grow",
                    replicas=self.replica_count,
                )
            )
        self._op_node, self._op_cause = node, start_seq
        self._op_start_t = self.kernel.now
        self.kernel.post(self._grow_begin)
        return True

    # One kernel event per step: _grow_begin (posted) -> install ->
    # _grow_installed -> startup -> _grow_started -> 1 s _grow_poll.  An
    # exception in any step, or a failed install, ends in _grow_failed.
    def _grow_begin(self) -> None:
        node = self._op_node
        self._op_name = f"{self.name_prefix}{self._next_id}"
        self._next_id += 1
        self._event(f"grow: allocating {node.name} for {self._op_name}")
        try:
            # 1. Install the software if necessary (§4.1).
            if self.installer is not None and self.package is not None:
                self.installer.install(self.package, node).add_callback(
                    self._grow_installed
                )
            else:
                self._grow_create()
        except Exception as exc:  # noqa: BLE001 - surfaced as an event
            self._grow_failed(exc)

    def _grow_installed(self, installed) -> None:
        try:
            if installed.error is not None:
                raise installed.error
            self._grow_create()
        except Exception as exc:  # noqa: BLE001 - surfaced as an event
            self._grow_failed(exc)

    def _grow_create(self) -> None:
        # 2. Create and wire the replica component.
        component = self.factory(
            self._op_name,
            dict(self.replica_attributes),
            node=self._op_node,
            **self.factory_context,
        )
        self.composite.content_controller.add(component)
        for itf_name, target in self.bindings_template:
            component.bind(itf_name, target)
        self._op_component = component
        # 3. Start the legacy server (simulated start-script duration).
        startup = getattr(component.content, "startup_time_s", 1.0)
        self.kernel.post_in(startup, self._grow_started)

    def _grow_started(self) -> None:
        try:
            component = self._op_component
            component.start()
            # 4. Integrate with the load balancer; for the database tier
            #    the wrapper triggers recovery-log state reconciliation.
            instance = self.balancer.bind(
                self.balancer_itf, component.get_interface(self.replica_itf)
            )
            record = ReplicaRecord(component, self._op_node, instance)
            record.version = self.current_version
            self.replicas.append(record)
            self.members_version += 1
            if record.version is not None and self.version_applier is not None:
                self.version_applier(record)
            self._op_record = record
            self._grow_ready()
        except Exception as exc:  # noqa: BLE001 - surfaced as an event
            self._grow_failed(exc)

    def _grow_poll(self) -> None:
        try:
            self._grow_ready()
        except Exception as exc:  # noqa: BLE001 - surfaced as an event
            self._grow_failed(exc)

    def _grow_ready(self) -> None:
        # 5. Wait until the replica is actually serving (DB sync).
        if self.ready_check is not None and not self.ready_check(self._op_record):
            self.kernel.post_in(1.0, self._grow_poll)
            return
        self.grows_completed += 1
        self._record_count()
        self._event(f"grow: {self._op_name} active on {self._op_node.name}")
        self._trace_completed("grow", 1)
        self._notify_reconfigured()
        self._end("grow")

    def _grow_failed(self, exc: Exception) -> None:
        self.grow_failures += 1
        self._event(f"grow-failed: {exc}")
        try:
            self.cluster.release(self._op_node)
        except ValueError:
            pass
        self._trace_completed(
            "grow", 0, released=self._op_node, ok=False, error=str(exc)
        )
        self._end("grow")

    def _end(self, operation: str) -> None:
        """Close the running reconfiguration (the sequence's ``finally``)."""
        self.busy = False
        if self.arbitration is not None:
            self.arbitration.complete(operation, self.tier_name)

    def _trace_completed(
        self, operation, replica_delta, released=None, ok=True, error=""
    ) -> None:
        if self.tracer is None:
            return
        from repro.obs.events import NodeReleased, ReconfigCompleted

        now = self.kernel.now
        if released is not None:
            self.tracer.emit(
                NodeReleased(
                    now,
                    node=released.name,
                    owner=f"tier:{self.tier_name}",
                    cause=self._op_cause,
                )
            )
        self.tracer.emit(
            ReconfigCompleted(
                now,
                tier=self.tier_name,
                operation=operation,
                duration_s=now - self._op_start_t,
                replica_delta=replica_delta,
                replicas=self.replica_count,
                ok=ok,
                error=error,
                cause=self._op_cause,
            )
        )

    # ------------------------------------------------------------------
    # Shrink
    # ------------------------------------------------------------------
    def shrink(self, record: Optional[ReplicaRecord] = None) -> bool:
        """Start removing a replica — the most recently added one by
        default, or a specific ``record`` (how the deploy subsystem
        retires old-version replicas during a crossover bounce)."""
        if self.busy or len(self.replicas) <= 1:
            return False
        if record is not None and record not in self.replicas:
            return False
        if self.arbitration is not None and not self.arbitration.request(
            "shrink", self.tier_name
        ):
            return False
        self.busy = True
        before = self.replica_count
        if record is None:
            record = self.replicas.pop()
        else:
            self.replicas.remove(record)
        self.members_version += 1
        start_seq = None
        if self.tracer is not None:
            from repro.obs.events import ReconfigStarted

            start_seq = self.tracer.emit(
                ReconfigStarted(
                    self.kernel.now,
                    tier=self.tier_name,
                    operation="shrink",
                    replicas=before,
                )
            )
        self._op_record, self._op_cause = record, start_seq
        self._op_start_t = self.kernel.now
        self.kernel.post(self._shrink_begin)
        return True

    # The shrink: _shrink_begin (posted) -> drain -> _shrink_drained.
    def _shrink_begin(self) -> None:
        record = self._op_record
        self._event(f"shrink: retiring {record.component.name}")
        # 1. Unbind from the load balancer (checkpoint for a DB replica).
        if record.binding_instance is not None:
            self.balancer.unbind(record.binding_instance)
        # 2. Let in-flight work drain, then stop the replica.
        self.kernel.post_in(self.drain_delay_s, self._shrink_drained)

    def _shrink_drained(self) -> None:
        record = self._op_record
        record.component.stop()
        self.composite.content_controller.remove(record.component)
        # 3. Release the node if no longer used (software stays
        #    installed: "deploy the required software ... if necessary").
        self.cluster.release(record.node)
        self.shrinks_completed += 1
        self._record_count()
        self._event(f"shrink: {record.component.name} released {record.node.name}")
        self._trace_completed("shrink", -1, released=record.node)
        self._notify_reconfigured()
        self._end("shrink")

    # ------------------------------------------------------------------
    # Repair (used by the self-recovery manager)
    # ------------------------------------------------------------------
    def repair(self, failed_component: Component) -> bool:
        """Replace a crashed replica: clean up the architecture, then grow
        back onto a fresh node."""
        record = next(
            (r for r in self.replicas if r.component is failed_component), None
        )
        if record is None:
            return False
        if self.arbitration is not None and not self.arbitration.request(
            "repair", self.tier_name
        ):
            return False
        self.replicas.remove(record)
        self.members_version += 1
        self._record_count()
        self._event(f"repair: {record.component.name} failed on {record.node.name}")
        failed_seq = None
        if self.tracer is not None:
            from repro.obs.events import NodeFailed

            failed_seq = self.tracer.emit(
                NodeFailed(
                    self.kernel.now,
                    node=record.node.name,
                    owner=f"tier:{self.tier_name}",
                    reason="crashed",
                )
            )
        # Clean the management layer: mark failed, drop bindings, remove.
        record.component.lifecycle_controller.fail()
        if record.binding_instance is not None:
            try:
                self.balancer.unbind(record.binding_instance)
            except Exception:  # noqa: BLE001 - binding may be half-dead
                pass
        record.component.lifecycle_controller.stop()
        self.composite.content_controller.remove(record.component)
        self.cluster.discard(record.node)
        if self.arbitration is not None:
            self.arbitration.complete("repair", self.tier_name)
        if failed_seq is not None:
            # The replacement grow is caused by the node failure.
            self.tracer.push_cause(failed_seq)
            try:
                started = self.grow()
            finally:
                self.tracer.pop_cause()
        else:
            started = self.grow()
        if started:
            self.repairs_completed += 1
        return started

    # ------------------------------------------------------------------
    def _notify_reconfigured(self) -> None:
        for callback in list(self.on_reconfigured):
            callback()

    def _record_count(self) -> None:
        if self.collector is not None:
            self.collector.record_replicas(
                self.tier_name, self.kernel.now, self.replica_count
            )

    def _event(self, description: str) -> None:
        if self.collector is not None:
            self.collector.record_reconfiguration(
                self.kernel.now, f"[{self.tier_name}] {description}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TierManager {self.tier_name} x{self.replica_count}>"


class BottleneckActuator:
    """Resize operations over several tiers, for a reading that names
    none (end-to-end latency): a grow goes to the idle tier whose nodes
    show the highest CPU, a shrink to the least-utilized idle tier above
    one replica.  ``on_reconfigured`` fires when a resize *starts*, so the
    loop's window restarts with the new configuration."""

    def __init__(self, tiers: list[TierManager]) -> None:
        if not tiers:
            raise ValueError("need at least one tier to manage")
        self.tiers = list(tiers)
        self._sampler = UtilizationSampler()
        self.on_reconfigured: list[Callable[[], None]] = []

    @property
    def replica_count(self) -> int:
        return sum(t.replica_count for t in self.tiers)

    def on_start(self) -> None:
        """Take a first look at every tier's nodes when the loop starts: a
        first look reads 0.0, so without it the first resize would compare
        tiers that all read 0.0 and pick the first listed."""
        for tier in self.tiers:
            self.utilization(tier)

    def utilization(self, tier: TierManager) -> float:
        """Mean CPU of the tier's live serving nodes since the last look."""
        nodes = [n for n in tier.active_nodes() if n.up]
        if not nodes:
            return 0.0
        return left_sum(self._sampler.sample(n) for n in nodes) / len(nodes)

    def grow(self) -> bool:
        idle = [t for t in self.tiers if not t.busy]
        return bool(idle) and self._started(max(idle, key=self.utilization).grow())

    def shrink(self) -> bool:
        idle = [t for t in self.tiers if not t.busy and t.replica_count > 1]
        return bool(idle) and self._started(min(idle, key=self.utilization).shrink())

    def _started(self, ok: bool) -> bool:
        if ok:
            for callback in list(self.on_reconfigured):
                callback()
        return ok
