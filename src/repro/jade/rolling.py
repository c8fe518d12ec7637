"""Rolling reconfiguration of static bindings.

mod_jk's worker list is *static*: rebinding an Apache requires stopping it
(§5.1).  When a whole web tier must be repointed — e.g. a Tomcat replica
was added behind several Apaches — doing them all at once would black out
the site.  This actuator performs the paper's stop/unbind/bind/start
sequence **one frontend at a time**, waiting out each restart, so the
remaining replicas keep serving (their balancer skips the one that is
down).

This composes the paper's actuator vocabulary ("updating connections
between the tiers", §3.4) into a higher-level operation, using only the
uniform component interface.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.fractal.component import Component
from repro.fractal.interfaces import Interface
from repro.simulation.kernel import Signal, SimKernel


class RollingRebind:
    """Sequentially repoint a set of frontends' client interfaces.

    A frontend that was already stopped is rebound without the restart
    dance: no startup wait, no settle, no ``restarted`` increment — the
    rolling pass must never *start* a deliberately stopped replica.

    ``on_stopped`` (when given) runs on each frontend while it is down,
    between unbind and rebind — the hook the deploy subsystem uses to
    swap the server version during the outage window.

    :meth:`start` posts :meth:`_next`, which takes a frontend down and
    waits out its startup; :meth:`_restart` starts it and waits out the
    settle before the next :meth:`_next`.  :meth:`stop` (a cancelled
    deployment) never strands a frontend stopped and unbound.
    """

    def __init__(
        self,
        kernel: SimKernel,
        frontends: Sequence[Component],
        itf_name: str,
        targets: Sequence[Interface],
        settle_s: float = 1.0,
        on_stopped: Optional[Callable[[Component], None]] = None,
    ) -> None:
        if not frontends:
            raise ValueError("need at least one frontend")
        if not targets:
            raise ValueError("need at least one target")
        self.kernel = kernel
        self.frontends = list(frontends)
        self.itf_name = itf_name
        self.targets = list(targets)
        self.settle_s = settle_s
        self.on_stopped = on_stopped
        self.done = Signal(kernel)
        self.restarted = 0
        #: the frontend the pass is at, whether it was running when the
        #: pass reached it, and whether it is back in service
        self._index = 0
        self._was_started = False
        self._restored = True
        #: set by :meth:`stop`: every later step is a no-op
        self._stopped = False

    def start(self) -> "RollingRebind":
        """Begin the rolling sequence; ``done`` fires when every frontend
        has been restarted against the new target set."""
        self.kernel.post(self._next)
        return self

    def stop(self) -> None:
        """Abort the pass: later steps do nothing, and a frontend caught
        mid-restart is rebound and started again."""
        if self._stopped:
            return
        self._stopped = True
        if not self._restored:
            self._restore()

    def _rebind(self, frontend: Component) -> None:
        frontend.binding_controller.unbind_all(self.itf_name)
        for target in self.targets:
            frontend.bind(self.itf_name, target)

    def _restore(self) -> None:
        # Never leave the current frontend stopped+unbound.
        self._restored = True
        frontend = self.frontends[self._index]
        if not frontend.binding_controller.bound_instances(self.itf_name):
            self._rebind(frontend)
        if self._was_started and not frontend.lifecycle_controller.is_started():
            frontend.start()

    def _next(self) -> None:
        if self._stopped:
            return
        while self._index < len(self.frontends):
            frontend = self.frontends[self._index]
            self._was_started = frontend.lifecycle_controller.is_started()
            self._restored = False
            frontend.stop()
            self._rebind(frontend)
            if self.on_stopped is not None:
                self.on_stopped(frontend)
            if self._was_started:
                startup = getattr(frontend.content, "startup_time_s", 1.0)
                self.kernel.post_in(startup, self._restart)
                return
            # Deliberately stopped replica: repoint only, never start it,
            # and skip the restart/settle waits.
            self._restored = True
            self._index += 1
        if not self.done.fired:
            self.done.succeed(self)

    def _restart(self) -> None:
        if self._stopped:
            return
        self.frontends[self._index].start()
        self._restored = True
        self.restarted += 1
        self._index += 1
        # Let the restarted replica take load before touching the next.
        self.kernel.post_in(self.settle_s, self._next)
