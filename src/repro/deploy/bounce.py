"""Bounce strategies.

A *bounce* moves the replicas of a tier from one server version to
another.  The four strategies are kernel state machines composed from the
existing actuator vocabulary — Fractal lifecycle/binding controllers,
:class:`~repro.jade.rolling.RollingRebind`, and the tier manager's
grow/shrink sequences — trading blackout risk against spare-node demand
(see :data:`~repro.deploy.scenario.STRATEGIES` for the ladder).

Replicas being bounced are quarantined through
``TierManager.enter_maintenance`` so the heartbeat sensor does not
mistake a deliberately stopped server for a crash and "repair" it
mid-bounce.  The ``observe`` callback is invoked after every
capacity-changing step: it is how the deploy manager records
capacity-in-flight (serving/total) for the scorecard's blackout and
minimum-capacity numbers.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from repro.deploy.versions import (
    ServerVersion,
    apply_version,
    clear_version,
    version_label,
)
from repro.jade.rolling import RollingRebind
from repro.simulation.kernel import Signal

#: retry budget for grow/shrink sequencing (seconds of 1 s polls); hitting
#: it means the pool stayed exhausted or the tier stayed busy for this
#: long — the bounce gives up rather than spin forever
_RETRY_BUDGET = 120


class BounceOperation:
    """One bounce of a tier to ``version`` (None = back to stable).

    ``limit`` restricts the pass to the first N stale replicas — how the
    canary phase bounces only the canary cohort.  ``done`` fires when the
    pass ends (``completed`` distinguishes success from a failed grow or
    shrink), after every quarantine is lifted, so an ended bounce never
    leaves the heartbeat sensor blind to a replica.

    :meth:`start` posts :meth:`_begin`, which lays the strategy out as
    plan steps; :meth:`_resume` runs them until one arms a kernel hop (a
    sleep, or a wait on a rebind's ``done``) and returns True, and the
    hop calls :meth:`_resume` again.  A step that repeats (a retry, a
    poll) re-queues itself before arming its hop.
    """

    def __init__(
        self,
        kernel,
        tier,
        version: Optional[ServerVersion],
        strategy: str,
        rng=None,
        settle_s: float = 2.0,
        limit: Optional[int] = None,
        observe: Optional[Callable[[], None]] = None,
        event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.tier = tier
        self.version = version
        self.strategy = strategy
        self.rng = rng
        self.settle_s = settle_s
        self.limit = limit
        self.observe = observe
        self.event = event
        self.done = Signal(kernel)
        self.completed = False
        self.error: Optional[str] = None
        self.bounced = 0
        self._quarantined: set[str] = set()
        #: plan steps still to run: (method, *args)
        self._plan: deque = deque()
        #: component names before the running grow (see :meth:`_grown`)
        self._prior: set[str] = set()

    # ------------------------------------------------------------------
    def start(self) -> "BounceOperation":
        self.kernel.post(self._begin)
        return self

    def _begin(self) -> None:
        self._plan.extend(getattr(self, f"_plan_{self.strategy}")(self._targets()))
        self._resume()

    def _resume(self, _signal=None) -> None:
        try:
            plan = self._plan
            while plan:
                step, *args = plan.popleft()
                if step(*args):
                    return
            self.completed = True
        except RuntimeError as exc:
            # A failed grow/shrink (pool exhausted, tier wedged) ends the
            # bounce; the deploy manager reads ``error`` off the result.
            self.tier.current_version = None  # a versioned grow's reset
            self.error = str(exc)
            if self.event is not None:
                self.event(f"bounce-failed: {exc}")
        for name in list(self._quarantined):
            self._unquarantine(name)
        if not self.done.fired:
            self.done.succeed(self)

    def _sleep(self, duration: float, *again: tuple) -> bool:
        """Arm a hop back to :meth:`_resume`; the ``again`` steps go first."""
        self._plan.extendleft(reversed(again))
        self.kernel.post_in(duration, self._resume)
        return True

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    def _targets(self) -> list:
        """Stale replicas: those not already on the target version."""
        label = version_label(self.version)
        stale = [
            r for r in self.tier.replicas if version_label(r.version) != label
        ]
        return stale[: self.limit] if self.limit is not None else stale

    def _apply(self, record, _component=None) -> None:
        if self.version is None:
            clear_version(record)
        else:
            apply_version(record, self.version, rng=self.rng)

    def _quarantine(self, name: str) -> None:
        self.tier.enter_maintenance(name)
        self._quarantined.add(name)

    def _unquarantine(self, name: str) -> None:
        self.tier.leave_maintenance(name)
        self._quarantined.discard(name)

    def _observe(self) -> None:
        if self.observe is not None:
            self.observe()

    def _settle(self) -> bool:
        return self.settle_s > 0 and self._sleep(self.settle_s)

    def _in_place(self, record) -> bool:
        """Stop/swap/start one replica where it sits, via RollingRebind
        (re-pins its static bindings while down, applies the version in
        the outage window, waits out the restart)."""
        component = record.component
        self._quarantine(component.name)
        self._plan.appendleft((self._in_place_done, record))
        template = self.tier.bindings_template
        if template:
            rebind = RollingRebind(
                self.kernel,
                [component],
                template[0][0],
                [target for _, target in template],
                settle_s=0.0,
                on_stopped=partial(self._apply, record),
            )
            rebind.start()
            rebind.done.add_callback(self._resume)
            return True
        component.stop()
        self._apply(record)
        startup = getattr(component.content, "startup_time_s", 1.0)
        return self._sleep(startup, (component.start,))

    def _in_place_done(self, record) -> None:
        self._unquarantine(record.component.name)
        self.bounced += 1
        self._observe()

    def _grow_steps(self) -> list:
        """Grow one replica stamped with the target version, retrying
        while the tier refuses, and wait until it is active."""
        return [(self._stamp,), (self._retry, 0, "grow"), (self._idle,), (self._grown,)]

    def _shrink_steps(self, record) -> list:
        """Retire ``record``, retrying while the tier refuses."""
        return [(self._retry, 0, "shrink", record), (self._idle,)]

    def _stamp(self) -> None:
        self._prior = {r.component.name for r in self.tier.replicas}
        self.tier.current_version = self.version

    def _retry(self, tries: int, operation: str, *args) -> bool:
        """Start the tier's ``operation``, polling each second while it
        is refused, for at most ``_RETRY_BUDGET`` tries."""
        if tries == _RETRY_BUDGET:
            raise RuntimeError(
                f"{self.tier.tier_name}: {operation} never started"
            )
        if getattr(self.tier, operation)(*args):
            return False
        return self._sleep(1.0, (self._retry, tries + 1, operation, *args))

    def _idle(self) -> bool:
        """Poll each second until the tier's reconfiguration ends."""
        return self.tier.busy and self._sleep(1.0, (self._idle,))

    def _grown(self) -> None:
        self.tier.current_version = None
        new = [
            r for r in self.tier.replicas if r.component.name not in self._prior
        ]
        if not new:
            raise RuntimeError(f"{self.tier.tier_name}: grow failed")
        self.bounced += 1

    # ------------------------------------------------------------------
    # Strategies: each lays the pass out as plan steps
    # ------------------------------------------------------------------
    def _plan_brutal(self, targets: list) -> list:
        """Stop every stale replica at once, swap versions, restart all
        after one startup wait.  The whole tier blacks out (the balancer
        fails requests fast: "no live backend") — the baseline the other
        strategies are measured against."""
        return [(self._brutal_stop, targets)] if targets else []

    def _brutal_stop(self, targets: list) -> bool:
        for record in targets:
            self._quarantine(record.component.name)
        for record in targets:
            record.component.stop()
            self._apply(record)
        self._observe()  # the blackout, on the capacity timeline
        startup = max(
            getattr(r.component.content, "startup_time_s", 1.0) for r in targets
        )
        return self._sleep(startup, (self._brutal_start, targets))

    def _brutal_start(self, targets: list) -> None:
        for record in targets:
            record.component.start()
            self.bounced += 1
        for record in targets:
            self._unquarantine(record.component.name)
        self._observe()

    def _plan_downthenup(self, targets: list) -> list:
        """Rolling in-place restart, one replica at a time: capacity dips
        by one replica per step, never to zero."""
        plan = []
        for record in targets:
            plan += [(self._in_place, record), (self._settle,)]
        return plan

    def _plan_crossover(self, targets: list) -> list:
        """Grow one new-version replica, retire one stale replica, repeat:
        serving capacity never drops below the fleet size (needs one spare
        node)."""
        plan = []
        for old in targets:
            plan += self._grow_steps() + [(self._observe,)]
            plan += self._shrink_steps(old) + [(self._observe,), (self._settle,)]
        return plan

    def _plan_upthendown(self, targets: list) -> list:
        """Grow the full new-version fleet first, then retire every stale
        replica: capacity only ever grows during the swap (needs N spare
        nodes)."""
        plan = []
        for _ in targets:
            plan += self._grow_steps() + [(self._observe,)]
        for old in targets:
            plan += self._shrink_steps(old) + [(self._observe,)]
        return plan
