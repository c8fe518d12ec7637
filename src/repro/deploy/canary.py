"""Canary analysis and the deploy manager.

:class:`DeployManager` is the autonomic deployment loop: grow the fleet,
bounce a canary cohort to the new version, let the
:class:`CanaryController` compare it against the stable fleet over a
decision window, then either promote (bounce the rest of the fleet with
the scenario's strategy) or roll back (bounce the canaries back to
stable).  It shares the reactive loops' inhibition lock — a deployment
inhibits threshold churn exactly like any other reconfiguration — and
emits typed tracer events (:class:`~repro.obs.events.DeployStarted`,
:class:`~repro.obs.events.CanaryVerdict`,
:class:`~repro.obs.events.RollbackTriggered`) so a verdict is explainable
after the fact.

Traffic routing: the load balancer spreads load uniformly over live
replicas, so bouncing ``canary_replicas`` of ``fleet`` to the new
version routes that fraction of traffic through it — no balancer
changes needed.  Measurement taps sit on the servers themselves
(``LegacyServer.request_observer``), so the cohorts are attributed
exactly, not statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.deploy.bounce import BounceOperation
from repro.deploy.scenario import DeployScenario
from repro.deploy.versions import version_label

#: how long the fleet pre-grow may take before the manager proceeds with
#: whatever capacity it has (the deployment must not stall forever)
_GROW_BUDGET = 120


class _Cohort:
    """One measured cohort (canary or stable): the request observer of
    each of its servers, summing the requests' weights and latencies."""

    __slots__ = ("kernel", "ok", "failed", "latency")

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.ok = 0
        self.failed = 0
        self.latency = 0.0

    def __call__(self, request, ok: bool) -> None:
        weight = getattr(request, "weight", 1)
        if ok:
            self.ok += weight
            issued = getattr(request, "issued_at", None)
            if issued is not None:
                self.latency += (self.kernel.now - issued) * weight
        else:
            self.failed += weight

    def rates(self) -> tuple:
        """(requests, error rate, mean latency); NaN where undefined."""
        total = self.ok + self.failed
        err = self.failed / total if total else float("nan")
        latency = self.latency / self.ok if self.ok else float("nan")
        return total, err, latency


class CanaryController:
    """Measures canary vs stable cohorts at the servers and rules.

    :meth:`measure` installs per-server request observers and posts
    :meth:`_close` after ``window_s``, which removes them, rules, and
    hands the verdict dict (also kept on :attr:`verdict`) to the caller.
    """

    def __init__(self, kernel, tier, scenario: DeployScenario) -> None:
        self.kernel = kernel
        self.tier = tier
        self.scenario = scenario
        self.verdict: Optional[dict] = None
        #: the open window's continuation, cohorts and tapped servers
        self._then: Optional[Callable[[dict], None]] = None
        self._cohorts: dict = {}
        self._tapped: list = []

    def measure(self, then: Callable[[dict], None]) -> None:
        """Measure for ``window_s``, then call ``then(verdict)``."""
        label = self.scenario.version.label
        self._cohorts = {side: _Cohort(self.kernel) for side in ("canary", "stable")}
        for record in self.tier.replicas:
            server = getattr(record.component.content, "server", None)
            if server is None:
                continue
            side = (
                "canary" if version_label(record.version) == label else "stable"
            )
            server.request_observer = self._cohorts[side]
            self._tapped.append(server)
        self._then = then
        self.kernel.post_in(self.scenario.window_s, self._close)

    def stop(self) -> None:
        """Close an open window: remove the observers, rule nothing."""
        self._then = None
        for server in self._tapped:
            server.request_observer = None
        self._tapped = []

    def _close(self) -> None:
        then = self._then
        if then is None:
            return  # stopped mid-window
        self.stop()
        sc = self.scenario
        canary_n, canary_err, canary_lat = self._cohorts["canary"].rates()
        stable_n, stable_err, stable_lat = self._cohorts["stable"].rates()
        if canary_n == 0:
            # Fail safe: a canary nobody reached proves nothing — never
            # promote on the absence of evidence.
            promoted, reason = False, "no-canary-traffic"
        elif canary_err - (stable_err if stable_err == stable_err else 0.0) > sc.max_error_delta:
            promoted, reason = False, "error-delta"
        elif (
            canary_lat == canary_lat
            and stable_lat == stable_lat
            and stable_lat > 0.0
            and canary_lat / stable_lat > sc.max_latency_factor
        ):
            promoted, reason = False, "latency-factor"
        else:
            promoted, reason = True, "slo-ok"
        self.verdict = {
            "promoted": promoted,
            "reason": reason,
            "canary_requests": canary_n,
            "stable_requests": stable_n,
            "canary_error_rate": canary_err,
            "stable_error_rate": stable_err,
            "canary_latency_s": canary_lat,
            "stable_latency_s": stable_lat,
        }
        then(self.verdict)


@dataclass(frozen=True)
class DeployStats:
    """Plain-data distillate of a deployment execution: the deploy
    manager's event/capacity logs plus the canary verdict — everything
    :mod:`repro.deploy.scorecard` reads."""

    scenario: str
    strategy: str
    version: str
    fleet: int
    verdict: Optional[str]
    reason: str
    events: list
    capacity: list
    canary: dict
    started_t: float
    verdict_t: float
    completed_t: float

    def log_lines(self) -> list[str]:
        """The ``repro deploy --events`` log: each deploy event, then the
        capacity timeline."""
        lines = []
        for event in self.events:
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(event.items())
                if k not in ("t", "kind")
            )
            suffix = f" ({detail})" if detail else ""
            lines.append(f"  t={event['t']:7.1f}s  {event['kind']}{suffix}")
        return lines + [
            f"  t={t:7.1f}s  capacity {serving}/{total} serving"
            for t, serving, total in self.capacity
        ]


class DeployManager:
    """Executes one :class:`DeployScenario` against a live system."""

    name = "deploy"

    def __init__(self, system, scenario: DeployScenario, rng, inhibition) -> None:
        self.system = system
        self.kernel = system.kernel
        self.scenario = scenario
        self.rng = rng
        self.collector = system.collector
        self.tier = system.app_tier
        #: the system's shared inhibition lock
        self.inhibition = inhibition
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        self.canary = CanaryController(self.kernel, self.tier, scenario)
        #: plain-data deploy log: {"t", "kind", ...detail}
        self.events: list[dict] = []
        #: capacity-in-flight timeline: [t, serving, total] on every change
        self.capacity: list[list] = []
        #: "promoted" | "rolled-back" | None (still running / aborted)
        self.verdict: Optional[str] = None
        self.verdict_reason = ""
        self.canary_metrics: dict = {}
        self.started_t = float("nan")
        self.verdict_t = float("nan")
        self.completed_t = float("nan")
        self._sampler = None
        self._started = False
        #: set by :meth:`stop`: every later step of the deployment is a no-op
        self._stopped = False
        #: polls of the running wait (pre-grow, lock), the lock's owner, and
        #: the step that runs once the lock is taken or the bounce is done
        self._polls = 0
        self._lock_owner = ""
        self._then: Optional[Callable[[], None]] = None
        #: the bounce in flight (None between bounces); it runs to its
        #: end even after :meth:`stop`
        self.bounce: Optional[BounceOperation] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.kernel.post(self._pregrow)
        # The 1 s sampler catches capacity changes the explicit observe
        # hooks between bounce steps would miss (e.g. a crash mid-bounce).
        self._sampler = self.kernel.every(1.0, self._observe)

    def stop(self) -> None:
        """Abandon the deployment: later steps do nothing and an open
        canary window loses its observers; a running bounce finishes."""
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        self._stopped = True
        self.canary.stop()

    def attach_tracer(self, tracer) -> None:
        # The shared lock is traced by the optimizer and the proactive
        # manager when either runs; a deployment alone leaves it untraced.
        self.tracer = tracer

    def distill(self) -> DeployStats:
        sc = self.scenario
        return DeployStats(
            scenario=sc.name,
            strategy=sc.strategy,
            version=sc.version.label,
            fleet=sc.fleet,
            verdict=self.verdict,
            reason=self.verdict_reason,
            events=list(self.events),
            capacity=[list(entry) for entry in self.capacity],
            canary=dict(self.canary_metrics),
            started_t=self.started_t,
            verdict_t=self.verdict_t,
            completed_t=self.completed_t,
        )

    # ------------------------------------------------------------------
    def serving_replicas(self) -> int:
        """Replicas actually able to serve right now."""
        count = 0
        for record in self.tier.replicas:
            server = getattr(record.component.content, "server", None)
            if server is not None and server.running and record.node.up:
                count += 1
        return count

    def _observe(self) -> None:
        serving = self.serving_replicas()
        total = len(self.tier.replicas)
        if self.capacity and self.capacity[-1][1:] == [serving, total]:
            return
        self.capacity.append([self.kernel.now, serving, total])

    def _event(self, kind: str, **detail) -> None:
        t = self.kernel.now
        self.events.append({"t": t, "kind": kind, **detail})
        text = ", ".join(f"{k}={v}" for k, v in detail.items())
        self.collector.record_reconfiguration(
            t, f"[deploy] {kind}" + (f" ({text})" if text else "")
        )

    def _bounce(self, version, strategy: str, then, limit=None) -> None:
        """Bounce the tier, then call ``then()``."""
        self.bounce = op = BounceOperation(
            self.kernel,
            self.tier,
            version,
            strategy,
            rng=self.rng,
            settle_s=self.scenario.settle_s,
            limit=limit,
            observe=self._observe,
            event=self._bounce_error,
        )
        op.start()
        self._then = then
        op.done.add_callback(self._bounced)

    def _bounced(self, _done) -> None:
        self.bounce = None
        if not self._stopped:
            self._then()

    def _bounce_error(self, description: str) -> None:
        self._event("bounce-error", detail=description)

    def _acquire_lock(self, who: str, then) -> None:
        """Try to take the shared inhibition lock, then call ``then()``
        (bounded wait: a wedged optimizer must not stall the deployment
        forever)."""
        self._lock_owner = who
        self._polls = 0
        self._then = then
        self._try_lock()

    def _try_lock(self) -> None:
        if self._stopped:
            return
        if self._polls < 10:
            self._polls += 1
            if not self.inhibition.try_acquire(self._lock_owner):
                delay = max(1.0, self.inhibition.free_at - self.kernel.now)
                self.kernel.post_in(delay, self._try_lock)
                return
        self._then()

    # ------------------------------------------------------------------
    # One kernel event per step: _pregrow (posted, then each second) ->
    # _await_fleet -> _announce -> lock -> _push -> canary bounce -> _warm
    # -> _measure -> window -> _judge -> lock -> promote or roll back (or
    # one bounce, without a canary) -> _complete.
    def _pregrow(self) -> None:
        # 1. Pre-grow the fleet (the paper's initial deployment is a
        #    single Tomcat; a deployment story needs a fleet).
        if self._stopped:
            return
        tier = self.tier
        if self._polls < _GROW_BUDGET and len(tier.replicas) < self.scenario.fleet:
            self._polls += 1
            if not tier.busy:
                tier.grow()
            self.kernel.post_in(1.0, self._pregrow)
            return
        self._await_fleet()

    def _await_fleet(self) -> None:
        if self._stopped:
            return
        if self.tier.busy:
            self.kernel.post_in(1.0, self._await_fleet)
            return
        self._observe()
        start_at = self.scenario.start_at_s
        if self.kernel.now < start_at:
            self.kernel.post_in(start_at - self.kernel.now, self._announce)
        else:
            self._announce()

    def _announce(self) -> None:
        # 2. Announce and inhibit the reactive loops.
        if self._stopped:
            return
        sc = self.scenario
        self.started_t = self.kernel.now
        self._event(
            "deploy-started",
            scenario=sc.name,
            version=sc.version.label,
            strategy=sc.strategy,
        )
        if self.tracer is not None:
            from repro.obs.events import DeployStarted

            self.tracer.emit(
                DeployStarted(
                    self.kernel.now,
                    scenario=sc.name,
                    version=sc.version.label,
                    strategy=sc.strategy,
                    tier=self.tier.tier_name,
                    replicas=len(self.tier.replicas),
                )
            )
        self._acquire_lock("deploy", self._push)

    def _push(self) -> None:
        sc = self.scenario
        if sc.canary:
            # 3. Bounce the canary cohort in place and judge it.
            self._bounce(
                sc.version, "downthenup", self._warm, limit=sc.canary_replicas
            )
        else:
            # Pure bounce: no canary phase, the whole fleet moves.
            self.verdict_t = self.kernel.now
            self.verdict = "promoted"
            self.verdict_reason = "no-canary"
            self._bounce(sc.version, sc.strategy, self._complete)

    def _warm(self) -> None:
        self.kernel.post_in(self.scenario.warmup_s, self._measure)

    def _measure(self) -> None:
        if not self._stopped:
            self.canary.measure(self._judge)

    def _judge(self, verdict: dict) -> None:
        sc = self.scenario
        self.verdict_t = self.kernel.now
        self.canary_metrics = dict(verdict)
        self._event(
            "canary-verdict",
            promoted=verdict["promoted"],
            reason=verdict["reason"],
        )
        verdict_seq = None
        if self.tracer is not None:
            from repro.obs.events import CanaryVerdict

            verdict_seq = self.tracer.emit(
                CanaryVerdict(
                    self.kernel.now,
                    scenario=sc.name,
                    version=sc.version.label,
                    promoted=verdict["promoted"],
                    reason=verdict["reason"],
                    canary_error_rate=verdict["canary_error_rate"],
                    stable_error_rate=verdict["stable_error_rate"],
                    canary_latency_s=verdict["canary_latency_s"],
                    stable_latency_s=verdict["stable_latency_s"],
                )
            )
        self.verdict_reason = verdict["reason"]
        if verdict["promoted"]:
            # 4a. Promote: bounce the rest of the fleet.
            self.verdict = "promoted"
            promote = partial(self._bounce, sc.version, sc.strategy, self._complete)
            self._acquire_lock("deploy-promote", promote)
        else:
            # 4b. Roll back: bounce the canaries back to stable.
            self.verdict = "rolled-back"
            self._event("rollback-triggered", reason=verdict["reason"])
            if self.tracer is not None:
                from repro.obs.events import RollbackTriggered

                self.tracer.emit(
                    RollbackTriggered(
                        self.kernel.now,
                        scenario=sc.name,
                        version=sc.version.label,
                        reason=verdict["reason"],
                        cause=verdict_seq,
                    )
                )
            roll_back = partial(self._bounce, None, "downthenup", self._complete)
            self._acquire_lock("deploy-rollback", roll_back)

    def _complete(self) -> None:
        self.completed_t = self.kernel.now
        self._observe()
        self._event("deploy-completed", verdict=self.verdict)
