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
from typing import Optional

from repro.deploy.bounce import BounceOperation
from repro.deploy.scenario import DeployScenario
from repro.deploy.versions import version_label
from repro.simulation.process import Process, sleep, wait

#: how long the fleet pre-grow may take before the manager proceeds with
#: whatever capacity it has (the deployment must not stall forever)
_GROW_BUDGET = 120


class CanaryController:
    """Measures canary vs stable cohorts at the servers and rules.

    ``measure`` is a kernel-process generator: it installs per-server
    request observers, sleeps out the decision window, removes them, and
    returns the verdict dict (also kept on :attr:`verdict`).
    """

    def __init__(self, kernel, tier, scenario: DeployScenario) -> None:
        self.kernel = kernel
        self.tier = tier
        self.scenario = scenario
        self.verdict: Optional[dict] = None

    def _tap(self, bucket: list) -> object:
        # bucket = [ok_weight, fail_weight, latency_weight_sum]
        kernel = self.kernel

        def tap(request, ok: bool) -> None:
            weight = getattr(request, "weight", 1)
            if ok:
                bucket[0] += weight
                issued = getattr(request, "issued_at", None)
                if issued is not None:
                    bucket[2] += (kernel.now - issued) * weight
            else:
                bucket[1] += weight

        return tap

    def measure(self):
        sc = self.scenario
        label = sc.version.label
        cohorts = {"canary": [0, 0, 0.0], "stable": [0, 0, 0.0]}
        tapped = []
        for record in self.tier.replicas:
            server = getattr(record.component.content, "server", None)
            if server is None:
                continue
            side = (
                "canary" if version_label(record.version) == label else "stable"
            )
            server.request_observer = self._tap(cohorts[side])
            tapped.append(server)
        try:
            yield sleep(sc.window_s)
        finally:
            for server in tapped:
                server.request_observer = None

        def rates(bucket):
            ok, fail, lat = bucket
            total = ok + fail
            err = fail / total if total else float("nan")
            latency = lat / ok if ok else float("nan")
            return total, err, latency

        canary_n, canary_err, canary_lat = rates(cohorts["canary"])
        stable_n, stable_err, stable_lat = rates(cohorts["stable"])
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
        return self.verdict


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
        self._process: Optional[Process] = None
        self._sampler = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._process = Process(self.kernel, self._run(), name="deploy")
        # The 1 s sampler catches capacity changes the explicit observe
        # hooks between bounce steps would miss (e.g. a crash mid-bounce).
        self._sampler = self.kernel.every(1.0, self._observe)

    def stop(self) -> None:
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        if self._process is not None and self._process.alive:
            self._process.kill()

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

    def _bounce(self, version, strategy: str, limit: Optional[int] = None):
        op = BounceOperation(
            self.kernel,
            self.tier,
            version,
            strategy,
            rng=self.rng,
            settle_s=self.scenario.settle_s,
            limit=limit,
            observe=self._observe,
            event=lambda desc: self._event("bounce-error", detail=desc),
        )
        op.start()
        yield wait(op.done)
        return op

    def _acquire_lock(self, who: str):
        """Try to take the shared inhibition lock (bounded wait: a wedged
        optimizer must not stall the deployment forever)."""
        for _ in range(10):
            if self.inhibition.try_acquire(who):
                return
            yield sleep(max(1.0, self.inhibition.free_at - self.kernel.now))

    # ------------------------------------------------------------------
    def _run(self):
        sc = self.scenario
        tier = self.tier
        # 1. Pre-grow the fleet (the paper's initial deployment is a
        #    single Tomcat; a deployment story needs a fleet).
        for _ in range(_GROW_BUDGET):
            if len(tier.replicas) >= sc.fleet:
                break
            if not tier.busy:
                tier.grow()
            yield sleep(1.0)
        while tier.busy:
            yield sleep(1.0)
        self._observe()
        if self.kernel.now < sc.start_at_s:
            yield sleep(sc.start_at_s - self.kernel.now)

        # 2. Announce and inhibit the reactive loops.
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
                    tier=tier.tier_name,
                    replicas=len(tier.replicas),
                )
            )
        yield from self._acquire_lock("deploy")

        if sc.canary:
            # 3. Bounce the canary cohort in place and judge it.
            yield from self._bounce(
                sc.version, "downthenup", limit=sc.canary_replicas
            )
            yield sleep(sc.warmup_s)
            verdict = yield from self.canary.measure()
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
            if verdict["promoted"]:
                # 4a. Promote: bounce the rest of the fleet.
                self.verdict = "promoted"
                self.verdict_reason = verdict["reason"]
                yield from self._acquire_lock("deploy-promote")
                yield from self._bounce(sc.version, sc.strategy)
            else:
                # 4b. Roll back: bounce the canaries back to stable.
                self.verdict = "rolled-back"
                self.verdict_reason = verdict["reason"]
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
                yield from self._acquire_lock("deploy-rollback")
                yield from self._bounce(None, "downthenup")
        else:
            # Pure bounce: no canary phase, the whole fleet moves.
            self.verdict_t = self.kernel.now
            self.verdict = "promoted"
            self.verdict_reason = "no-canary"
            yield from self._bounce(sc.version, sc.strategy)

        self.completed_t = self.kernel.now
        self._observe()
        self._event("deploy-completed", verdict=self.verdict)
