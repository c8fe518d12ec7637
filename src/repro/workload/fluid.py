"""Mean-field fluid workload engine (million-user scale).

Above a few hundred thousand simulated browsers, even aggregated cohorts
(:mod:`repro.workload.cohort`) pay one think/request/complete event cycle
per cohort per ~7 s.  The autonomic control loops never see those events:
they observe 1 s *CPU utilization samples* smoothed over 60–90 s windows
(:mod:`repro.jade.sensors`) and the latency series in the metrics
collector.  That observation boundary is what makes a *fluid* (mean-field)
workload substitutable — replace the discrete request population with its
deterministic flow equations, drive the very same ``PsCpu`` busy-time
accounting and ``MetricsCollector`` series, and every control loop
(reactive, proactive, chaos detector, deploy canary, market engine) runs
unmodified.

Flow model
----------

The fluid state is the in-flight request level ``L`` (requests inside the
system; ``N - L`` browsers are thinking).  One implicit-Euler flow step
per coarse tick (default 1 s, the probe cadence):

    L' = L + dt * ((N - L') / Z  -  X(L'))

where the service network fixes throughput at level ``L`` by Little's law
``X * R_net(X) = L``.  ``R_net(X)`` is the mean sojourn across the
request path — PLB proxy, app tier, CJDBC route, DB tier (reads load one
backend, full-mirrored writes load all of them in parallel), plus two LAN
hops — with each processor-sharing station contributing
``(d / s_eff) / (1 - rho)`` and per-station concurrency fed back through
the node's capacity model, so the DB thrashing regime of Fig. 8 bends
``R_net`` exactly as the discrete engine's
:class:`~repro.simulation.resources.ThrashingCurve` does.  Substituting
Little's law turns the implicit step into a single scalar root-find in
``X`` (``Phi(X) = X*R_net(X)*(1 + dt/Z) + dt*X - (L + dt*N/Z)``, strictly
increasing), solved with the Illinois method warm-started from the
previous tick.  Carrying ``L`` across ticks is what reproduces the
*backlog transients* of the paper's ramp: when a tier is under-provisioned
the level grows at the capacity deficit, and after a replica is added the
queue drains at the real drain rate — latencies of tens of seconds emerge
exactly where the discrete engine shows them (an equilibrium-only solve
misses those spikes entirely; the accuracy gate in
:mod:`repro.workload.fluid_bench` would catch that).  An explicit Euler step
would need millisecond ticks (service times) — the implicit step is
unconditionally stable at the 1 s tick.

The per-replica flow state is held in plain scalar lists rather than
numpy arrays: tiers are a handful of replicas, and at that size the
interpreter loop is ~10x faster per tick than numpy's per-call dispatch
overhead (measured).  The per-tick solve budget is what bounds the
1M-user wall clock: on the scale-2 Fig. 9 ramp a tick costs ~8 residual
(``Phi``) evaluations on average, each running the capacity fixed point
of both tiers.

Incremental tick
----------------

Three shortcuts skip work whose result is already known; all are exact
(outputs bit-identical to recomputing, asserted in
``tests/test_fluid.py``):

* **Capacity fixed-point exit.**  Each round of the damped iteration in
  :meth:`_TierFlow.evaluate` recomputes ``rho`` and ``conc`` from
  ``se``, then ``se`` from ``conc``.  A round that leaves every ``se[i]``
  unchanged (``==``) would be repeated bit for bit by every later round,
  so the loop stops there.  Below a ``ThrashingCurve`` knee ``se[i] =
  0.5 * (s + s * 1.0) == s`` on the first round — the common case.
* **One-pass residual.**  A residual evaluation runs round one of each
  tier's fixed point and that tier's sojourn sums in one loop.  Round
  one starts from the raw speeds, so its total speed, the shares, the
  even sojourn's service sum and the barrier's ``d / s`` are fixed
  within a step and computed when the step builds its tiers, as are the
  LAN delay, the balancers' speeds and ``dreq / s``, and the tier
  demands.  When every station is at or below its knee
  (:func:`~repro.simulation.resources.capacity_knee`) no capacity model
  is called and the sojourns come straight out of that loop; past a
  knee the evaluation continues into the damped rounds.  The floats are
  produced by the same operations in the same order as separate
  solve-then-sojourn passes (explicit accumulation loops, never the
  builtin ``sum()``, which is compensated on Python 3.12).
* **Step memo.**  A solved :meth:`FluidEngine.step` is a pure function of
  its key (:meth:`FluidEngine._step_key`): population, ``dt``, the
  in-flight level, the warm-start throughput, the LAN delay, each live
  app/DB replica's identity, speed, degradation and capacity model (by
  identity; none is mutated after construction), and each balancer's
  ``up``/``isolated``/speed/degradation.  ``Calibration`` is frozen and
  no kernel event runs inside a step.  The engine keeps the last key and
  its result; on an equal key it restores the level and warm start and
  returns the stored result.  Between population steps the level
  reaches an exact float fixed point, after which every tick hits (73.6 %
  of the ticks of the scale-2 ramp).  The only float keys that compare
  equal with different bits are ``0.0``/``-0.0``; a signed zero can only
  reach the key as the level or warm start, where the solve reads it
  through ``level + dt * n / Z`` and ``0.0 < x`` — both blind to the sign.

Injection: each tick, each live replica receives one weight-``w`` CPU job
sized so its busy time over the tick equals ``rho * dt`` (``w`` is the
solved per-node concurrency, so the node's own capacity model and the
``per_job_mb`` memory accounting see the true load).  The utilization
samplers measure busy-time deltas over whole ticks, so within-tick
placement is invisible to the probes.  Nobody waits on these jobs, so
they never build their ``done`` signal (see
:class:`~repro.simulation.resources.CpuJob`).  Completions flow into
``MetricsCollector.record_latency`` at rate ``X`` with an integer-carry
accumulator (no request is lost to rounding, even across mode handoffs).

The fluid engine consumes **zero RNG draws** — the seeded ``market``,
``chaos`` and ``deploy`` streams see exactly the sequence they see in a
discrete run (asserted in ``tests/test_fluid.py``).

What is approximated: short-timescale stochastic queueing variance
(latency percentiles compress toward the mean), per-node *memory* samples
(a fluid job often completes before the 1 s node sampler looks), and
partitioned replicas are treated as removed instead of flooding failures.
:mod:`repro.workload.fluid_bench` gates the part that matters: replica-count
trajectories identical to discrete on the paper's ramp, latency and
utilization within a stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.network import Lan
from repro.cluster.node import Node, NodeDown
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import SimKernel
from repro.simulation.resources import capacity_knee
from repro.simulation.rng import RngStreams
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator, EntryPoint
from repro.workload.profiles import WorkloadProfile

#: utilization clamp while searching for the operating point (an
#: overloaded station contributes a huge-but-finite sojourn, steering the
#: root finder back below capacity)
_RHO_MAX = 1.0 - 1e-9
#: damped self-consistency iterations for the capacity (thrashing) model
_CAP_ITERS = 4
#: root-finder stop: relative bracket width on throughput
_X_TOL = 1e-10
_MAX_ROOT_ITERS = 100
#: cap on the injected job weight (memory-model guard; the weak-scaled
#: operating point keeps true per-node concurrency far below this)
_MAX_WEIGHT = 100_000
#: LAN hops on the request path: PLB -> Tomcat, CJDBC -> backend
_LAN_HOPS = 2


@dataclass(frozen=True)
class FluidState:
    """One tick's solved operating point."""

    population: int
    in_flight: float
    throughput_rps: float
    latency_s: float
    app_util: float
    db_util: float
    app_nodes: int
    db_nodes: int


def _replicas_key(nodes: Sequence[Node]) -> tuple:
    return tuple(
        (n, n.cpu.speed, n.cpu.degradation, n.cpu.capacity_model) for n in nodes
    )


class _TierFlow:
    """Flow state of one tier within a step: speeds, capacity feedback, load.

    ``d_even`` is demand balanced across replicas proportionally to
    effective speed (reads / servlet work); ``d_per`` is demand every
    replica pays per request (full-mirrored writes).  ``s_even`` and
    ``s_per`` are the per-request demands whose sojourns the tier reports:
    speed-balanced service, and the mirrored barrier.  All four are fixed
    within a step, and so is everything derived from them and from the
    replicas' raw speeds (see :meth:`evaluate`).
    """

    __slots__ = (
        "nodes", "raw", "caps", "knees", "d_even", "d_per", "s_even", "s_per",
        "total", "shares", "per_s", "service", "pooled", "se", "rho", "conc",
    )

    def __init__(
        self,
        nodes: Sequence[Node],
        d_even: float,
        d_per: float,
        s_even: float,
        s_per: float = 0.0,
    ) -> None:
        self.nodes = nodes
        self.raw = raw = [n.cpu.speed * n.cpu.degradation for n in nodes]
        self.caps = [n.cpu.capacity_model for n in nodes]
        self.knees = [capacity_knee(cap) for cap in self.caps]
        self.d_even = d_even
        self.d_per = d_per
        self.s_even = s_even
        self.s_per = s_per
        # Round one runs at se == raw: its totals and shares, and the
        # sojourns' service terms there, are step invariants.
        total = 0.0
        for s in raw:
            total += s
        self.total = total
        self.shares = [s / total for s in raw]
        service = 0.0
        for share, s in zip(self.shares, raw):
            service += share * (s_even / s)
        self.service = service
        self.pooled = s_even / total
        self.per_s = [s_per / s for s in raw] if s_per else None
        self.se = raw
        self.rho: list[float] = [0.0] * len(nodes)
        self.conc: list[float] = [0.0] * len(nodes)

    def evaluate(self, X: float, conc_cap: float) -> tuple[float, float]:
        """Solve the tier at throughput ``X``; return the mean sojourn of
        ``s_even`` and of ``s_per``, leaving ``se``/``rho``/``conc`` at
        that operating point.

        Effective speeds ``se`` are the damped fixed point of utilization
        vs the capacity model, starting from the raw speeds.  Each round
        recomputes ``rho`` and ``conc`` from ``se``, then ``se[i] =
        0.5 * (se[i] + raw[i] * cap(conc[i]))``.  ``conc_cap`` bounds the
        concurrency fed to the capacity model (a station never holds more
        jobs than are in flight system-wide).

        Round one runs inline with the sojourns.  If every station's
        concurrency is at or below its knee (:func:`capacity_knee`),
        ``cap`` is exactly 1.0 and ``0.5 * (s + s) == s``: ``se`` stays
        ``raw``, the fixed point is reached, and the sojourns are read off
        the same loop from the step invariants.  Otherwise the damped
        rounds continue from there, stopping at the first round that
        leaves every ``se[i]`` unchanged (every later round would repeat
        it bit for bit), and the sojourns are taken at the final ``se``.

        The even sojourn runs on one replica at that replica's speed; its
        queueing term uses the *pooled* tier capacity, because the
        balancers route least-pending-first (JSQ), which achieves
        near-full resource pooling in heavy traffic.  At one replica this
        is exactly the M/G/1-PS sojourn ``(d/s) / (1 - rho)``.  Mirrored
        demand completes when the slowest replica has applied it (RAIDb-1
        write barrier).
        """
        raw, knees, rho, conc = self.raw, self.knees, self.rho, self.conc
        d_even, d_per, per_s = self.d_even, self.d_per, self.per_s
        shares = self.shares
        xper = X * d_per
        even = X * d_even / self.total
        below = True
        queue = 0.0
        worst = 0.0
        for i, s in enumerate(raw):
            r = even + xper / s if d_per else even
            if r > _RHO_MAX:
                r = _RHO_MAX
            rho[i] = r
            c = r / (1.0 - r)
            q = c if c < conc_cap else conc_cap
            conc[i] = q
            if not q <= knees[i]:
                below = False
            queue += shares[i] * c
            if per_s is not None:
                t = per_s[i] / (1.0 - r)
                if t > worst:
                    worst = t
        if below:
            self.se = raw
            return self.service + self.pooled * queue, worst

        # Past a knee: the damped rounds, continuing round one.
        caps = self.caps
        se = list(raw)
        for round_ in range(_CAP_ITERS + 1):
            if round_:
                total = 0.0
                for s in se:
                    total += s
                even = X * d_even / total
                for i, s in enumerate(se):
                    r = even + xper / s if d_per else even
                    if r > _RHO_MAX:
                        r = _RHO_MAX
                    rho[i] = r
                    c = r / (1.0 - r)
                    conc[i] = c if c < conc_cap else conc_cap
            fixed = True
            for i, s in enumerate(raw):
                c = conc[i]
                v = 0.5 * (se[i] + (s if c <= knees[i] else s * caps[i](c)))
                if v != se[i]:
                    fixed = False
                se[i] = v
            if fixed:
                break
        self.se = se
        s_even, s_per = self.s_even, self.s_per
        total = 0.0
        for s in se:
            total += s
        service = 0.0
        queue = 0.0
        worst = 0.0
        for s, r in zip(se, rho):
            share = s / total
            service += share * (s_even / s)
            queue += share * (r / (1.0 - r))
            if per_s is not None:
                t = (s_per / s) / (1.0 - r)
                if t > worst:
                    worst = t
        return service + (s_even / total) * queue, worst

    def mean_util(self) -> float:
        return sum(self.rho) / len(self.rho) if self.rho else 0.0


class FluidEngine:
    """Solves and injects the mean-field operating point once per tick.

    ``app_nodes``/``db_nodes`` are callables returning the tier's live
    replica nodes (``TierManager.active_nodes`` — reconfigurations are
    picked up on the next tick).  ``balancers`` is a sequence of
    ``(node, per_request_demand_s)`` for the PLB and CJDBC stations.
    """

    def __init__(
        self,
        kernel: SimKernel,
        collector: MetricsCollector,
        calibration: Calibration = DEFAULT_CALIBRATION,
        app_nodes: Callable[[], Sequence[Node]] = tuple,
        db_nodes: Callable[[], Sequence[Node]] = tuple,
        balancers: Sequence[tuple[Node, float]] = (),
        lan: Optional[Lan] = None,
    ) -> None:
        if calibration.static_fraction > 0.0:
            raise ValueError(
                "fluid mode models the servlets-only mix; "
                "static_fraction > 0 is not supported"
            )
        self.kernel = kernel
        self.collector = collector
        self.cal = calibration
        self.app_nodes = app_nodes
        self.db_nodes = db_nodes
        self.balancers = tuple(balancers)
        self.lan = lan
        #: in-flight request level (the fluid ODE state)
        self.level = 0.0
        #: fractional-completion accumulator (persists across handoffs so
        #: no demand is lost when the hybrid dispatcher switches modes)
        self._carry = 0.0
        #: previous tick's solved throughput (warm-starts the bracket)
        self._last_x: Optional[float] = None
        #: ``(key, result)`` of the last solved step (see ``_step_key``)
        self._memo: Optional[tuple] = None
        self.ticks = 0
        self.completions = 0
        self.last_state: Optional[FluidState] = None

    # ------------------------------------------------------------------
    def _network_delay(self) -> float:
        """Per-request LAN delay (same formula as ``Lan.message_delay``
        for a 1 KB message, without mutating the traffic counters)."""
        if self.lan is None:
            return 0.0
        per_hop = (
            self.lan.latency_s
            + self.lan.extra_latency_s
            + 1.0 / (self.lan.bandwidth_mbps * 128.0)
        )
        return _LAN_HOPS * per_hop

    @staticmethod
    def _live(nodes: Sequence[Node]) -> list[Node]:
        return [
            n
            for n in nodes
            if n.up and not n.isolated and n.cpu.speed * n.cpu.degradation > 0.0
        ]

    def _tiers(
        self, app_live: Sequence[Node], db_live: Sequence[Node]
    ) -> tuple[_TierFlow, _TierFlow]:
        """The app tier (servlet work, speed-balanced) and the DB tier
        (reads balanced, writes mirrored to every backend) for one step."""
        cal = self.cal
        d_app = cal.app_demand_total()
        wf = cal.write_fraction
        app = _TierFlow(app_live, d_app, 0.0, d_app)
        db = _TierFlow(
            db_live,
            (1.0 - wf) * cal.db_read_demand_s,
            wf * cal.db_write_demand_s,
            cal.db_read_demand_s,
            cal.db_write_demand_s,
        )
        return app, db

    def _stations(self) -> list[tuple[float, float, float]]:
        """``(dreq, s, dreq / s)`` of each live balancer (fixed within a
        step: no kernel event runs inside one)."""
        out = []
        for node, dreq in self.balancers:
            s = node.cpu.speed * node.cpu.degradation
            if not node.up or node.isolated or s <= 0.0:
                continue
            out.append((dreq, s, dreq / s))
        return out

    def _response(
        self,
        X: float,
        app: _TierFlow,
        db: _TierFlow,
        conc_cap: float,
        net: float,
        stations: list[tuple[float, float, float]],
    ) -> float:
        """Mean service-network sojourn at throughput ``X`` (no think
        time); leaves the tier flow states at that operating point.
        ``net`` and ``stations`` are the step's LAN delay and
        :meth:`_stations`."""
        R = net
        for dreq, s, service in stations:
            rho = X * dreq / s
            if rho > _RHO_MAX:
                rho = _RHO_MAX
            R += service / (1.0 - rho)
        even, _ = app.evaluate(X, conc_cap)
        R += even
        even, worst = db.evaluate(X, conc_cap)
        wf = self.cal.write_fraction
        R += (1.0 - wf) * even
        R += wf * worst
        return R

    def _step_key(
        self,
        population: int,
        dt: float,
        app_live: list[Node],
        db_live: list[Node],
        net: float,
    ) -> tuple:
        """Everything a solved :meth:`step` reads (``net`` is the LAN
        delay).  Capacity models are compared by identity (none is
        mutated after construction) and ``cal`` is frozen, so equal keys
        give bit-identical solves."""
        return (
            population,
            dt,
            self.level,
            self._last_x,
            net,
            _replicas_key(app_live),
            _replicas_key(db_live),
            tuple(
                (b.up, b.isolated, b.cpu.speed, b.cpu.degradation)
                for b, _ in self.balancers
            ),
        )

    def _recall(self, key: tuple) -> Optional[tuple]:
        """The memoized step result for ``key``, or None."""
        memo = self._memo
        return memo[1] if memo is not None and memo[0] == key else None

    def _empty_state(self, population: int, app_n: int, db_n: int) -> FluidState:
        return FluidState(
            population=max(population, 0),
            in_flight=self.level,
            throughput_rps=0.0,
            latency_s=0.0,
            app_util=0.0,
            db_util=0.0,
            app_nodes=app_n,
            db_nodes=db_n,
        )

    def step(
        self, population: int, dt: float
    ) -> tuple[FluidState, Optional[_TierFlow], Optional[_TierFlow]]:
        """One implicit-Euler flow step: advance the in-flight level and
        solve the throughput/latency operating point.

        ``Phi(X) = X*R_net(X)*(1 + dt/Z) + dt*X - (L + dt*N/Z)`` is
        strictly increasing in ``X``; its root gives the post-step level
        ``L' = X*R_net(X)`` via Little's law.
        """
        app_live = self._live(self.app_nodes())
        db_live = self._live(self.db_nodes())
        n = float(max(population, 0))
        if not app_live or not db_live:
            # Nothing can serve: the level only grows with new arrivals
            # (bounded by the population); nothing completes.
            self.level = min(self.level + dt * n / self.cal.think_time_mean_s, n)
            self._last_x = None
            return self._empty_state(population, len(app_live), len(db_live)), None, None
        if n <= 0.0 and self.level <= 0.0:
            self._last_x = None
            return self._empty_state(population, len(app_live), len(db_live)), None, None
        net = self._network_delay()
        key = self._step_key(population, dt, app_live, db_live, net)
        hit = self._recall(key)
        if hit is not None:
            state, app, db, self.level, self._last_x = hit
            return state, app, db
        app, db = self._tiers(app_live, db_live)
        stations = self._stations()
        Z = self.cal.think_time_mean_s
        target = self.level + dt * n / Z
        gain = 1.0 + dt / Z
        # A station can never hold more than everything in flight.
        conc_cap = max(target, 1.0)

        def phi(x: float) -> float:
            r = self._response(x, app, db, conc_cap, net, stations)
            return x * r * gain + dt * x - target

        lo, f_lo = 0.0, -target
        hi = target / dt  # Phi(target/dt) >= R*gain*target/dt > 0
        if self._last_x is not None and 0.0 < self._last_x < hi:
            guess_hi = min(self._last_x * 1.25, hi)
            f = phi(guess_hi)
            if f >= 0.0:
                hi, f_hi = guess_hi, f
                guess_lo = self._last_x * 0.8
                f = phi(guess_lo)
                if f <= 0.0:
                    lo, f_lo = guess_lo, f
            else:
                lo, f_lo = guess_hi, f
                f_hi = phi(hi)
        else:
            f_hi = phi(hi)
        # Illinois method: superlinear on smooth monotone Phi, never
        # leaves the bracket.
        x = hi
        for _ in range(_MAX_ROOT_ITERS):
            if hi - lo <= _X_TOL * max(hi, 1.0):
                break
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not (lo < x < hi):
                x = 0.5 * (lo + hi)
            f = phi(x)
            if f < 0.0:
                f_hi *= 0.5
                lo, f_lo = x, f
            else:
                f_lo *= 0.5
                hi, f_hi = x, f
        x = 0.5 * (lo + hi)
        self._response(x, app, db, conc_cap, net, stations)  # leave tiers at the root
        level = max((target - dt * x) / gain, 0.0)
        latency = level / x if x > 0.0 else 0.0
        self.level = level
        self._last_x = x
        state = FluidState(
            population=population,
            in_flight=level,
            throughput_rps=x,
            latency_s=latency,
            app_util=app.mean_util(),
            db_util=db.mean_util(),
            app_nodes=len(app_live),
            db_nodes=len(db_live),
        )
        self._memo = (key, (state, app, db, level, x))
        return state, app, db

    def seed_equilibrium(self, population: int) -> None:
        """Initialize the in-flight level at the closed-loop equilibrium
        (used when the hybrid dispatcher hands a running population over
        from discrete mode, so the flow starts from the state the cohorts
        were actually in rather than from an empty system)."""
        self.level = 0.0
        self._last_x = None
        if population <= 0:
            return
        # A few relaxation steps converge the level to equilibrium (the
        # implicit step is a contraction toward it); no CPU or metrics
        # are touched.
        for _ in range(8):
            state, _, _ = self.step(population, 16.0)
            if state.throughput_rps <= 0.0:
                return

    # ------------------------------------------------------------------
    def _inject_node(self, node: Node, util: float, conc: float, dt: float) -> None:
        """One CPU job whose busy time over the tick equals ``util*dt``."""
        u = min(float(util), 1.0)
        if u <= 0.0:
            return
        weight = max(1, min(int(round(conc)), _MAX_WEIGHT))
        espeed = node.cpu.speed * node.cpu.degradation
        demand = u * dt * espeed * node.cpu.capacity_model(weight)
        if demand <= 0.0:
            return
        try:
            node.run_job(demand, tag="fluid", weight=weight)
        except NodeDown:
            return

    def tick(self, population: int, dt: float) -> FluidState:
        """Advance the flow by one tick: solve, inject CPU, record metrics."""
        state, app, db = self.step(population, dt)
        for tier in (app, db):
            if tier is None:
                continue
            for node, r, c in zip(tier.nodes, tier.rho, tier.conc):
                self._inject_node(node, r, c, dt)
        X = state.throughput_rps
        if X > 0.0:
            for node, dreq in self.balancers:
                s = node.cpu.speed * node.cpu.degradation
                if not node.up or node.isolated or s <= 0.0:
                    continue
                self._inject_node(node, X * dreq / s, 1.0, dt)
        self._carry += X * dt
        whole = int(self._carry)
        if whole > 0:
            self._carry -= whole
            self.collector.record_latency(self.kernel.now, state.latency_s, whole)
            self.completions += whole
        self.ticks += 1
        self.last_state = state
        return state


@dataclass(frozen=True)
class FluidStats:
    """Plain-data distillate of a hybrid fluid/discrete workload run:
    tick/handoff counters from :class:`HybridWorkload`."""

    ticks: int
    completions: int
    handoffs_to_fluid: int
    handoffs_to_discrete: int
    peak_fluid_population: int
    threshold: int


class HybridWorkload(ClientEmulator):
    """Threshold dispatcher between discrete cohorts and the fluid flow.

    Below ``threshold`` simulated browsers the inherited cohort emulator
    runs untouched (every RNG draw identical to a plain discrete run).
    At or above it, cohorts are deactivated — in-flight requests drain
    and record normally; thinking cohorts stop silently — and the fluid
    engine drives the same collector and CPUs, seeded at the closed-loop
    equilibrium level.  ``threshold <= 0`` means always-fluid.  The
    fractional-completion carry persists across handoffs, so completions
    are conserved through any number of switches.
    """

    name = "fluid"

    def __init__(
        self,
        kernel: SimKernel,
        entry: EntryPoint,
        profile: WorkloadProfile,
        collector: MetricsCollector,
        streams: RngStreams,
        engine: FluidEngine,
        calibration: Calibration = DEFAULT_CALIBRATION,
        threshold: int = 0,
        tick_s: float = 1.0,
        request_timeout_s: Optional[float] = None,
        cohort: int = 1,
    ) -> None:
        super().__init__(
            kernel,
            entry,
            profile,
            collector,
            streams,
            calibration=calibration,
            adjust_period_s=tick_s,
            request_timeout_s=request_timeout_s,
            cohort=cohort,
        )
        self.engine = engine
        self.threshold = int(threshold)
        self.fluid_active = False
        self.handoffs_to_fluid = 0
        self.handoffs_to_discrete = 0
        self.peak_fluid_population = 0

    # ------------------------------------------------------------------
    @property
    def active_clients(self) -> int:
        """Population the proactive planner (and workload series) sees."""
        if self.fluid_active and self.engine.last_state is not None:
            return self.engine.last_state.population
        return super().active_clients

    def _adjust(self) -> None:
        now = self.kernel.now
        target = self.profile.clients_at(now)
        want_fluid = self.threshold <= 0 or target >= self.threshold
        if want_fluid:
            if not self.fluid_active:
                self.fluid_active = True
                if self.handoffs_to_fluid > 0 or self.active_clients > 0:
                    # Mid-run handoff: start the flow from the operating
                    # point the cohorts were at, not from an empty system.
                    self.engine.seed_equilibrium(target)
                self.handoffs_to_fluid += 1
                for client in self._clients:
                    client.active = False
                self._active_weight = 0
            before = self.engine.completions
            self.engine.tick(target, self.adjust_period_s)
            self.requests_issued += self.engine.completions - before
            if target > self.peak_fluid_population:
                self.peak_fluid_population = target
            self.collector.record_workload(now, target)
        else:
            if self.fluid_active:
                self.fluid_active = False
                self.handoffs_to_discrete += 1
                # The residual fluid level drains implicitly: fresh
                # cohorts re-establish the closed-loop population at once.
                # Drop drained cohorts; fresh ones get fresh client ids
                # (and therefore fresh deterministic RNG streams).
                self.engine.level = 0.0
                self.engine._last_x = None
                self._clients = [c for c in self._clients if c.active]
            super()._adjust()

    def distill(self) -> FluidStats:
        return FluidStats(
            ticks=self.engine.ticks,
            completions=self.engine.completions,
            handoffs_to_fluid=self.handoffs_to_fluid,
            handoffs_to_discrete=self.handoffs_to_discrete,
            peak_fluid_population=self.peak_fluid_population,
            threshold=self.threshold,
        )
