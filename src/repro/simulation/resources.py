"""CPU resource models.

A simulated server consumes CPU on its node for every request it handles.
:class:`PsCpu` models that CPU as egalitarian **processor sharing**, the
standard model for a time-sliced CPU serving many concurrent request
threads.  It is implemented with the classic *virtual time* technique,
O(log n) per arrival/departure.

It tracks cumulative *busy time*, which is exactly the signal the paper's
probes sample: CPU utilization over the last second, averaged spatially over
the tier and temporally by a moving average.

Thrashing
---------
``Figure 8`` of the paper shows latencies of hundreds of seconds when the
static (unmanaged) database saturates — the authors call it "a thrashing of
the database".  Pure queueing saturation cannot produce that shape in a
closed-loop system (response time would plateau around
``N / X_max - think``).  We model thrashing explicitly: beyond a concurrency
knee the *effective capacity* of the resource decays
(:class:`ThrashingCurve`), representing memory pressure, lock convoys and
context-switch overhead.  The managed system never enters that regime, so
the model only affects the static baseline — as in the paper.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Callable, Optional

from repro.simulation.kernel import SimKernel

CapacityModel = Callable[[int], float]


def constant_capacity(n: int) -> float:
    """Capacity model of an ideal CPU: full speed at any concurrency."""
    return 1.0


class ThrashingCurve:
    """Effective capacity decays beyond a concurrency knee.

    ``capacity(n) = 1                          for n <= knee``
    ``capacity(n) = 1 / (1 + slope*(n - knee)) for n >  knee``

    with an optional ``floor`` so the resource never fully stalls.
    """

    def __init__(self, knee: int = 32, slope: float = 0.05, floor: float = 0.05):
        if knee < 0:
            raise ValueError("knee must be >= 0")
        if slope < 0:
            raise ValueError("slope must be >= 0")
        if not 0.0 < floor <= 1.0:
            raise ValueError("floor must be in (0, 1]")
        self.knee = knee
        self.slope = slope
        self.floor = floor

    def __call__(self, n: int) -> float:
        if n <= self.knee:
            return 1.0
        return max(self.floor, 1.0 / (1.0 + self.slope * (n - self.knee)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ThrashingCurve(knee={self.knee}, slope={self.slope}, floor={self.floor})"


#: knee of an ideal CPU: every concurrency is below it
_NO_KNEE = sys.maxsize


def capacity_knee(model: CapacityModel) -> int:
    """Concurrency up to which ``model(n)`` is exactly 1.0, so a rate
    computation may skip the call: unbounded for :func:`constant_capacity`,
    the knee of a :class:`ThrashingCurve`, and -1 for an opaque model
    (always call it)."""
    if model is constant_capacity:
        return _NO_KNEE
    if type(model) is ThrashingCurve:
        return model.knee
    return -1


class ResourceStopped(RuntimeError):
    """Raised to jobs aborted because their resource was shut down."""


_INF = float("inf")


class PsCpu:
    """Processor-sharing CPU with optional capacity degradation.

    With ``n`` active jobs each job is served at rate
    ``speed * capacity(n) / n``.  Virtual time ``V`` advances at that rate;
    a job of demand ``d`` arriving when virtual time is ``V0`` finishes when
    ``V`` reaches ``V0 + d``.  A heap keyed on finish virtual time yields the
    next completion in O(log n).

    A job is nothing but its heap entry, the tuple ``(vfinish, seq,
    weight, demand, then, fail, args)``: :meth:`submit` allocates no
    other object.  ``demand`` is expressed in seconds of CPU time *at
    full speed*; the resource's ``speed`` factor and capacity model
    determine how long the job actually takes.

    A job with a continuation calls ``then(*args)`` when service completes
    and ``fail(*args, error)`` when it is aborted, each as one kernel event
    at that instant, except that :meth:`_complete_next` may hand a lone
    continuation to the kernel's tail dispatch.  ``args`` is a tuple, so a
    server passes a bound method and the request instead of building a
    closure per hop.  A job without a continuation is busy time that
    nobody waits on (probe costs, fluid load).

    ``weight`` models a *cohort* of identical concurrent requests as one
    job: a job of weight ``w`` counts as ``w`` concurrent requests for
    processor sharing and the capacity model, and ``demand`` is the summed
    demand of all ``w`` constituents (each constituent thus contributes
    ``demand / w``).  All constituents finish together.

    Completion wake-ups are *lazy*: an arrival that cannot preempt the head
    completion leaves the pending wake-up event untouched even though the
    head's real finish time just moved later (the per-job rate dropped).
    The wake-up then fires early, finds nothing due, and reschedules for the
    recomputed finish time.  Early firing is always safe — arrivals only
    ever push completions *later* — and it replaces the former
    cancel-and-reschedule per arrival (and its heap tombstone) with at most
    one extra no-op dispatch per rate change.

    At or below the knee of a :class:`ThrashingCurve` (and always on an
    ideal CPU) the rate is computed as ``speed / n``, skipping the
    capacity-model call; that equals ``speed * 1.0 / n`` bit for bit.

    Every wake-up posts ``_wake``, :meth:`_complete_next` bound once in
    ``__init__`` (a pickled copy binds it to itself).  A healthy
    :class:`~repro.cluster.node.Node`'s ``submit`` is this CPU's
    :meth:`submit`, so a request hop calls it directly.
    """

    def __init__(
        self,
        kernel: SimKernel,
        speed: float = 1.0,
        capacity_model: CapacityModel = constant_capacity,
        name: str = "cpu",
    ):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.kernel = kernel
        self.speed = speed
        self.name = name
        #: fail-slow / gray-failure hook: fraction of nominal speed actually
        #: delivered (1.0 = healthy).  ``_espeed`` caches ``speed *
        #: degradation`` — it is what every rate computation reads.
        self.degradation = 1.0
        self._espeed = speed
        self.busy_integral = 0.0  # cumulative seconds with >=1 active job
        self.completed = 0
        self.service_delivered = 0.0  # cumulative CPU-seconds of demand served
        self._last_update = kernel.now
        self.capacity_model = capacity_model
        # Rate computations at or below the knee skip the model call.
        self._knee = capacity_knee(capacity_model)
        self._vnow = 0.0
        self._vlast = kernel.now  # real time of last virtual-time update
        #: one ``(vfinish, seq, weight, demand, then, fail, args)`` per job
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._live = 0  # summed weight of the jobs in the heap
        #: generation token of the current wake-up; superseding a wake is a
        #: counter bump, not an event cancellation (no heap tombstones)
        self._wake_token = 0
        self._wake_at = float("inf")  # real time of the pending wake-up
        #: :meth:`_complete_next`, bound once for every wake post
        self._wake = self._complete_next

    @property
    def active_jobs(self) -> int:
        return self._live

    def _rate(self) -> float:
        """Virtual-time advance rate (per-job service rate), 0 when idle."""
        n = self._live
        if n == 0:
            return 0.0
        if n <= self._knee:
            return self._espeed / n
        return self._espeed * self.capacity_model(n) / n

    def set_degradation(self, factor: float) -> None:
        """Degrade (or restore) the delivered speed mid-stream.

        Virtual time is advanced at the *old* rate before the switch, then
        the pending completion wake-up is recomputed at the new rate — jobs
        already in service finish later (or earlier, on restore) by exactly
        the remaining-demand ratio.
        """
        if factor <= 0:
            raise ValueError("degradation factor must be positive")
        self._advance_accounting()
        self._advance_virtual()
        self.degradation = factor
        self._espeed = self.speed * factor
        self._reschedule_completion()

    def busy_time(self) -> float:
        """Cumulative busy time up to the current instant (every
        utilization sample reads it: :meth:`_advance_accounting` is
        inlined)."""
        now = self.kernel._now
        if now > self._last_update:
            if self._live > 0:
                self.busy_integral += now - self._last_update
            self._last_update = now
        return self.busy_integral

    def _advance_accounting(self) -> None:
        now = self.kernel.now
        if now > self._last_update:
            if self._live > 0:
                self.busy_integral += now - self._last_update
            self._last_update = now

    def _advance_virtual(self) -> None:
        now = self.kernel.now
        if now > self._vlast:
            self._vnow += (now - self._vlast) * self._rate()
        self._vlast = now

    def submit(
        self,
        demand: float,
        weight: int = 1,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> None:
        """Add a job to the shared processor; its completion is announced
        as described on the class.  A zero-demand job completes at once
        (its ``then`` is posted at the current instant)."""
        if not demand >= 0:  # NaN fails too
            raise ValueError(f"demand must be >= 0, got {demand}")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if (then is None) != (fail is None):
            raise ValueError("then and fail must be given together")
        kernel = self.kernel
        now = kernel._now  # hot path: skip the property
        # Inlined _advance_accounting + _advance_virtual (hot path).
        if now > self._last_update:
            if self._live > 0:
                self.busy_integral += now - self._last_update
            self._last_update = now
        vnow = self._vnow
        if now > self._vlast:
            n = self._live
            if n:
                rate = (
                    self._espeed / n
                    if n <= self._knee
                    else self._espeed * self.capacity_model(n) / n
                )
                vnow += (now - self._vlast) * rate
                self._vnow = vnow
        self._vlast = now
        if demand == 0.0:
            self.completed += weight
            if then is not None:
                kernel._post_at(now, then, args)
            return
        vfinish = vnow + (demand / weight if weight != 1 else demand)
        heap = self._heap
        heapq.heappush(
            heap, (vfinish, next(self._seq), weight, demand, then, fail, args)
        )
        self._live = n = self._live + weight
        # Wake-up fast path: reschedule only if the new job preempts the
        # pending wake; otherwise the (now early) wake recomputes lazily.
        rate = (
            self._espeed / n
            if n <= self._knee
            else self._espeed * self.capacity_model(n) / n
        )
        wake = now + (heap[0][0] - vnow) / rate
        if wake < self._wake_at:
            self._wake_token += 1
            self._wake_at = wake
            # _post_at directly: wake >= now by construction, token-guarded.
            kernel._post_at(wake, self._wake, (self._wake_token,))

    def _reschedule_completion(self) -> None:
        """Slow path: recompute the wake-up after aborts or completions."""
        self._wake_token += 1  # invalidate any pending wake
        self._wake_at = float("inf")
        if not self._heap:
            return
        rate = self._rate()
        assert rate > 0.0, "live jobs but zero rate"
        wake = self.kernel.now + max(0.0, (self._heap[0][0] - self._vnow) / rate)
        self._wake_at = wake
        self.kernel._post_at(wake, self._wake, (self._wake_token,))

    def _complete_next(self, token: int) -> None:
        if token != self._wake_token:
            return  # superseded wake-up
        kernel = self.kernel
        now = kernel._now  # hot path: skip the property
        # Inlined _advance_accounting + _advance_virtual (hot path).
        if now > self._last_update:
            if self._live > 0:
                self.busy_integral += now - self._last_update
            self._last_update = now
        vnow = self._vnow
        if now > self._vlast:
            n = self._live
            if n:
                rate = (
                    self._espeed / n
                    if n <= self._knee
                    else self._espeed * self.capacity_model(n) / n
                )
                vnow += (now - self._vlast) * rate
                self._vnow = vnow
        self._vlast = now
        # Complete every job whose virtual finish time has been reached
        # (simultaneous completions happen with equal demands).  A wake-up
        # may arrive early (see class docstring); it then completes nothing
        # and simply reschedules below.  Each completed job's continuation
        # is posted when the next one is found, so the last one is still
        # held here.
        heap = self._heap
        vdue = vnow + 1e-9 * (1.0 if -1.0 < vnow < 1.0 else abs(vnow))
        done = 0
        then = args = None
        while heap and heap[0][0] <= vdue:
            if then is not None:
                kernel._post_at(now, then, args)
            _, _, weight, demand, then, _, args = heapq.heappop(heap)
            self._live -= weight
            self.completed += weight
            self.service_delivered += demand
            done += 1
        # Reschedule for the (possibly moved) next completion.
        self._wake_token += 1
        if heap:
            n = self._live
            rate = (
                self._espeed / n
                if n <= self._knee
                else self._espeed * self.capacity_model(n) / n
            )
            wake = now + (heap[0][0] - vnow) / rate
            if wake <= now and not done:
                # The head's remaining time is below half an ulp of now:
                # a wake at now would complete nothing again, forever.
                wake = math.nextafter(now, _INF)
            elif wake < now:
                wake = now
        else:
            wake = _INF
        self._wake_at = wake
        if then is not None:
            if done == 1 and wake > now:
                # The continuation would be posted last at ``now`` and the
                # wake lands later: hand it to the kernel's tail dispatch,
                # after the wake is posted, as the very last action.
                if heap:
                    kernel._post_at(wake, self._wake, (self._wake_token,))
                kernel._tail(then, args)
                return
            kernel._post_at(now, then, args)
        if heap:
            kernel._post_at(wake, self._wake, (self._wake_token,))

    def abort_all(self, error: Optional[BaseException] = None) -> int:
        """Fail every in-flight job (e.g. the hosting server crashed).

        Returns the number of jobs aborted.  Virtual-time state is reset so
        a reused resource serves a fresh job stream from a clean baseline
        (no stale ``_vlast``/``_vnow`` from the aborted run).
        """
        self._advance_accounting()
        self._advance_virtual()
        err = error if error is not None else ResourceStopped(self.name)
        kernel = self.kernel
        now = kernel._now
        heap = self._heap
        aborted = len(heap)
        for _, _, _, _, _, fail, args in heap:
            if fail is not None:
                kernel._post_at(now, fail, args + (err,))
        heap.clear()
        self._live = 0
        self._wake_token += 1  # invalidate any pending wake
        self._vnow = 0.0
        self._vlast = self.kernel.now
        self._wake_at = float("inf")
        return aborted
