"""CPU resource models.

A simulated server consumes CPU on its node for every request it handles.
Two queueing disciplines are provided behind one interface:

* :class:`PsCpu` — egalitarian **processor sharing**, the standard model for
  a time-sliced CPU serving many concurrent request threads.  Implemented
  with the classic *virtual time* technique, O(log n) per arrival/departure.
* :class:`FifoCpu` — a single-server FIFO queue (M/G/1 when fed by Poisson
  arrivals), O(1) per event; cheaper, and adequate when per-request latency
  distribution is not under study.

Both track cumulative *busy time*, which is exactly the signal the paper's
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
from collections import deque
from typing import Callable, Optional

from repro.simulation.kernel import Event, SimKernel
from repro.simulation.process import Signal

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


class CpuJob:
    """A unit of CPU work submitted to a resource.

    ``demand`` is expressed in seconds of CPU time *at full speed*; the
    resource's ``speed`` factor and capacity model determine how long the job
    actually takes.

    Completion is announced in one of two ways.  A job built with a
    continuation calls ``then(*args)`` when service completes and
    ``fail(*args, error)`` when it is aborted; it has no ``done`` signal.
    ``args`` is a tuple, so a server passes a bound method and the request
    instead of building a closure per hop.  A job built without a
    continuation carries ``done``, a :class:`Signal` that fires with the
    job (or fails with the error).  Either way the announcement is one
    kernel event at the completion instant, except that
    :meth:`PsCpu._complete_next` may hand a lone continuation to the
    kernel's tail dispatch.

    ``weight`` models a *cohort* of identical concurrent requests as one
    job: a job of weight ``w`` counts as ``w`` concurrent requests for
    processor sharing and the capacity model, and ``demand`` is the summed
    demand of all ``w`` constituents (each constituent thus contributes
    ``demand / w``).  All constituents finish together.
    """

    __slots__ = (
        "demand",
        "weight",
        "done",
        "then",
        "fail",
        "args",
        "finished",
        "tag",
        "submitted_at",
        "completed_at",
        "_vfinish",
    )

    def __init__(
        self,
        kernel: SimKernel,
        demand: float,
        tag: object = None,
        weight: int = 1,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ):
        if demand < 0:
            raise ValueError("demand must be >= 0")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if (then is None) != (fail is None):
            raise ValueError("then and fail must be given together")
        self.demand = demand
        self.weight = weight
        self.then = then
        self.fail = fail
        self.args = args
        self.done: Optional[Signal] = Signal(kernel) if then is None else None
        #: completed or aborted (the continuation is announced)
        self.finished = False
        self.tag = tag
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._vfinish = 0.0

    def _settle(self, kernel: SimKernel, error: Optional[BaseException] = None) -> None:
        """Mark the job finished and announce it: post the continuation, or
        fire ``done``."""
        self.finished = True
        if self.then is None:
            if error is None:
                self.done.succeed(self)
            else:
                self.done.fail(error)
        elif error is None:
            kernel._post_at(kernel._now, self.then, self.args)
        else:
            kernel._post_at(kernel._now, self.fail, self.args + (error,))

    @property
    def sojourn(self) -> Optional[float]:
        """Queueing + service time, once completed."""
        if self.completed_at is None or self.submitted_at is None:
            return None
        return self.completed_at - self.submitted_at


class ResourceStopped(RuntimeError):
    """Raised to jobs aborted because their resource was shut down."""


class CpuResource:
    """Common bookkeeping for CPU models (busy time, counters)."""

    def __init__(self, kernel: SimKernel, speed: float = 1.0, name: str = "cpu"):
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

    # -- interface -----------------------------------------------------
    @property
    def active_jobs(self) -> int:
        raise NotImplementedError

    def submit(self, job: CpuJob) -> CpuJob:
        raise NotImplementedError

    def abort_all(self, error: Optional[BaseException] = None) -> int:
        raise NotImplementedError

    # -- degradation (fail-slow / gray failures) ------------------------
    def set_degradation(self, factor: float) -> None:
        """Scale the delivered speed by ``factor`` (1.0 restores health).

        Busy-time accounting is settled at the old rate first, so a probe
        sampling across the change sees correct utilization.  Subclasses
        with in-flight completion schedules must also resettle those.
        """
        if factor <= 0:
            raise ValueError("degradation factor must be positive")
        self._advance_accounting()
        self.degradation = factor
        self._espeed = self.speed * factor

    # -- utilization sampling -------------------------------------------
    def busy_time(self) -> float:
        """Cumulative busy time up to the current instant."""
        self._advance_accounting()
        return self.busy_integral

    def _advance_accounting(self) -> None:
        now = self.kernel.now
        if now > self._last_update:
            if self.active_jobs > 0:
                self.busy_integral += now - self._last_update
            self._last_update = now


_INF = float("inf")

#: ``PsCpu._knee`` of an ideal CPU: every concurrency is below the knee
_NO_KNEE = sys.maxsize


class PsCpu(CpuResource):
    """Processor-sharing CPU with optional capacity degradation.

    With ``n`` active jobs each job is served at rate
    ``speed * capacity(n) / n``.  Virtual time ``V`` advances at that rate;
    a job of demand ``d`` arriving when virtual time is ``V0`` finishes when
    ``V`` reaches ``V0 + d``.  A heap keyed on finish virtual time yields the
    next completion in O(log n).

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
    """

    def __init__(
        self,
        kernel: SimKernel,
        speed: float = 1.0,
        capacity_model: CapacityModel = constant_capacity,
        name: str = "cpu",
    ):
        super().__init__(kernel, speed, name)
        self.capacity_model = capacity_model
        # Concurrency up to which capacity_model(n) == 1.0: rate
        # computations below it skip the capacity-model call.  -1 for an
        # opaque model (always call it).
        if capacity_model is constant_capacity:
            self._knee = _NO_KNEE
        elif type(capacity_model) is ThrashingCurve:
            self._knee = capacity_model.knee
        else:
            self._knee = -1
        self._vnow = 0.0
        self._vlast = kernel.now  # real time of last virtual-time update
        self._heap: list[tuple[float, int, CpuJob]] = []
        self._seq = itertools.count()
        self._live = 0  # summed weight of non-aborted entries in the heap
        #: generation token of the current wake-up; superseding a wake is a
        #: counter bump, not an event cancellation (no heap tombstones)
        self._wake_token = 0
        self._wake_at = float("inf")  # real time of the pending wake-up

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

    def _advance_virtual(self) -> None:
        now = self.kernel.now
        if now > self._vlast:
            self._vnow += (now - self._vlast) * self._rate()
        self._vlast = now

    def submit(self, job: CpuJob) -> CpuJob:
        """Add a job to the shared processor; its completion is announced
        as described on :class:`CpuJob`.  Zero-demand jobs complete
        immediately."""
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
        job.submitted_at = now
        weight = job.weight
        demand = job.demand
        if demand == 0.0:
            job.completed_at = now
            self.completed += weight
            job._settle(kernel)
            return job
        vfinish = vnow + (demand / weight if weight != 1 else demand)
        job._vfinish = vfinish
        heap = self._heap
        heapq.heappush(heap, (vfinish, next(self._seq), job))
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
            kernel._post_at(wake, self._complete_next, (self._wake_token,))
        return job

    def _reschedule_completion(self) -> None:
        """Slow path: recompute the wake-up after aborts or completions."""
        self._wake_token += 1  # invalidate any pending wake
        self._wake_at = float("inf")
        # Drop any aborted entries sitting at the top of the heap.
        while self._heap and self._heap[0][2].finished:
            heapq.heappop(self._heap)
        if not self._heap:
            return
        rate = self._rate()
        assert rate > 0.0, "live jobs but zero rate"
        wake = self.kernel.now + max(0.0, (self._heap[0][0] - self._vnow) / rate)
        self._wake_at = wake
        self.kernel._post_at(wake, self._complete_next, (self._wake_token,))

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
        # and simply reschedules below.  Each completed job is announced
        # when the next one is found, so the last one is still held here.
        heap = self._heap
        vdue = vnow + 1e-9 * (1.0 if -1.0 < vnow < 1.0 else abs(vnow))
        held = None
        lone = True
        while heap and heap[0][0] <= vdue:
            _, _, job = heapq.heappop(heap)
            if job.finished:  # aborted entry
                continue
            weight = job.weight
            self._live -= weight
            job.completed_at = now
            self.completed += weight
            self.service_delivered += job.demand
            if held is not None:
                held._settle(kernel)
                lone = False
            held = job
        # Reschedule for the (possibly moved) next completion.
        while heap and heap[0][2].finished:
            heapq.heappop(heap)
        self._wake_token += 1
        if heap:
            n = self._live
            rate = (
                self._espeed / n
                if n <= self._knee
                else self._espeed * self.capacity_model(n) / n
            )
            wake = now + (heap[0][0] - vnow) / rate
            if wake <= now and held is None:
                # The head's remaining time is below half an ulp of now:
                # a wake at now would complete nothing again, forever.
                wake = math.nextafter(now, _INF)
            elif wake < now:
                wake = now
        else:
            wake = _INF
        self._wake_at = wake
        if held is not None:
            if lone and wake > now and held.then is not None:
                # The continuation would be posted last at ``now`` and the
                # wake lands later: hand it to the kernel's tail dispatch,
                # after the wake is posted, as the very last action.
                held.finished = True
                if heap:
                    kernel._post_at(wake, self._complete_next, (self._wake_token,))
                kernel._tail(held.then, held.args)
                return
            held._settle(kernel)
        if heap:
            kernel._post_at(wake, self._complete_next, (self._wake_token,))

    def abort_all(self, error: Optional[BaseException] = None) -> int:
        """Fail every in-flight job (e.g. the hosting server crashed).

        Returns the number of jobs aborted.  Virtual-time state is reset so
        a reused resource serves a fresh job stream from a clean baseline
        (no stale ``_vlast``/``_vnow`` from the aborted run).
        """
        self._advance_accounting()
        self._advance_virtual()
        err = error if error is not None else ResourceStopped(self.name)
        aborted = 0
        kernel = self.kernel
        for _, _, job in self._heap:
            if not job.finished:
                job._settle(kernel, err)
                aborted += 1
        self._heap.clear()
        self._live = 0
        self._wake_token += 1  # invalidate any pending wake
        self._vnow = 0.0
        self._vlast = self.kernel.now
        self._wake_at = float("inf")
        return aborted


class FifoCpu(CpuResource):
    """Single-server FIFO queue.

    The job at the head of the queue is served at rate
    ``speed * capacity(n)`` where ``n`` is the queue length *at service
    start* (capacity is not re-evaluated mid-service; thrashing studies
    should use :class:`PsCpu`).
    """

    def __init__(
        self,
        kernel: SimKernel,
        speed: float = 1.0,
        capacity_model: CapacityModel = constant_capacity,
        name: str = "cpu",
    ):
        super().__init__(kernel, speed, name)
        self.capacity_model = capacity_model
        self._queue: deque[CpuJob] = deque()
        self._in_service: Optional[CpuJob] = None
        self._completion_event: Optional[Event] = None

    @property
    def active_jobs(self) -> int:
        return len(self._queue) + (1 if self._in_service is not None else 0)

    def submit(self, job: CpuJob) -> CpuJob:
        self._advance_accounting()
        job.submitted_at = self.kernel.now
        if job.demand == 0.0:
            job.completed_at = self.kernel.now
            self.completed += job.weight
            job._settle(self.kernel)
            return job
        self._queue.append(job)
        if self._in_service is None:
            self._start_next()
        return job

    def _start_next(self) -> None:
        if not self._queue:
            return
        job = self._queue.popleft()
        self._in_service = job
        rate = self._espeed * self.capacity_model(self.active_jobs)
        service_time = job.demand / rate
        self._completion_event = self.kernel.schedule(
            service_time, self._complete, job
        )

    def _complete(self, job: CpuJob) -> None:
        self._advance_accounting()
        self._completion_event = None
        self._in_service = None
        job.completed_at = self.kernel.now
        self.completed += job.weight
        self.service_delivered += job.demand
        job._settle(self.kernel)
        self._start_next()

    def abort_all(self, error: Optional[BaseException] = None) -> int:
        self._advance_accounting()
        err = error if error is not None else ResourceStopped(self.name)
        aborted = 0
        if self._in_service is not None:
            self._in_service._settle(self.kernel, err)
            self._in_service = None
            aborted += 1
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        for job in self._queue:
            job._settle(self.kernel, err)
            aborted += 1
        self._queue.clear()
        return aborted
