"""Discrete-event simulation kernel.

A minimal, fast event kernel: a binary heap of timestamped callbacks with a
monotonically increasing sequence number for deterministic FIFO tie-breaking.
Everything in the reproduction (servers, probes, control loops, clients)
schedules work through one :class:`SimKernel` instance, so a fixed random
seed reproduces a run event-for-event.

Three fast paths keep the hot loop cheap at scale:

* **Timer buckets** — all events that share an exact timestamp live in one
  heap entry (a :class:`_Bucket`) and are appended/drained in FIFO order in
  O(1).  Periodic probes and samplers fire on shared absolute grids
  (``first + k*period``), and every ``call_soon``/signal callback lands at
  the current instant, so steady-state runs collapse most heap traffic into
  list appends.
* **Event freelist** — fire-and-forget events (:meth:`SimKernel.post`,
  :meth:`SimKernel.post_in`) recycle :class:`Event` objects instead of
  allocating one per callback.  Only events whose handle is never exposed
  are pooled, so external ``cancel()`` semantics are unaffected.
* **Tuple-free ordering** — heap entries compare on ``time``/``seq``
  attributes directly rather than allocating a ``(time, seq)`` tuple per
  comparison.

Tail dispatch
-------------
Most continuations on the request path (a CPU job's completion handler,
a signal relayed from one server to the next, a client resumed by its
response) are posted at the current instant as the very last action of
the callback that produces them.  When nothing else is pending at that
instant, the posted event is exactly the next one :meth:`SimKernel.run`
would dispatch: every other pending event lies strictly in the future.
:meth:`SimKernel._tail` runs such a continuation inline in that case and
posts it otherwise.  The inline call happens-before the same set of
events, at the same ``now``, as the posted one would, so the simulated
order of actions — and every output — is unchanged.

The rule is exact only if the caller does nothing after ``_tail``
returns, and the same holds for every frame between it and the kernel's
dispatch; call sites are therefore restricted to audited tail positions
(``PsCpu._complete_next``, ``Signal.succeed_tail`` and its callers).
``_tail`` runs inline only while :meth:`SimKernel.run` is active and
:meth:`SimKernel.stop` has not been called, and only when the timestamp
``now`` has no index entry or its bucket is fully drained; under
:meth:`SimKernel.step`, after ``stop()`` or with a same-instant event
pending (cancelled or not) it posts.

``events_processed`` counts dispatched events only; ``tail_dispatched``
counts inline continuations.  Their sum equals the ``events_processed``
of the same run with every tail call posted.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

#: maximum number of recycled Event objects kept per kernel
_FREELIST_CAP = 1024


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`SimKernel.schedule` and can be cancelled
    with :meth:`cancel` (cancellation is O(1): the entry is tombstoned and
    skipped when popped).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "pooled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        #: internal fire-and-forget event, recycled after execution
        self.pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        self.cancelled = True
        self.fn = None  # drop references early
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        # Hot path: avoid building (time, seq) tuples per comparison.
        t, u = self.time, other.time
        if t != u:
            return t < u
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class _Bucket:
    """All events sharing one exact timestamp, in FIFO (seq) order.

    The first event scheduled at a time sits in the heap on its own; the
    second promotes the timestamp to a bucket.  Appends while the bucket is
    pending — or while it is being drained (``call_soon`` at the current
    instant) — are O(1) and preserve global FIFO order because appended
    events always carry higher sequence numbers.
    """

    __slots__ = ("time", "seq", "events")

    #: uniform interface with Event for the dispatch loop
    cancelled = False
    pooled = False

    def __init__(self, time: float, seq: int):
        self.time = time
        self.seq = seq
        self.events: list[Event] = []

    def __lt__(self, other) -> bool:
        t, u = self.time, other.time
        if t != u:
            return t < u
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Bucket t={self.time:.6f} n={len(self.events)}>"


class SimKernel:
    """The event loop.

    Time is a float in *seconds* of simulated time, starting at 0.0.

    Example
    -------
    >>> k = SimKernel()
    >>> out = []
    >>> _ = k.schedule(1.5, out.append, "a")
    >>> _ = k.schedule(0.5, out.append, "b")
    >>> k.run()
    >>> out
    ['b', 'a']
    >>> k.now
    1.5
    """

    def __init__(self) -> None:
        #: heap of (time, seq, Event | _Bucket): the key tuple is built once
        #: per push so heap comparisons run entirely in C
        self._heap: list = []
        #: pending time -> open entry at that time (Event until promoted)
        self._index: dict[float, Any] = {}
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._pending = 0
        #: bucket currently being drained (persists across stop()/step())
        self._cur_bucket: Optional[_Bucket] = None
        self._cur_i = 0
        self._freelist: list[Event] = []
        #: callbacks dispatched from the queue
        self.events_processed = 0
        #: continuations run inline by :meth:`_tail` instead of posted
        self.tail_dispatched = 0
        #: cancelled events discarded when they reached the heap head
        #: (``pending`` counts them until then; they never count in
        #: ``events_processed``)
        self.tombstones_skipped = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        ev = Event(time, next(self._seq), fn, args)
        self._enqueue(ev)
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending events
        already scheduled for this instant)."""
        ev = Event(self._now, next(self._seq), fn, args)
        self._enqueue(ev)
        return ev

    # -- fire-and-forget fast path -------------------------------------
    def post(self, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`call_soon` but returns no handle; the event object is
        recycled through an internal freelist.  Use for callbacks that are
        never cancelled (signal delivery, process resumption)."""
        self._post_at(self._now, fn, args)

    def post_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule` but returns no handle (see :meth:`post`)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        self._post_at(self._now + delay, fn, args)

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule_at` but returns no handle (see :meth:`post`).
        Callers that need to revoke a posted callback should guard it with
        their own generation token instead of cancelling."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        self._post_at(time, fn, args)

    def _post_at(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        free = self._freelist
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq = next(self._seq)
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq := next(self._seq), fn, args)
            ev.pooled = True
        # _enqueue inlined (hot path: signal delivery, process wake-ups).
        index = self._index
        cur = index.get(time)
        if cur is None:
            index[time] = ev
            heapq.heappush(self._heap, (time, seq, ev))
        elif type(cur) is _Bucket:
            cur.events.append(ev)
        else:
            bucket = _Bucket(time, seq)
            bucket.events.append(ev)
            index[time] = bucket
            heapq.heappush(self._heap, (time, seq, bucket))
        self._pending += 1

    def _tail(self, fn: Callable[..., Any], args: tuple) -> None:
        """Post ``fn(*args)`` at the current instant, or run it inline when
        the posted event would be the next one dispatched anyway (see the
        module docstring).  Only call this as the last action of a
        callback dispatched by :meth:`run`: nothing may follow it, in the
        caller or in any frame up to the kernel."""
        if self._running and not self._stopped:
            cur = self._index.get(self._now)
            if cur is None or (
                cur is self._cur_bucket and self._cur_i >= len(cur.events)
            ):
                self.tail_dispatched += 1
                fn(*args)
                return
        self._post_at(self._now, fn, args)

    def _enqueue(self, ev: Event) -> None:
        index = self._index
        time = ev.time
        cur = index.get(time)
        if cur is None:
            index[time] = ev
            heapq.heappush(self._heap, (time, ev.seq, ev))
        elif type(cur) is _Bucket:
            cur.events.append(ev)
        else:
            bucket = _Bucket(time, ev.seq)
            bucket.events.append(ev)
            index[time] = bucket
            heapq.heappush(self._heap, (time, bucket.seq, bucket))
        self._pending += 1

    def every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` every ``period`` seconds until cancelled.

        ``start`` is the absolute time of the first firing (defaults to
        ``now + period``).
        """
        if period <= 0:
            raise SimulationError("period must be positive")
        return PeriodicTask(self, period, fn, args, start)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _recycle(self, ev: Event) -> None:
        ev.fn = None
        ev.args = ()
        if len(self._freelist) < _FREELIST_CAP:
            self._freelist.append(ev)

    def step(self) -> bool:
        """Run the next pending event. Returns False when the queue is empty."""
        heap = self._heap
        index = self._index
        while True:
            bucket = self._cur_bucket
            if bucket is not None:
                events = bucket.events
                i = self._cur_i
                if i < len(events):
                    ev = events[i]
                    self._cur_i = i + 1
                    self._pending -= 1
                    if ev.cancelled:
                        self.tombstones_skipped += 1
                        continue
                    fn, args = ev.fn, ev.args
                    if ev.pooled:
                        self._recycle(ev)
                    else:
                        ev.fn, ev.args = None, ()
                    assert fn is not None
                    fn(*args)
                    self.events_processed += 1
                    return True
                if index.get(bucket.time) is bucket:
                    del index[bucket.time]
                self._cur_bucket = None
                continue
            if not heap:
                return False
            head = heap[0][2]
            if head.cancelled:
                heapq.heappop(heap)
                self._pending -= 1
                self.tombstones_skipped += 1
                if index.get(head.time) is head:
                    del index[head.time]
                continue
            heapq.heappop(heap)
            self._now = head.time
            if type(head) is _Bucket:
                self._cur_bucket = head
                self._cur_i = 0
                continue
            if index.get(head.time) is head:
                del index[head.time]
            self._pending -= 1
            fn, args = head.fn, head.args
            if head.pooled:
                self._recycle(head)
            else:
                head.fn, head.args = None, ()
            assert fn is not None
            fn(*args)
            self.events_processed += 1
            return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or simulated time reaches
        ``until`` (events at exactly ``until`` are executed; time is advanced
        to ``until`` even if the queue drains earlier)."""
        if self._running:
            raise SimulationError("kernel is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        index = self._index
        heappop = heapq.heappop
        freelist = self._freelist
        try:
            while not self._stopped:
                bucket = self._cur_bucket
                if bucket is not None:
                    if until is not None and bucket.time > until:
                        break  # resumed with an earlier horizon
                    events = bucket.events
                    i = self._cur_i
                    if i < len(events):
                        ev = events[i]
                        self._cur_i = i + 1
                        self._pending -= 1
                        if ev.cancelled:
                            self.tombstones_skipped += 1
                            continue
                        fn, args = ev.fn, ev.args
                        ev.fn, ev.args = None, ()
                        if ev.pooled and len(freelist) < _FREELIST_CAP:
                            freelist.append(ev)
                        fn(*args)
                        self.events_processed += 1
                        continue
                    if index.get(bucket.time) is bucket:
                        del index[bucket.time]
                    self._cur_bucket = None
                    continue
                if not heap:
                    break
                head = heap[0][2]
                if head.cancelled:
                    # Discard tombstones even past the horizon so ``pending``
                    # reflects live events only.
                    heappop(heap)
                    self._pending -= 1
                    self.tombstones_skipped += 1
                    if index.get(head.time) is head:
                        del index[head.time]
                    continue
                if until is not None and head.time > until:
                    if type(head) is _Bucket:
                        # Compact tombstones inside the out-of-horizon bucket
                        # so ``pending`` reflects live events only.
                        live = [e for e in head.events if not e.cancelled]
                        dropped = len(head.events) - len(live)
                        if dropped:
                            self.tombstones_skipped += dropped
                            self._pending -= dropped
                            head.events[:] = live
                        if not live:
                            heappop(heap)
                            if index.get(head.time) is head:
                                del index[head.time]
                            continue
                    break
                heappop(heap)
                self._now = head.time
                if type(head) is _Bucket:
                    self._cur_bucket = head
                    self._cur_i = 0
                    continue
                cur = index.pop(head.time, None)
                if cur is not head and cur is not None:
                    index[head.time] = cur  # head was promoted away; restore
                self._pending -= 1
                fn, args = head.fn, head.args
                head.fn, head.args = None, ()
                if head.pooled and len(freelist) < _FREELIST_CAP:
                    freelist.append(head)
                fn(*args)
                self.events_processed += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True


class PeriodicTask:
    """A self-rescheduling task created by :meth:`SimKernel.every`.

    Firings are scheduled on the absolute grid ``first + k*period`` (not
    ``now + period`` from inside each tick), so long runs accumulate no
    floating-point phase drift and co-periodic tasks share exact timestamps
    (one timer bucket per instant instead of one heap entry per task).
    """

    __slots__ = (
        "_kernel",
        "period",
        "_fn",
        "_args",
        "_event",
        "_cancelled",
        "_first",
        "_k",
        "fired",
    )

    def __init__(
        self,
        kernel: SimKernel,
        period: float,
        fn: Callable[..., Any],
        args: tuple,
        start: Optional[float],
    ) -> None:
        self._kernel = kernel
        self.period = period
        self._fn = fn
        self._args = args
        self._cancelled = False
        self.fired = 0
        first = kernel.now + period if start is None else start
        self._first = first
        self._k = 0
        self._event = kernel.schedule_at(first, self._tick)

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self._fn(*self._args)
        if not self._cancelled:
            self._k += 1
            self._event = self._kernel.schedule_at(
                self._first + self._k * self.period, self._tick
            )

    def cancel(self) -> None:
        """Stop future firings; idempotent."""
        self._cancelled = True
        self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled
