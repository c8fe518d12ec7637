"""Discrete-event simulation kernel.

A minimal, fast event kernel.  Everything in the reproduction (servers,
probes, control loops, clients) schedules work through one
:class:`SimKernel` instance, so a fixed random seed reproduces a run
event-for-event.

Dispatch order
--------------
Every queued callback has a timestamp and a sequence number, and the
kernel dispatches in ``(time, seq)`` order: earliest first, and first
queued, first run among equal times.  The queue keeps that order in two
parts:

* **The heap** holds the entries of *future* instants (``time > now``) as
  plain tuples ``(time, seq, fn, args)``.  ``seq`` is unique, so heap
  comparisons run in C and never reach ``fn``.
* **The FIFO** holds the ``(fn, args)`` pairs due at the current instant.
  A post at ``now`` appends to it.  The kernel advances to the next heap
  instant only once the FIFO is empty, and moves every entry due then
  into the FIFO.  Those entries were queued before ``now`` reached their
  time, so they carry lower sequence numbers than any post made at that
  instant and belong ahead of it.

Future instants are coalesced.  The first entry queued at a future
timestamp enters the heap on its own; every later one joins a *bucket*,
a list of ``(fn, args)`` pairs kept beside it in an index (future time ->
lone entry or bucket), which moves into the FIFO right behind it when it
pops.  Periodic probes and samplers fire on shared absolute grids
(``first + k*period``), so an instant costs one heap entry however many
callbacks share it.  If the lone entry is cancelled and discarded first,
its bucket enters the heap in its place as ``(time, seq, _BUCKET, list)``.

Fire-and-forget posts (:meth:`SimKernel.post`, :meth:`~SimKernel.post_in`,
:meth:`~SimKernel.post_at`) allocate nothing but their tuple.  Only
:meth:`~SimKernel.schedule`, :meth:`~SimKernel.schedule_at`,
:meth:`~SimKernel.call_soon` and :class:`PeriodicTask` build an
:class:`Event`, the cancellable handle they return; it is queued as
``fn=None, args=event``.  A cancelled event stays queued, and counts in
``pending``, until the kernel reaches it and discards it as a tombstone.

Tail dispatch
-------------
Most continuations on the request path (a CPU job's completion handler,
a datasource's answer relayed to the server that queried it, a client's
completion callback) are posted at the current instant as the very last
action of the callback that produces them.  When nothing else is queued at that
instant, the posted event is exactly the next one :meth:`SimKernel.run`
would dispatch: every other queued event lies strictly in the future.
:meth:`SimKernel._tail` runs such a continuation inline in that case and
posts it otherwise.  The inline call happens-before the same set of
events, at the same ``now``, as the posted one would, so the simulated
order of actions — and every output — is unchanged.

The rule is exact only if the caller does nothing after ``_tail``
returns, and the same holds for every frame between it and the kernel's
dispatch; call sites are therefore restricted to audited tail positions
(``PsCpu._complete_next``, ``Signal.succeed_tail`` and its callers, and
the read answers of ``MySqlServer`` and ``CJdbcController``).
``_tail`` runs inline only while :meth:`SimKernel.run` is active and
:meth:`SimKernel.stop` has not been called, and only when the FIFO is
empty; under :meth:`SimKernel.step`, after ``stop()`` or with a
same-instant event queued (cancelled or not) it posts.

``events_processed`` counts dispatched events only; ``tail_dispatched``
counts inline continuations.  Their sum equals the ``events_processed``
of the same run with every tail call posted.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional

_INF = float("inf")

#: ``fn`` of a heap entry whose ``args`` is a bucket of ``(fn, args)`` pairs
_BUCKET = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`SimKernel.schedule` and can be cancelled
    with :meth:`cancel` (cancellation is O(1): the queued entry becomes a
    tombstone, skipped when reached).
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; idempotent."""
        self.cancelled = True
        self.fn = None  # drop references early
        self.args = ()

    def _take(self) -> tuple:
        """The callback and its arguments, dropping the references (the
        event is being dispatched)."""
        fn, args = self.fn, self.args
        self.fn, self.args = None, ()
        return fn, args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {state}>"


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
        #: entries of future instants (see the module docstring)
        self._heap: list = []
        #: future time -> its lone heap entry, or the bucket queued behind it
        self._index: dict[float, Any] = {}
        #: ``(fn, args)`` pairs due at ``now``, in dispatch order
        self._fifo: deque = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._stopped = False
        #: callbacks dispatched from the queue
        self.events_processed = 0
        #: continuations run inline by :meth:`_tail` instead of posted
        self.tail_dispatched = 0
        #: cancelled events discarded when the kernel reached them
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
        return (
            len(self._fifo)
            + sum(fn is not _BUCKET for _, _, fn, _ in self._heap)
            + sum(len(v) for v in self._index.values() if type(v) is list)
        )

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
        ev = Event(time, fn, args)
        self._post_at(time, None, ev)
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending events
        already scheduled for this instant)."""
        ev = Event(self._now, fn, args)
        self._fifo.append((None, ev))
        return ev

    # -- fire-and-forget fast path -------------------------------------
    def post(self, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`call_soon` but returns no handle, so it allocates
        no :class:`Event`.  Use for callbacks that are never cancelled
        (signal delivery, process resumption)."""
        self._fifo.append((fn, args))

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

    def _post_at(self, time: float, fn: Any, args: Any) -> None:
        """Queue ``fn(*args)`` at ``time >= now`` (``fn=None`` with an
        :class:`Event` as ``args`` queues the event)."""
        if time <= self._now:
            self._fifo.append((fn, args))
            return
        index = self._index
        cur = index.get(time)
        if cur is None:
            index[time] = entry = (time, next(self._seq), fn, args)
            heapq.heappush(self._heap, entry)
        elif type(cur) is list:
            cur.append((fn, args))
        else:
            index[time] = [(fn, args)]

    def _tail(self, fn: Callable[..., Any], args: tuple) -> None:
        """Post ``fn(*args)`` at the current instant, or run it inline when
        the posted event would be the next one dispatched anyway (see the
        module docstring).  Only call this as the last action of a
        callback dispatched by :meth:`run`: nothing may follow it, in the
        caller or in any frame up to the kernel."""
        if self._running and not self._stopped and not self._fifo:
            self.tail_dispatched += 1
            fn(*args)
            return
        self._fifo.append((fn, args))

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
    def _advance(self, horizon: float) -> bool:
        """Advance ``now`` to the earliest queued future instant at or
        before ``horizon`` and move its entries into the (empty) FIFO.

        A cancelled entry at the heap head is discarded, even past the
        horizon, and so are the cancelled entries of a bucket at the head
        past it, so that ``pending`` then counts live events only.
        Returns False when no instant is due."""
        heap = self._heap
        index = self._index
        fifo = self._fifo
        while heap:
            entry = heap[0]
            time, _, fn, args = entry
            if fn is None and args.cancelled:
                heapq.heappop(heap)
                self.tombstones_skipped += 1
                bucket = index[time]
                if bucket is entry:
                    del index[time]
                else:  # the bucket behind it enters the heap in its place
                    heapq.heappush(heap, (time, next(self._seq), _BUCKET, bucket))
                continue
            if time > horizon:
                if fn is not _BUCKET:
                    return False
                live = [e for e in args if e[0] is not None or not e[1].cancelled]
                self.tombstones_skipped += len(args) - len(live)
                if live:
                    args[:] = live
                    return False
                heapq.heappop(heap)
                del index[time]
                continue
            heapq.heappop(heap)
            self._now = time
            bucket = index.pop(time)
            if fn is not _BUCKET:
                fifo.append((fn, args))
            if bucket is not entry:
                fifo.extend(bucket)
            return True
        return False

    def step(self) -> bool:
        """Run the next pending event. Returns False when the queue is empty."""
        fifo = self._fifo
        while fifo or self._advance(_INF):
            fn, args = fifo.popleft()
            if fn is None:
                fn, args = args._take()
                if fn is None:  # cancelled
                    self.tombstones_skipped += 1
                    continue
            fn(*args)
            self.events_processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or simulated time reaches
        ``until`` (events at exactly ``until`` are executed; time is advanced
        to ``until`` even if the queue drains earlier).  A horizon already
        passed runs nothing."""
        if self._running:
            raise SimulationError("kernel is already running")
        self._stopped = False
        horizon = _INF if until is None else until
        if horizon < self._now:
            return
        self._running = True
        heap = self._heap
        index = self._index
        fifo = self._fifo
        popleft = fifo.popleft
        heappop = heapq.heappop
        dispatched = 0
        try:
            while not self._stopped:
                if fifo:
                    fn, args = popleft()
                    if fn is None:
                        fn, args = args._take()
                        if fn is None:  # cancelled
                            self.tombstones_skipped += 1
                            continue
                elif heap:
                    # _advance inlined for a lone post within the horizon
                    # (hot path: CPU wakes, think times, network hops).
                    entry = heap[0]
                    time, _, fn, args = entry
                    if time > horizon or fn is None or fn is _BUCKET:
                        if self._advance(horizon):
                            continue
                        break
                    heappop(heap)
                    self._now = time
                    bucket = index.pop(time)
                    if bucket is not entry:
                        fifo.extend(bucket)
                else:
                    break
                fn(*args)
                dispatched += 1
        finally:
            self._running = False
            self.events_processed += dispatched
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
