"""Discrete-event simulation kernel.

A minimal, fast event kernel.  Everything in the reproduction (servers,
probes, control loops, clients) schedules work through one
:class:`SimKernel` instance, so a fixed random seed reproduces a run
event-for-event.

Dispatch order
--------------
The kernel dispatches earliest time first, and first queued, first run
among equal times.  The queue keeps that order in three parts:

* **The FIFO** holds the ``(fn, args)`` pairs due at the current instant.
  A post at ``now`` appends to it.  The kernel advances to the next
  future instant only once the FIFO is empty, and moves every pair due
  then into the FIFO.  Those pairs were queued before ``now`` reached
  their time, so they belong ahead of any post made at that instant.
* **The held instant.**  A post at a future instant strictly earlier
  than every queued future instant is kept in one slot, as its lone
  ``(fn, args)`` pair, and goes into neither the heap nor the index.
  About half the future posts on the request path (CPU wakes, LAN
  hops, think times) lead the queue when they are made, so they are
  queued and dispatched without touching the heap.  Before a post at the same
  instant or an earlier one is queued, the held pair moves into the
  index and the heap, so it keeps its place ahead of the later post.
* **The heap** holds each other future instant once, as a bare float,
  so heap comparisons are float comparisons.  An index maps the instant
  to its *lone* ``(fn, args)`` pair, or to the list of pairs queued
  there, in order.  Periodic probes and samplers fire on shared
  absolute grids (``first + k*period``), so an instant costs one heap
  entry however many callbacks share it.

The first callback queued at a future instant is its lone one, and
heads its list if others join.  A cancelled lone event, held or in the
heap, is discarded when it leads the queue, even past a run's horizon,
without moving ``now``; reaching any other callback moves ``now``,
cancelled or not.  Past a horizon, once the lone event is gone, the
cancelled events of its instant go too, and ``None`` takes its place at
the head of the list.

Fire-and-forget posts (:meth:`SimKernel.post`, :meth:`~SimKernel.post_in`,
:meth:`~SimKernel.post_at`) allocate nothing but their tuple.  Only
:meth:`~SimKernel.schedule`, :meth:`~SimKernel.schedule_at` and
:meth:`~SimKernel.call_soon` build an :class:`Event`, the cancellable
handle they return; it is queued as ``fn=None, args=event``.  A
:class:`PeriodicTask` is its own handle, queued the same way at each
firing.  A cancelled handle stays queued, and counts in ``pending``,
until the kernel reaches it and discards it as a tombstone.

Tail dispatch
-------------
Most continuations on the request path (a CPU job's completion handler,
a datasource's answer relayed to the server that queried it, a request's
``then`` run by its answer) are posted at the current instant as the
very last action of the callback that produces them.  When nothing else
is queued at that instant, the posted event is exactly the next one
:meth:`SimKernel.run` would dispatch: every other queued event lies
strictly in the future.
:meth:`SimKernel._tail` runs such a continuation inline in that case and
posts it otherwise.  The inline call happens-before the same set of
events, at the same ``now``, as the posted one would, so the simulated
order of actions — and every output — is unchanged.

The rule is exact only if the caller does nothing after ``_tail``
returns, and the same holds for every frame between it and the kernel's
dispatch; call sites are therefore restricted to audited tail positions:
``PsCpu._complete_next``, ``WebRequest.complete`` and its callers
(``TomcatServer._finish``, ``ApacheServer._finish_static``), and the
read answers ``MySqlServer._read_done`` and ``CJdbcController._answered``.
Each runs only as a CPU job's continuation or as the tail of one: a server
hop submits to its node or posts, and never calls a continuation itself.
``_tail`` runs inline only while :meth:`SimKernel.run` is active and
:meth:`SimKernel.stop` has not been called (one ``_inline`` flag keeps
the two), and only when the FIFO is empty; under
:meth:`SimKernel.step`, after ``stop()`` or with a same-instant event
queued (cancelled or not) it posts.

``events_processed`` counts dispatched events only; ``tail_dispatched``
counts inline continuations.  Their sum equals the ``events_processed``
of the same run with every tail call posted.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

_INF = float("inf")


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
        #: the lone ``(fn, args)`` pair of the held instant, or ``None``
        #: (see the module docstring)
        self._held: Optional[tuple] = None
        #: the earliest queued future instant: the held one, else the
        #: heap's first, else infinity
        self._next_at = _INF
        #: the other future instants
        self._heap: list[float] = []
        #: future instant in the heap -> its lone ``(fn, args)`` pair, or
        #: its list of pairs
        self._index: dict[float, Any] = {}
        #: ``(fn, args)`` pairs due at ``now``, in dispatch order
        self._fifo: deque = deque()
        self._now = 0.0
        self._running = False
        self._stopped = False
        #: ``_running and not _stopped``: :meth:`_tail` may run inline
        self._inline = False
        #: callbacks dispatched from the queue
        self.events_processed = 0
        #: continuations run inline by :meth:`_tail` instead of posted
        self.tail_dispatched = 0
        #: cancelled events discarded when the kernel reached them
        #: (``pending`` counts them until then; they never count in
        #: ``events_processed``)
        self.tombstones_skipped = 0
        #: the last id handed to a request of this run (ids are per run,
        #: so a run's pickle does not depend on what ran before it)
        self.last_request_id = 0

    def __getstate__(self) -> dict:
        """Pickle the kernel idle: a copy taken from inside one of its
        callbacks can :meth:`run` (the parent's ``run`` is untouched).
        The copy's ``events_processed`` omits the events that the
        interrupted ``run`` had dispatched: it adds them when it returns."""
        state = self.__dict__.copy()
        state["_running"] = state["_inline"] = False
        return state

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._fifo) + (self._held is not None) + sum(
            1 if type(v) is tuple else len(v) - (v[0] is None)
            for v in self._index.values()
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails too: it would corrupt the heap order
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:
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
        (signal delivery, the next step of a state machine)."""
        self._fifo.append((fn, args))

    def post_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule` but returns no handle (see :meth:`post`)."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        self._post_at(self._now + delay, fn, args)

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Like :meth:`schedule_at` but returns no handle (see :meth:`post`).
        Callers that need to revoke a posted callback should guard it with
        their own generation token instead of cancelling."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        self._post_at(time, fn, args)

    def _post_at(self, time: float, fn: Any, args: Any) -> None:
        """Queue ``fn(*args)`` at ``time >= now`` (``fn=None`` with an
        :class:`Event` or a :class:`PeriodicTask` as ``args`` queues that
        handle).  Unchecked: the
        public entry points reject a past or NaN time, which would
        silently reorder the heap."""
        if time <= self._now:
            self._fifo.append((fn, args))
            return
        next_at = self._next_at
        if time < next_at:  # leads the queue: hold it
            held = self._held
            if held is not None:
                self._index[next_at] = held
                heapq.heappush(self._heap, next_at)
            self._held = (fn, args)
            self._next_at = time
            return
        pair = (fn, args)
        cur = self._index.setdefault(time, pair)
        if cur is pair:
            if time == next_at and self._held is not None:
                # co-timed with the held pair, which heads the instant
                self._index[time] = [self._held, pair]
                self._held = None
            heapq.heappush(self._heap, time)
        elif type(cur) is tuple:
            self._index[time] = [cur, pair]
        else:
            cur.append(pair)

    def _tail(self, fn: Callable[..., Any], args: tuple) -> None:
        """Post ``fn(*args)`` at the current instant, or run it inline when
        the posted event would be the next one dispatched anyway (see the
        module docstring).  Only call this as the last action of a
        callback dispatched by :meth:`run`: nothing may follow it, in the
        caller or in any frame up to the kernel."""
        if self._inline and not self._fifo:
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
        if not period > 0:
            raise SimulationError("period must be positive")
        return PeriodicTask(self, period, fn, args, start)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_instant(self) -> tuple[float, Any]:
        """Remove the earliest future instant from the queue: its time and
        its entry (the held pair, or the heap instant's index entry)."""
        time = self._next_at
        entry = self._held
        if entry is not None:
            self._held = None
        else:
            heapq.heappop(self._heap)
            entry = self._index.pop(time)
        heap = self._heap
        self._next_at = heap[0] if heap else _INF
        return time, entry

    def _reach(self, time: float, entry: Any) -> None:
        """Move the callbacks of ``time``, the future instant just taken
        off the queue, into the (empty) FIFO and advance ``now`` to it.  A
        cancelled lone event is discarded instead, leaving ``now`` as it
        is."""
        if type(entry) is tuple:
            fn, args = entry
            if fn is None and args.cancelled:
                self.tombstones_skipped += 1
                return
            self._fifo.append(entry)
        else:
            if entry[0] is None:
                del entry[0]
            self._fifo.extend(entry)
        self._now = time

    def _discard_past_horizon(self) -> None:
        """Discard the cancelled events leading the queue, which lies past
        the run's horizon, so that ``pending`` then counts live events
        only: a cancelled lone event, and once it is gone, the cancelled
        events of its instant."""
        held = self._held
        if held is not None:
            if held[0] is not None or not held[1].cancelled:
                return
            self.tombstones_skipped += 1
            self._held = None
        heap = self._heap
        index = self._index
        while heap:
            time = heap[0]
            entry = index[time]
            lone, rest = (entry, ()) if type(entry) is tuple else (entry[0], entry[1:])
            if lone is not None and (lone[0] is not None or not lone[1].cancelled):
                break
            live = [e for e in rest if e[0] is not None or not e[1].cancelled]
            self.tombstones_skipped += len(rest) - len(live) + (lone is not None)
            if live:
                index[time] = [None, *live]
                break
            heapq.heappop(heap)
            del index[time]
        self._next_at = heap[0] if heap else _INF

    def step(self) -> bool:
        """Run the next pending event. Returns False when the queue is empty."""
        heap = self._heap
        fifo = self._fifo
        while fifo or heap or self._held is not None:
            if not fifo:
                self._reach(*self._pop_instant())
                continue
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
        self._running = self._inline = True
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
                else:
                    # _pop_instant, and _reach for a lone post, inlined
                    # (hot path: CPU wakes, think times, network hops)
                    time = self._next_at
                    if time > horizon:
                        self._discard_past_horizon()
                        break
                    entry = self._held
                    if entry is not None:
                        self._held = None
                    elif heap:
                        heappop(heap)
                        entry = index.pop(time)
                    else:
                        break
                    self._next_at = heap[0] if heap else _INF
                    if type(entry) is not tuple or entry[0] is None:
                        self._reach(time, entry)
                        continue
                    fn, args = entry
                    self._now = time
                fn(*args)
                dispatched += 1
        finally:
            self._running = self._inline = False
            self.events_processed += dispatched
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True
        self._inline = False


class Signal:
    """A one-shot event carrying an optional value or an error.

    Each callback waiting on it is posted when it fires, and reads
    ``value`` or ``error`` off it.  Firing twice is an error — installs,
    bounce ends and rebind ends happen once.
    """

    __slots__ = ("_kernel", "_callbacks", "fired", "value", "error")

    def __init__(self, kernel: SimKernel):
        self._kernel = kernel
        # Lazily allocated: most signals have at most one waiter.
        self._callbacks: Optional[list[Callable[["Signal"], None]]] = None
        self.fired = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def add_callback(self, fn: Callable[["Signal"], None]) -> None:
        """Run ``fn(self)`` when the signal fires (immediately if already
        fired)."""
        if self.fired:
            self._kernel.post(fn, self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> None:
        """Fire the signal successfully with ``value``."""
        if self.fired:
            raise RuntimeError("Signal already fired")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            post = self._kernel.post
            for fn in callbacks:
                post(fn, self)

    def fail(self, error: BaseException) -> None:
        """Fire the signal with ``error``; each waiter finds it on
        ``error``."""
        if self.fired:
            raise RuntimeError("Signal already fired")
        self.error = error
        self.succeed()


class PeriodicTask:
    """A self-rescheduling task created by :meth:`SimKernel.every`.

    Firings are scheduled on the absolute grid ``first + k*period`` (not
    ``now + period`` from inside each tick), so long runs accumulate no
    floating-point phase drift and co-periodic tasks share exact timestamps
    (one heap entry per instant instead of one per task).

    The task is its own queued handle: each firing queues the task itself
    (``fn=None, args=task``, as an :class:`Event` is queued), so a firing
    builds no :class:`Event`.  :meth:`cancel` turns the queued firing into
    a tombstone: :meth:`_take` then returns no callback.
    """

    __slots__ = (
        "_kernel",
        "period",
        "_fn",
        "_args",
        "cancelled",
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
        first = kernel.now + period if start is None else start
        if not first >= kernel.now:
            raise SimulationError(
                f"cannot schedule at t={first} (now is t={kernel.now})"
            )
        self._kernel = kernel
        self.period = period
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = 0
        self._first = first
        self._k = 0
        kernel._post_at(first, None, self)

    def _take(self) -> tuple:
        """The queued firing's callback and arguments; ``(None, ())`` once
        the task is cancelled."""
        if self.cancelled:
            return None, ()
        return self._tick, ()

    def _tick(self) -> None:
        self.fired += 1
        self._fn(*self._args)
        if not self.cancelled:
            self._k += 1
            self._kernel._post_at(self._first + self._k * self.period, None, self)

    def cancel(self) -> None:
        """Stop future firings; idempotent."""
        self.cancelled = True
