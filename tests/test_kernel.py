"""Unit tests for the discrete-event kernel."""

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.kernel import SimKernel, SimulationError
from tests.conftest import collector_digest


@pytest.fixture
def events_built(monkeypatch):
    """A one-item list: the number of :class:`Event` handles the kernel
    builds while the test runs."""
    import repro.simulation.kernel as kernel_module

    built = [0]
    real_event = kernel_module.Event

    def counting_event(*args):
        built[0] += 1
        return real_event(*args)

    monkeypatch.setattr(kernel_module, "Event", counting_event)
    return built


def test_initial_time_is_zero(kernel):
    assert kernel.now == 0.0


def test_events_run_in_time_order(kernel):
    out = []
    kernel.schedule(2.0, out.append, "b")
    kernel.schedule(1.0, out.append, "a")
    kernel.schedule(3.0, out.append, "c")
    kernel.run()
    assert out == ["a", "b", "c"]


def test_ties_break_fifo(kernel):
    out = []
    for tag in range(5):
        kernel.schedule(1.0, out.append, tag)
    kernel.run()
    assert out == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time(kernel):
    seen = []
    kernel.schedule(4.5, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [4.5]
    assert kernel.now == 4.5


def test_schedule_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected(kernel):
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.schedule_at(1.0, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda k: k.schedule(NAN, lambda: None),
        lambda k: k.schedule_at(NAN, lambda: None),
        lambda k: k.post_in(NAN, lambda: None),
        lambda k: k.post_at(NAN, lambda: None),
        lambda k: k.every(NAN, lambda: None),
        lambda k: k.every(1.0, lambda: None, start=NAN),
    ],
    ids=["schedule", "schedule_at", "post_in", "post_at", "every", "every-start"],
)
def test_nan_time_rejected(kernel, call):
    """A NaN time compares false both ways: queued, it would sit in the
    heap and reorder the events around it."""
    out = []
    kernel.post_at(1.0, out.append, 1.0)
    kernel.post_at(2.0, out.append, 2.0)
    with pytest.raises(SimulationError):
        call(kernel)
    kernel.post_at(0.5, out.append, 0.5)
    assert kernel.pending == 3
    kernel.run()
    assert out == [0.5, 1.0, 2.0]


def test_cancel_prevents_execution(kernel):
    out = []
    ev = kernel.schedule(1.0, out.append, "x")
    ev.cancel()
    kernel.run()
    assert out == []


def test_cancel_is_idempotent(kernel):
    ev = kernel.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    kernel.run()


def test_run_until_stops_before_later_events(kernel):
    out = []
    kernel.schedule(1.0, out.append, "early")
    kernel.schedule(10.0, out.append, "late")
    kernel.run(until=5.0)
    assert out == ["early"]
    assert kernel.now == 5.0
    kernel.run()
    assert out == ["early", "late"]


def test_run_until_executes_events_at_boundary(kernel):
    out = []
    kernel.schedule(5.0, out.append, "boundary")
    kernel.run(until=5.0)
    assert out == ["boundary"]


def test_run_until_advances_time_when_queue_drains(kernel):
    kernel.run(until=42.0)
    assert kernel.now == 42.0


def test_events_scheduled_during_run_execute(kernel):
    out = []

    def first():
        kernel.schedule(1.0, out.append, "second")
        out.append("first")

    kernel.schedule(1.0, first)
    kernel.run()
    assert out == ["first", "second"]


def test_call_soon_runs_at_current_time(kernel):
    out = []
    kernel.schedule(3.0, lambda: kernel.call_soon(out.append, kernel.now))
    kernel.run()
    assert out == [3.0]


def test_stop_halts_run(kernel):
    out = []
    kernel.schedule(1.0, kernel.stop)
    kernel.schedule(2.0, out.append, "never")
    kernel.run()
    assert out == []
    assert kernel.pending == 1


def test_step_executes_single_event(kernel):
    out = []
    kernel.schedule(1.0, out.append, 1)
    kernel.schedule(2.0, out.append, 2)
    assert kernel.step()
    assert out == [1]
    assert kernel.step()
    assert out == [1, 2]
    assert not kernel.step()


def test_events_processed_counter(kernel):
    for _ in range(7):
        kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.events_processed == 7


def test_reentrant_run_rejected(kernel):
    def inner():
        with pytest.raises(SimulationError):
            kernel.run()

    kernel.schedule(1.0, inner)
    kernel.run()


class TestTombstones:
    """Cancelled events are skipped, discarded, and accounted for."""

    def test_cancelled_head_discarded_past_until(self, kernel):
        out = []
        late = kernel.schedule(10.0, out.append, "late")
        kernel.schedule(1.0, out.append, "early")
        late.cancel()
        kernel.run(until=5.0)
        # The tombstone sat at the heap head beyond the horizon; it must
        # still be discarded rather than left pending forever.
        assert out == ["early"]
        assert kernel.pending == 0
        assert kernel.tombstones_skipped == 1

    def test_cancelled_instant_compacted_past_until(self, kernel):
        """Past the horizon, a cancelled head is discarded, and so are the
        cancelled events queued behind it at its instant."""
        first = kernel.schedule(10.0, lambda: None)
        second = kernel.schedule(10.0, lambda: None)
        kernel.schedule(10.0, lambda: None)
        first.cancel()
        second.cancel()
        kernel.run(until=5.0)
        assert kernel.pending == 1
        assert kernel.tombstones_skipped == 2
        assert kernel.now == 5.0

    def test_cancelled_instant_reached_moves_now(self, kernel):
        """The cancelled first event of an instant is discarded without
        moving ``now``; a cancelled event queued behind it is reached at
        its instant, so ``now`` moves there."""
        kernel.schedule_at(1.0, lambda: None).cancel()
        kernel.schedule_at(1.0, lambda: None).cancel()
        kernel.run()
        assert kernel.now == 1.0
        assert kernel.tombstones_skipped == 2
        assert kernel.pending == 0

    def test_cancelled_instant_past_until_keeps_now(self, kernel):
        kernel.schedule_at(1.0, lambda: None).cancel()
        kernel.schedule_at(1.0, lambda: None).cancel()
        kernel.run(until=0.5)
        assert kernel.now == 0.5
        assert kernel.tombstones_skipped == 2
        assert kernel.pending == 0

    def test_survivors_of_compacted_instant_are_not_first(self, kernel):
        """Once the first event of an instant is discarded past a horizon,
        the events left there follow no first event: cancelling them all
        and reaching them moves ``now``, and a later horizon discards a
        cancelled one even behind a live one."""
        kernel.schedule_at(1.0, lambda: None).cancel()
        survivor = kernel.schedule_at(1.0, lambda: None)
        kernel.run(until=0.5)
        assert kernel.pending == 1
        survivor.cancel()
        kernel.run()
        assert kernel.now == 1.0
        assert kernel.tombstones_skipped == 2

        kernel = SimKernel()
        kernel.schedule_at(1.0, lambda: None).cancel()
        kernel.schedule_at(1.0, lambda: None)
        behind = kernel.schedule_at(1.0, lambda: None)
        kernel.run(until=0.5)
        behind.cancel()
        kernel.run(until=0.75)
        assert kernel.pending == 1
        assert kernel.tombstones_skipped == 2

    def test_live_event_past_until_stays_pending(self, kernel):
        kernel.schedule(10.0, lambda: None)
        kernel.run(until=5.0)
        assert kernel.pending == 1
        assert kernel.tombstones_skipped == 0

    def test_tombstones_not_counted_as_processed(self, kernel):
        events = [kernel.schedule(1.0, lambda: None) for _ in range(5)]
        for ev in events[:3]:
            ev.cancel()
        kernel.run()
        assert kernel.events_processed == 2
        assert kernel.tombstones_skipped == 3
        assert kernel.pending == 0

    def test_step_skips_tombstones(self, kernel):
        out = []
        kernel.schedule(1.0, out.append, "a").cancel()
        kernel.schedule(2.0, out.append, "b")
        assert kernel.step()
        assert out == ["b"]
        assert kernel.tombstones_skipped == 1
        assert not kernel.step()

    def test_cancel_during_run_of_same_instant(self, kernel):
        """An event cancelled by an earlier event at the same timestamp
        must not fire."""
        out = []
        victim = kernel.schedule(1.0, out.append, "victim")
        kernel.schedule(1.0, victim.cancel)
        kernel.run()
        # FIFO puts the victim first; its cancel arrives too late.
        assert out == ["victim"]
        out.clear()
        kernel2 = SimKernel()
        canceller_first = []
        victim2 = [None]

        def cancel_it():
            victim2[0].cancel()
            canceller_first.append("cancelled")

        kernel2.schedule(1.0, cancel_it)
        victim2[0] = kernel2.schedule(1.0, out.append, "victim")
        kernel2.run()
        assert out == []
        assert kernel2.tombstones_skipped == 1


class TestPeriodicTask:
    def test_fires_every_period(self, kernel):
        out = []
        kernel.every(1.0, lambda: out.append(kernel.now))
        kernel.run(until=5.5)
        assert out == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_custom_start(self, kernel):
        out = []
        kernel.every(2.0, lambda: out.append(kernel.now), start=0.5)
        kernel.run(until=5.0)
        assert out == [0.5, 2.5, 4.5]

    def test_cancel_stops_firing(self, kernel):
        out = []
        task = kernel.every(1.0, lambda: out.append(kernel.now))
        kernel.schedule(2.5, task.cancel)
        kernel.run(until=10.0)
        assert out == [1.0, 2.0]
        assert task.cancelled

    def test_cancel_from_inside_callback(self, kernel):
        task_box = []

        def tick():
            task_box[0].cancel()

        task_box.append(kernel.every(1.0, tick))
        kernel.run(until=10.0)
        assert task_box[0].fired == 1

    def test_self_cancel_schedules_no_successor(self, kernel):
        """A task that cancels itself mid-tick must not leave a pending
        reschedule behind (the queue drains completely)."""
        task_box = []
        task_box.append(kernel.every(1.0, lambda: task_box[0].cancel()))
        kernel.run(until=10.0)
        assert kernel.pending == 0
        assert task_box[0].cancelled

    def test_cancel_then_fire_same_instant(self, kernel):
        """Cancelling at exactly the task's next fire time: FIFO order puts
        the tick first, so it still fires once before stopping."""
        out = []
        task = kernel.every(1.0, lambda: out.append(kernel.now))
        kernel.schedule(1.0, task.cancel)
        kernel.run(until=5.0)
        assert out == [1.0]
        assert task.fired == 1

    def test_zero_period_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.every(0.0, lambda: None)

    def test_fired_counter(self, kernel):
        task = kernel.every(1.0, lambda: None)
        kernel.run(until=3.0)
        assert task.fired == 3

    def test_firings_allocate_no_event_handles(self, kernel, events_built):
        """The task is its own queued handle: firing N times builds no
        Event and leaves only the next firing queued."""
        task = kernel.every(0.5, lambda: None)
        kernel.run(until=250.0)
        assert task.fired == 500
        assert kernel.events_processed == 500
        assert kernel.pending == 1
        assert events_built == [0]

    def test_cancelled_firing_is_a_tombstone(self, kernel):
        """A cancelled task's queued firing counts as pending until the
        kernel reaches it, then is skipped without moving ``now``."""
        task = kernel.every(1.0, lambda: None)
        kernel.run(until=1.5)
        task.cancel()
        assert kernel.pending == 1
        processed, skipped = kernel.events_processed, kernel.tombstones_skipped
        kernel.run()
        assert kernel.now == 1.5
        assert kernel.pending == 0
        assert kernel.events_processed == processed
        assert kernel.tombstones_skipped == skipped + 1
        assert task.fired == 1

    def test_start_in_past_rejected(self, kernel):
        kernel.run(until=5.0)
        for start in (2.0, float("nan")):
            with pytest.raises(SimulationError):
                kernel.every(1.0, lambda: None, start=start)
        assert kernel.pending == 0


class TestFastPaths:
    """The allocation-avoiding hot paths: handle-free posts and
    same-timestamp buckets."""

    def test_post_orders_with_scheduled_events(self, kernel):
        """Posts and schedules at the same timestamp run in submission
        order (global FIFO, regardless of which path enqueued them)."""
        out = []
        kernel.schedule_at(1.0, out.append, "a")
        kernel.post_at(1.0, out.append, "b")
        kernel.schedule_at(1.0, out.append, "c")
        kernel.post_at(1.0, out.append, "d")
        kernel.run()
        assert out == ["a", "b", "c", "d"]

    def test_post_in_past_rejected(self, kernel):
        from repro.simulation.kernel import SimulationError

        kernel.schedule_at(5.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.post_at(1.0, lambda: None)

    def test_post_counts_as_pending_and_processed(self, kernel):
        kernel.post_in(1.0, lambda: None)
        kernel.post_in(1.0, lambda: None)
        kernel.schedule(1.0, lambda: None)
        assert kernel.pending == 3
        kernel.run()
        assert kernel.pending == 0
        assert kernel.events_processed == 3

    def test_post_chain_allocates_no_event_handles(self, kernel, events_built):
        """A long chain of posts builds no Event handle and leaves
        nothing queued."""
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 500:
                kernel.post_in(0.1, tick)

        kernel.post_in(0.1, tick)
        kernel.run()
        assert count[0] == 500
        assert kernel.pending == 0
        assert kernel.events_processed == 500
        assert events_built == [0]

    def test_co_timed_schedules_share_one_heap_entry(self, kernel):
        """Events scheduled at one future timestamp coalesce into a
        single heap entry."""
        for _ in range(300):
            kernel.schedule_at(2.0, lambda: None)
        assert kernel.pending == 300
        assert len(kernel._heap) == 1

    def test_bucket_fifo_across_many_ties(self, kernel):
        """Hundreds of events on one timestamp drain in submission order
        through the bucket path."""
        out = []
        for i in range(300):
            kernel.schedule_at(2.0, out.append, i)
        kernel.run()
        assert out == list(range(300))

    def test_step_through_bucketed_events(self, kernel):
        """step() honours bucket order one event at a time."""
        out = []
        for i in range(5):
            kernel.schedule_at(1.0, out.append, i)
        for expect in range(5):
            assert kernel.step()
            assert out == list(range(expect + 1))
        assert not kernel.step()

    def test_cancel_inside_bucket(self, kernel):
        out = []
        kernel.schedule_at(1.0, out.append, "a")
        victim = kernel.schedule_at(1.0, out.append, "b")
        kernel.schedule_at(1.0, out.append, "c")
        victim.cancel()
        kernel.run()
        assert out == ["a", "c"]

    def test_run_until_between_bucket_and_later_events(self, kernel):
        out = []
        for i in range(3):
            kernel.schedule_at(1.0, out.append, i)
        kernel.schedule_at(2.0, out.append, "late")
        kernel.run(until=1.5)
        assert out == [0, 1, 2]
        kernel.run(until=3.0)
        assert out == [0, 1, 2, "late"]


class TestPeriodicDrift:
    def test_absolute_rescheduling_does_not_drift(self, kernel):
        """Fire times are first + k*period exactly; repeated `now + period`
        addition would accumulate float error over thousands of ticks."""
        out = []
        kernel.every(0.1, lambda: out.append(kernel.now))
        kernel.run(until=1000.05)
        assert len(out) == 10_000
        # Exact, not approx: the k-th tick is literally 0.1 + k * 0.1.
        assert out[0] == 0.1
        assert out[4999] == 0.1 + 4999 * 0.1
        assert out[-1] == 0.1 + 9999 * 0.1
        worst = max(abs(t - 0.1 * (k + 1)) for k, t in enumerate(out))
        assert worst < 1e-9


class TestTailDispatch:
    """``_tail`` runs a continuation inline only when the posted event
    would have been dispatched next anyway."""

    def _tailing(self, kernel, out, tag, cont):
        """A callback that logs ``tag`` then tail-calls ``out.append(cont)``."""

        def cb():
            out.append(tag)
            kernel._tail(out.append, (cont,))

        return cb

    def test_inline_when_nothing_pending_at_now(self, kernel):
        out = []
        kernel.schedule(1.0, self._tailing(kernel, out, "a", "a+"))
        kernel.schedule(2.0, out.append, "b")
        kernel.run()
        assert out == ["a", "a+", "b"]
        assert kernel.tail_dispatched == 1
        assert kernel.events_processed == 2
        assert kernel.pending == 0

    def test_posts_inside_step(self, kernel):
        out = []
        kernel.schedule(1.0, self._tailing(kernel, out, "a", "a+"))
        assert kernel.step()
        assert out == ["a"]
        assert kernel.tail_dispatched == 0
        assert kernel.pending == 1
        kernel.run()
        assert out == ["a", "a+"]
        assert kernel.tail_dispatched == 0
        assert kernel.events_processed == 2

    def test_posts_after_stop(self, kernel):
        out = []

        def cb():
            out.append("a")
            kernel.stop()
            kernel._tail(out.append, ("a+",))

        kernel.schedule(1.0, cb)
        kernel.run()
        assert out == ["a"]
        assert kernel.pending == 1 and kernel.tail_dispatched == 0
        kernel.run()
        assert out == ["a", "a+"]
        assert kernel.tail_dispatched == 0

    def test_posts_behind_pending_same_instant_event(self, kernel):
        out = []
        kernel.schedule(1.0, self._tailing(kernel, out, "a", "a+"))
        kernel.schedule(1.0, out.append, "b")  # promotes t=1 to a bucket
        kernel.run()
        assert out == ["a", "b", "a+"]
        assert kernel.tail_dispatched == 0
        assert kernel.events_processed == 3

    def test_posts_behind_cancelled_same_instant_event(self, kernel):
        out = []
        kernel.schedule(1.0, self._tailing(kernel, out, "a", "a+"))
        kernel.schedule(1.0, out.append, "x").cancel()
        kernel.run()
        assert out == ["a", "a+"]
        assert kernel.tail_dispatched == 0
        assert kernel.tombstones_skipped == 1

    def test_partly_then_fully_drained_bucket(self, kernel):
        out = []
        kernel.schedule(1.0, out.append, "lone")
        # These three share one bucket behind the lone head event.
        kernel.schedule(1.0, self._tailing(kernel, out, "b1", "b1+"))
        kernel.schedule(1.0, out.append, "b2")
        kernel.schedule(1.0, self._tailing(kernel, out, "b3", "b3+"))
        kernel.run()
        # b1 runs with b2 and b3 still queued: its continuation is posted
        # behind them.  b3 then runs with b1+ still queued: posted too.
        assert out == ["lone", "b1", "b2", "b3", "b1+", "b3+"]
        assert kernel.tail_dispatched == 0
        kernel.schedule(1.0, out.append, "c1")
        kernel.schedule(1.0, self._tailing(kernel, out, "c2", "c2+"))
        kernel.run()
        # c2 is the last event of its bucket: its continuation runs inline.
        assert out[-3:] == ["c1", "c2", "c2+"]
        assert kernel.tail_dispatched == 1

    def test_chained_tails_stay_inline(self, kernel):
        out = []

        def hop(n):
            out.append(n)
            if n < 5:
                kernel._tail(hop, (n + 1,))

        kernel.schedule(1.0, hop, 0)
        kernel.run()
        assert out == [0, 1, 2, 3, 4, 5]
        assert kernel.events_processed == 1
        assert kernel.tail_dispatched == 5


# -- tail dispatch vs an always-post reference --------------------------

_OPS = ("post", "post_in", "schedule", "cancelled", "tail", "stop")


@st.composite
def _programs(draw):
    """A forest of callbacks: node ``i`` is an action of its parent's
    callback (or, with parent -1, scheduled before the run), plus the
    ``run(until=...)`` chunks the driver resumes through."""
    nodes = []
    for i in range(draw(st.integers(1, 40))):
        parent = draw(st.integers(-1, i - 1))
        op = draw(st.sampled_from(_OPS))
        delay = draw(st.sampled_from((0.0, 0.5, 1.0)))
        nodes.append((parent, op, delay))
    chunks = draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)), max_size=3))
    return nodes, sorted(chunks)


def _execute(program, always_post):
    nodes, chunks = program
    kernel = SimKernel()
    if always_post:
        kernel._tail = lambda fn, args: kernel._post_at(kernel.now, fn, args)
    children = {i: [] for i in range(-1, len(nodes))}
    for i, (parent, _, _) in enumerate(nodes):
        children[parent].append(i)
    log = []

    def callback(i):
        def cb():
            log.append((i, kernel.now))
            tail = None
            for j in children[i]:
                _, op, delay = nodes[j]
                if op == "post":
                    kernel.post(callback(j))
                elif op == "post_in":
                    kernel.post_in(delay, callback(j))
                elif op == "schedule":
                    kernel.schedule(delay, callback(j))
                elif op == "cancelled":
                    kernel.schedule(delay, callback(j)).cancel()
                elif op == "stop":
                    kernel.stop()
                elif tail is None:
                    tail = j
                else:  # only one tail call per callback: post the others
                    kernel.post(callback(j))
            if tail is not None:
                kernel._tail(callback(tail), ())  # the last action

        return cb

    for j in children[-1]:
        kernel.schedule_at(2.0 * nodes[j][2], callback(j))
    # Log where each run() returns, so work done before a stop() or a
    # horizon is told apart from work done after the resume.
    for until in chunks:
        kernel.run(until=until)
        log.append(("returned", kernel.now))
    while kernel.pending:
        kernel.run()
        log.append(("returned", kernel.now))
    return log, kernel


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_tail_dispatch_preserves_callback_order(program):
    log, kernel = _execute(program, always_post=False)
    ref_log, ref = _execute(program, always_post=True)
    assert log == ref_log
    assert ref.tail_dispatched == 0
    assert kernel.events_processed + kernel.tail_dispatched == ref.events_processed
    assert kernel.tombstones_skipped == ref.tombstones_skipped
    assert kernel.now == ref.now


# -- the kernel against a reference queue ------------------------------


class _RefQueue:
    """The kernel's contract as a list sorted by ``(time, seq)``, with no
    buckets and no tail dispatch (``_tail`` posts).

    Two rules of the contract depend on how an instant's events were
    queued.  The first event queued at a future instant with nothing
    else queued there is its *lone* event; the rest of the instant
    follows it.  A cancelled lone event is discarded when it leads the
    queue, even past a horizon, without moving ``now``; reaching any
    other cancelled event moves ``now`` to its instant.  A run stopped
    by its horizon discards every cancelled event of the leading
    instant once its lone event is gone."""

    class Entry:
        def __init__(self, time, seq, fn, lone):
            self.time, self.seq, self.fn, self.lone = time, seq, fn, lone
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    class Periodic:
        """``every``: each firing queues the next one on the absolute
        grid after its callback returns, unless cancelled."""

        def __init__(self, ref, period, fn):
            self.ref, self.period, self.fn = ref, period, fn
            self.first, self.k, self.cancelled = ref.now + period, 0, False
            self.entry = ref.schedule_at(self.first, self.tick)

        def tick(self):
            self.fn()
            if not self.cancelled:
                self.k += 1
                self.entry = self.ref.schedule_at(
                    self.first + self.k * self.period, self.tick
                )

        def cancel(self):
            self.cancelled = True
            self.entry.cancel()

    def __init__(self):
        self.q, self.seq, self.now, self.stopped = [], 0, 0.0, False
        self.events_processed = self.tombstones_skipped = self.tail_dispatched = 0

    @property
    def pending(self):
        return len(self.q)

    def schedule_at(self, time, fn):
        self.seq += 1
        lone = time > self.now and all(e.time != time for e in self.q)
        entry = self.Entry(time, self.seq, fn, lone)
        self.q.append(entry)
        self.q.sort(key=lambda e: (e.time, e.seq))
        return entry

    post_at = schedule_at

    def schedule(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    post_in = schedule

    def call_soon(self, fn):
        return self.schedule_at(self.now, fn)

    post = call_soon

    def every(self, period, fn):
        return self.Periodic(self, period, fn)

    def _tail(self, fn, args):
        self.schedule_at(self.now, functools.partial(fn, *args))

    def stop(self):
        self.stopped = True

    def _next(self, horizon):
        """Pop up to the next live event due by ``horizon``."""
        while self.q:
            head = self.q[0]
            if head.time > horizon and not (head.cancelled and head.lone):
                if head.lone:
                    return None
                instant = [e for e in self.q if e.time == head.time]
                dropped = [e for e in instant if e.cancelled]
                self.tombstones_skipped += len(dropped)
                self.q = [e for e in self.q if e not in dropped]
                if len(dropped) < len(instant):
                    return None
                continue
            self.q.pop(0)
            if not head.cancelled:
                self.now = head.time
                return head
            self.tombstones_skipped += 1
            if not head.lone:
                self.now = head.time
        return None

    def step(self):
        head = self._next(float("inf"))
        if head is not None:
            head.fn()
            self.events_processed += 1
        return head is not None

    def run(self, until=None):
        horizon = float("inf") if until is None else until
        self.stopped = False
        while not self.stopped and (head := self._next(horizon)) is not None:
            head.fn()
            self.events_processed += 1
        if until is not None and self.now < until and not self.stopped:
            self.now = until


#: the operations that return a cancellable handle
_HANDLE_OPS = ("schedule", "schedule_at", "call_soon", "every")
_CALLBACK_OPS = _HANDLE_OPS + (
    "post", "post_in", "post_at", "cancel", "tail", "stop", "fork"
)


@st.composite
def _kernel_programs(draw):
    """A forest of callbacks (node ``i`` is an action of its parent's
    callback, or with parent -1 of the test before the first call) and
    the sequence of ``step``/``run`` calls that advances the kernel."""
    nodes = []
    for i in range(draw(st.integers(1, 40))):
        nodes.append((
            draw(st.integers(-1, i - 1)),
            # extra weight on "cancel": tombstones at a horizon need two
            # cancelled events queued at one instant
            draw(st.sampled_from(_CALLBACK_OPS + ("cancel", "cancel"))),
            # off the half-second grid too, so that a post strictly
            # earlier than the held instant displaces it
            draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))),
            draw(st.integers(0, max(i - 1, 0))),  # what a "cancel" cancels
        ))
    calls = draw(st.lists(st.sampled_from(("step", 0.0, 0.5, 1.5, None)), max_size=6))
    return nodes, calls


class _Driver:
    """Runs a program's callbacks on a kernel or on the reference queue.

    Picklable with its queue, so that a ``fork`` action can copy it from
    inside a callback: the callback stops the run and pickles the
    driver as its last action, and the program finishes on the copy.
    An ``every`` task fires three times (its children act on the first
    firing) and then cancels itself.  Its callback is followed by the
    task's own reschedule, so it makes no tail call and no fork."""

    def __init__(self, nodes, kernel):
        self.nodes, self.kernel = nodes, kernel
        self.children = {i: [] for i in range(-1, len(nodes))}
        for i, (parent, *_) in enumerate(nodes):
            self.children[parent].append(i)
        self.handles, self.log, self.firings = {}, [], {}
        self.fork = None

    def act(self, i):
        kernel = self.kernel
        periodic = i >= 0 and self.nodes[i][1] == "every"
        kids = self.children[i]
        forks = i >= 0 and not periodic and any(self.nodes[j][1] == "fork" for j in kids)
        tail = None
        for j in kids:
            _, op, delay, target = self.nodes[j]
            now = kernel.now
            cb = functools.partial(self.fire, j)
            if op in ("schedule", "post_in"):
                self.handles[j] = getattr(kernel, op)(delay, cb)
            elif op in ("schedule_at", "post_at"):
                self.handles[j] = getattr(kernel, op)(now + delay, cb)
            elif op in ("call_soon", "post"):
                self.handles[j] = getattr(kernel, op)(cb)
            elif op == "every":
                self.handles[j] = kernel.every(delay or 1.0, cb)
            elif op == "cancel":
                if target in self.handles and self.nodes[target][1] in _HANDLE_OPS:
                    self.handles[target].cancel()
            elif op == "stop":
                kernel.stop()
            elif op == "fork":
                pass
            elif tail is None and not (periodic or forks):
                tail = j
            else:  # one tail call per callback, and none beside a fork
                kernel.post(cb)
        if forks:  # the last action
            kernel.stop()
            self.fork = pickle.dumps(self)
        elif tail is not None:
            kernel._tail(functools.partial(self.fire, tail), ())  # the last action

    def fire(self, i):
        self.log.append((i, self.kernel.now))
        if self.nodes[i][1] == "every":
            fired = self.firings[i] = self.firings.get(i, 0) + 1
            if fired == 3:
                self.handles[i].cancel()
            if fired > 1:
                return
        self.act(i)

    def resume(self):
        """The driver to go on with: the copy, if a callback forked.  The
        copy's ``events_processed`` omits the events dispatched by the
        interrupted call (it would add them when that call returns), so
        it takes the parent's count."""
        if self.fork is None:
            return self
        copy = pickle.loads(self.fork)
        copy.kernel.events_processed = self.kernel.events_processed
        return copy


def _drive(program, kernel):
    """Run ``program`` on ``kernel``; returns the dispatch log and the
    counters after each ``step``/``run`` call."""
    nodes, calls = program
    driver = _Driver(nodes, kernel)
    driver.act(-1)
    states = []

    def record(call):
        kernel = driver.kernel
        states.append((
            call, kernel.now, kernel.pending, kernel.tombstones_skipped,
            kernel.events_processed + kernel.tail_dispatched, len(driver.log),
        ))

    for call in calls:
        kernel = driver.kernel
        if call == "step":
            kernel.step()
        else:
            kernel.run(until=None if call is None else kernel.now + call)
        driver = driver.resume()
        record(call)
    while driver.kernel.pending:
        driver.kernel.run()
        driver = driver.resume()
        record("drain")
    return driver.log, states


@settings(max_examples=400, deadline=None)
@given(_kernel_programs())
def test_kernel_matches_reference_queue(program):
    """Dispatch order, ``now`` and the counters of the kernel equal
    those of the reference queue, whatever mix of scheduling, posting,
    periodic tasks, cancelling, tail calls, steps, horizons, stops and
    pickled copies a program makes."""
    log, states = _drive(program, SimKernel())
    ref_log, ref_states = _drive(program, _RefQueue())
    assert log == ref_log
    assert states == ref_states
    for *_, counted, ran in states:
        assert counted == ran


@pytest.mark.parametrize("managed", [True, False], ids=["managed", "static"])
def test_tail_dispatch_ramp_matches_always_post(managed, monkeypatch):
    """The Fig. 9 ramp at scale 0.05 produces the same outputs with tail
    dispatch as with every tail call posted, and the same simulated work
    (dispatched + inline == the reference's dispatched events)."""
    from repro.jade.system import ExperimentConfig, ManagedSystem
    from repro.workload.profiles import RampProfile

    def run():
        scale = 0.05
        profile = RampProfile(
            warmup_s=300.0 * scale, step_period_s=60.0 * scale, cooldown_s=300.0 * scale
        )
        system = ManagedSystem(ExperimentConfig(profile=profile, seed=1, managed=managed))
        collector = system.run()
        return collector_digest(collector), collector.completed_requests, system.kernel

    digest, completed, kernel = run()
    with monkeypatch.context() as m:
        m.setattr(
            SimKernel, "_tail", lambda self, fn, args: self._post_at(self.now, fn, args)
        )
        ref_digest, ref_completed, ref = run()
    assert completed > 0 and completed == ref_completed
    assert digest == ref_digest
    assert ref.tail_dispatched == 0 and kernel.tail_dispatched > 0
    assert kernel.events_processed + kernel.tail_dispatched == ref.events_processed
