"""Unit tests for the discrete-event kernel."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.kernel import SimKernel, SimulationError


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


class TestFastPaths:
    """The allocation-avoiding hot paths: pooled posts, same-timestamp
    buckets, and the event freelist."""

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

    def test_freelist_recycles_posted_events(self, kernel):
        """Pooled events return to the freelist after firing, so a long
        chain of posts reuses a bounded set of Event objects."""
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 500:
                kernel.post_in(0.1, tick)

        kernel.post_in(0.1, tick)
        kernel.run()
        assert count[0] == 500
        assert len(kernel._freelist) >= 1
        assert len(kernel._freelist) <= 500

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


def _collector_digest(col) -> str:
    h = hashlib.sha256()
    for series in (col.latencies, col.failures, col.node_cpu):
        h.update(series.times.astype("<f8").tobytes())
        h.update(series.values.astype("<f8").tobytes())
    h.update(repr({t: col.replica_changes(t) for t in sorted(col.tier_replicas)}).encode())
    h.update(repr(col.reconfigurations).encode())
    return h.hexdigest()


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
        return _collector_digest(collector), collector.completed_requests, system.kernel

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
