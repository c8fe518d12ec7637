"""Unit tests for generator processes and signals."""

import pytest

from repro.simulation.process import Process, Signal, sleep, wait


def test_sleep_suspends_for_duration(kernel):
    out = []

    def proc():
        yield sleep(2.0)
        out.append(kernel.now)
        yield sleep(3.0)
        out.append(kernel.now)

    Process(kernel, proc())
    kernel.run()
    assert out == [2.0, 5.0]


def test_wait_resumes_with_signal_value(kernel):
    sig = Signal(kernel)
    got = []

    def waiter():
        value = yield wait(sig)
        got.append(value)

    def firer():
        yield sleep(1.5)
        sig.succeed("payload")

    Process(kernel, waiter())
    Process(kernel, firer())
    kernel.run()
    assert got == ["payload"]


def test_wait_on_already_fired_signal(kernel):
    sig = Signal(kernel)
    sig.succeed(7)
    got = []

    def waiter():
        value = yield wait(sig)
        got.append((value, kernel.now))

    Process(kernel, waiter())
    kernel.run()
    assert got == [(7, 0.0)]


def test_multiple_waiters_all_resume(kernel):
    sig = Signal(kernel)
    got = []

    def waiter(tag):
        value = yield wait(sig)
        got.append((tag, value))

    for tag in "abc":
        Process(kernel, waiter(tag))
    kernel.schedule(1.0, sig.succeed, 42)
    kernel.run()
    assert sorted(got) == [("a", 42), ("b", 42), ("c", 42)]


def test_signal_failure_raises_in_process(kernel):
    sig = Signal(kernel)
    caught = []

    def waiter():
        try:
            yield wait(sig)
        except RuntimeError as exc:
            caught.append(str(exc))

    Process(kernel, waiter())
    kernel.schedule(1.0, sig.fail, RuntimeError("boom"))
    kernel.run()
    assert caught == ["boom"]


def test_signal_fires_once_only(kernel):
    sig = Signal(kernel)
    sig.succeed(1)
    with pytest.raises(RuntimeError):
        sig.succeed(2)


def test_done_signal_carries_return_value(kernel):
    def proc():
        yield sleep(1.0)
        return "result"

    p = Process(kernel, proc())
    kernel.run()
    assert p.done.fired
    assert p.done.value == "result"
    assert not p.alive


def test_kill_stops_suspended_process(kernel):
    out = []

    def proc():
        yield sleep(10.0)
        out.append("never")

    p = Process(kernel, proc())
    kernel.schedule(1.0, p.kill)
    kernel.run()
    assert out == []
    assert not p.alive
    assert p.done.fired


def test_kill_done_process_is_noop(kernel):
    def proc():
        yield sleep(1.0)

    p = Process(kernel, proc())
    kernel.run()
    p.kill()
    assert p.done.fired


def test_bad_yield_fails_process(kernel):
    def proc():
        yield "not a command"

    p = Process(kernel, proc())
    with pytest.raises(TypeError):
        kernel.run()
    assert not p.alive


def test_non_generator_rejected(kernel):
    with pytest.raises(TypeError):
        Process(kernel, lambda: None)


def test_nested_process_spawning(kernel):
    order = []

    def child():
        yield sleep(1.0)
        order.append(("child", kernel.now))

    def parent():
        order.append(("parent-start", kernel.now))
        p = Process(kernel, child())
        yield wait(p.done)
        order.append(("parent-end", kernel.now))

    Process(kernel, parent())
    kernel.run()
    assert order == [("parent-start", 0.0), ("child", 1.0), ("parent-end", 1.0)]


def test_callback_on_fired_signal_runs_soon(kernel):
    sig = Signal(kernel)
    sig.succeed("v")
    got = []
    sig.add_callback(lambda s: got.append(s.value))
    assert got == []  # deferred to the event loop
    kernel.run()
    assert got == ["v"]


def test_process_starts_at_creation_time(kernel):
    out = []

    def proc():
        out.append(kernel.now)
        yield sleep(0.5)

    kernel.schedule(3.0, lambda: Process(kernel, proc()))
    kernel.run()
    assert out == [3.0]
