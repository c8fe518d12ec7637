"""Unit tests for signals: the one-shot completions that the management
layer's state machines wait on with ``add_callback``."""

import pytest

from repro.simulation.kernel import Signal


def test_wait_resumes_with_signal_value(kernel):
    sig = Signal(kernel)
    got = []
    sig.add_callback(lambda s: got.append((s.value, kernel.now)))
    kernel.post_in(1.5, sig.succeed, "payload")
    kernel.run()
    assert got == [("payload", 1.5)]


def test_wait_on_already_fired_signal(kernel):
    sig = Signal(kernel)
    sig.succeed(7)
    got = []
    sig.add_callback(lambda s: got.append((s.value, kernel.now)))
    kernel.run()
    assert got == [(7, 0.0)]


def test_multiple_waiters_all_resume(kernel):
    sig = Signal(kernel)
    got = []
    for tag in "abc":
        sig.add_callback(lambda s, tag=tag: got.append((tag, s.value)))
    kernel.schedule(1.0, sig.succeed, 42)
    kernel.run()
    assert got == [("a", 42), ("b", 42), ("c", 42)]
    assert kernel.events_processed == 4  # the firing + one post per waiter


def test_signal_failure_raises_in_process(kernel):
    """A failed signal hands its error to the waiter, which raises it in
    its own step (as the grow sequence does with a failed install)."""
    sig = Signal(kernel)
    caught = []

    def waiter(s):
        try:
            if s.error is not None:
                raise s.error
        except RuntimeError as exc:
            caught.append((str(exc), s.value))

    sig.add_callback(waiter)
    kernel.schedule(1.0, sig.fail, RuntimeError("boom"))
    kernel.run()
    assert caught == [("boom", None)]


def test_signal_fires_once_only(kernel):
    sig = Signal(kernel)
    sig.succeed(1)
    with pytest.raises(RuntimeError):
        sig.succeed(2)
    with pytest.raises(RuntimeError):
        sig.fail(RuntimeError("late"))


def test_callback_on_fired_signal_runs_soon(kernel):
    sig = Signal(kernel)
    sig.succeed("v")
    got = []
    sig.add_callback(lambda s: got.append(s.value))
    assert got == []  # deferred to the event loop
    kernel.run()
    assert got == ["v"]
