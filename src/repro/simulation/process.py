"""Generator-based simulated processes.

Actuator sequences (node allocation, install, start), C-JDBC's
recovery-log replay, deployment bounces and chaos schedules are easiest to
express as straight-line code interleaved with waits.  A :class:`Process`
drives a Python generator; the generator yields *commands*:

* ``sleep(dt)`` — suspend for ``dt`` seconds of simulated time;
* ``wait(signal)`` — suspend until a :class:`Signal` fires; the signal's
  value is returned by the ``yield`` expression.

The per-request path uses no process: emulated clients are callback state
machines (:class:`~repro.workload.cohort.ClientCohort`) and the servers
pass bound-method continuations, so a request resumes no generator.

Example
-------
>>> from repro.simulation import SimKernel, Process, Signal, sleep, wait
>>> k = SimKernel()
>>> done = Signal(k)
>>> def worker():
...     yield sleep(2.0)
...     done.succeed("finished")
>>> def waiter(log):
...     value = yield wait(done)
...     log.append((value, k.now))
>>> log = []
>>> _ = Process(k, worker())
>>> _ = Process(k, waiter(log))
>>> k.run()
>>> log
[('finished', 2.0)]
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterator, Optional

from repro.simulation.kernel import SimKernel


class Signal:
    """A one-shot event carrying an optional value.

    Multiple processes (or plain callbacks) may wait on the same signal; all
    are resumed when :meth:`succeed` or :meth:`fail` fires.  Firing twice is
    an error — signals are one-shot by design (request completions, repairs,
    synchronization points).
    """

    __slots__ = ("_kernel", "_callbacks", "fired", "value", "error")

    def __init__(self, kernel: SimKernel):
        self._kernel = kernel
        # Lazily allocated: most signals (request/job completions) have at
        # most one waiter, many have none.
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

    def succeed_tail(self, value: Any = None) -> None:
        """:meth:`succeed` from a tail position: a lone waiter is handed to
        :meth:`SimKernel._tail <repro.simulation.kernel.SimKernel._tail>`
        (run inline when that is exact); several waiters are posted as
        by :meth:`succeed`.  Call it only as the last statement of a
        callback chain dispatched by the kernel."""
        if self.fired:
            raise RuntimeError("Signal already fired")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if len(callbacks) == 1:
                self._kernel._tail(callbacks[0], (self,))
                return
            post = self._kernel.post
            for fn in callbacks:
                post(fn, self)

    def fail(self, error: BaseException) -> None:
        """Fire the signal with an error; waiting processes see it raised."""
        if self.fired:
            raise RuntimeError("Signal already fired")
        self.fired = True
        self.error = error
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            post = self._kernel.post
            for fn in callbacks:
                post(fn, self)


class _Sleep:
    __slots__ = ("duration",)

    def __init__(self, duration: float):
        self.duration = duration


class _Wait:
    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


def sleep(duration: float) -> _Sleep:
    """Command: suspend the yielding process for ``duration`` seconds."""
    return _Sleep(duration)


def wait(signal: Signal) -> _Wait:
    """Command: suspend the yielding process until ``signal`` fires."""
    return _Wait(signal)


class ProcessKilled(Exception):
    """Raised inside a process generator when it is killed."""


class Process:
    """Drives a generator as a simulated process.

    The process starts at the current simulated time (scheduled with
    ``call_soon``).  When the generator ends, :attr:`done` fires with the
    generator's return value (``StopIteration.value``).
    """

    def __init__(self, kernel: SimKernel, gen: Generator[Any, Any, Any], name: str = ""):
        if not isinstance(gen, Iterator):
            raise TypeError("Process expects a generator, got %r" % (gen,))
        self._kernel = kernel
        self._gen = gen
        self.name = name
        self.done = Signal(kernel)
        self.alive = True
        kernel.post(self._resume, None, None)

    def _resume(self, value: Any, error: Optional[BaseException]) -> None:
        if not self.alive:
            return
        try:
            if error is not None:
                command = self._gen.throw(error)
            else:
                command = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.done.succeed(stop.value)
            return
        except ProcessKilled:
            self.alive = False
            self.done.succeed(None)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, _Sleep):
            # Fire-and-forget: a sleeping process is resumed, never cancelled
            # (kill() flips ``alive`` and the resume no-ops), so a
            # handle-free post avoids one Event allocation per think-time.
            self._kernel.post_in(command.duration, self._resume, None, None)
        elif isinstance(command, _Wait):
            command.signal.add_callback(self._on_signal)
        elif isinstance(command, Signal):
            command.add_callback(self._on_signal)
        else:
            self.alive = False
            err = TypeError(f"process {self.name!r} yielded {command!r}")
            self.done.fail(err)
            raise err

    def _on_signal(self, signal: Signal) -> None:
        self._resume(signal.value, signal.error)

    def kill(self) -> None:
        """Terminate the process at its next resumption point.

        If the process is currently suspended, the generator is closed
        immediately and ``done`` fires.
        """
        if not self.alive:
            return
        self.alive = False
        self._gen.close()
        self.done.succeed(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
