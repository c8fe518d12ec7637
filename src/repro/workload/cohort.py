"""Aggregated client cohorts.

A :class:`ClientCohort` models ``K`` identical closed-loop clients as one
batched event stream: the cohort thinks once per cycle, issues a single
:class:`~repro.legacy.requests.WebRequest` of ``weight == K`` whose tier
demands are drawn as the *sum* of the constituents' demands (Gamma
additivity: the sum of ``K`` i.i.d. ``Gamma(shape, scale)`` draws is
``Gamma(K * shape, scale)``), and fans the completion back out
statistically — the metrics collector records ``K`` completions sharing
the cohort's latency sample.

Processor sharing sees the true concurrency: a weight-``K`` job counts as
``K`` concurrent requests for the capacity model and per-request rate
(:class:`~repro.simulation.resources.PsCpu`), so tier utilization and the
thrashing curve behave as if ``K`` individual clients were in service.

What is approximated: the ``K`` constituents move in lockstep (they think
and issue together), so short-timescale queueing variance is reduced
compared to ``K`` desynchronized clients.  Mean utilization and throughput
are preserved — the property tests in ``tests/test_cohort.py`` pin the
tolerance — and at ``K == 1`` the cohort is *event-for-event identical* to
the per-client emulation (every RNG draw has the same signature on the
same stream).

This is the engine-scaling lever for the Fig. 9 ramp at 100k–1M simulated
users: event cost per cycle is O(1) in ``K``.  Pair it with
``ExperimentConfig.hardware_scale`` (weak scaling) so the managed system
makes the same decisions as the calibrated 500-client testbed.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.legacy.requests import WebRequest
from repro.simulation.kernel import Event
from repro.workload.rubis import CLIENT_BLOCK, block_draws

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.clients import ClientEmulator


class ClientCohort:
    """``weight`` identical emulated browsers driven as one event stream.

    The closed loop is a callback state machine — think, issue, wait for
    the completion, think again — with one kernel event per step:

    * :meth:`start` posts :meth:`_begin` at the current instant; it fetches
      the think stream and the navigator and starts the first think;
    * :meth:`_think` draws a think time and posts :meth:`_issue` after it;
    * :meth:`_issue` builds the request, sets :meth:`_done` as its
      continuation, hands it to the entry point and arms the optional
      timeout (:meth:`_abandon`);
    * :meth:`_done` cancels the timeout, records the latency or the
      failure, and thinks again.

    ``active`` is checked before every think and again when it ends, so a
    deactivated cohort finishes its current request and stops.  With
    ``weight == 1`` this consumes exactly the same RNG draws in the same
    order as the historical per-client loop.
    """

    __slots__ = (
        "client_id",
        "weight",
        "active",
        "_emulator",
        "_draw_think",
        "_static_rng",
        "_navigator",
        "_request",
        "_timeout",
    )

    def __init__(self, client_id: int, weight: int = 1):
        if weight < 1:
            raise ValueError("cohort weight must be >= 1")
        self.client_id = client_id
        self.weight = weight
        self.active = True
        self._emulator: Optional["ClientEmulator"] = None
        self._draw_think: Optional[Callable[[], float]] = None
        #: the think stream when static documents interleave uniforms
        #: with the thinks on it, else None
        self._static_rng = None
        self._navigator = None
        #: the request in flight and its armed timeout
        self._request: Optional[WebRequest] = None
        self._timeout: Optional[Event] = None

    def start(self, emulator: "ClientEmulator") -> None:
        """Run the closed loop against ``emulator``, from the next event
        at the current instant."""
        self._emulator = emulator
        emulator.kernel.post(self._begin)

    def _begin(self) -> None:
        emulator = self._emulator
        cal = emulator.cal
        # Client ids are never reused, so the cohort owns its streams: a
        # fresh generator is the first ``get`` without the cache entry.
        rng = emulator.streams.fresh(f"client-think-{self.client_id}")
        if cal.static_fraction > 0.0:
            # A uniform draw interleaves with the thinks on this stream.
            self._static_rng = rng
            self._draw_think = partial(
                self._draw_scalar_think, rng, cal.think_time_mean_s
            )
        else:
            self._draw_think = block_draws(
                partial(rng.exponential, cal.think_time_mean_s), CLIENT_BLOCK
            ).__next__
        self._navigator = emulator._navigator_factory(self.client_id)
        if self.active:
            self._think()

    @staticmethod
    def _draw_scalar_think(rng, mean: float) -> float:
        return float(rng.exponential(mean))

    def _think(self) -> None:
        # A think time is an exponential draw, never negative: post
        # unchecked.
        kernel = self._emulator.kernel
        kernel._post_at(kernel._now + self._draw_think(), self._issue, ())

    def _issue(self) -> None:
        if not self.active:
            return
        emulator = self._emulator
        kernel = emulator.kernel
        cal = emulator.cal
        model = emulator.model
        weight = self.weight
        rng = self._static_rng
        if rng is not None and rng.random() < cal.static_fraction:
            request = WebRequest(
                kernel,
                "StaticDocument",
                is_static=True,
                static_demand=model._vary(cal.static_demand_s, weight),
                client_id=self.client_id,
                weight=weight,
            )
        else:
            inter = self._navigator.next_interaction()
            request = model.make_request(
                inter, client_id=self.client_id, weight=weight
            )
        emulator.requests_issued += weight
        self._request = request
        request.then = self._done
        emulator.entry(request)
        if emulator.request_timeout_s is not None and self._request is request:
            # (unless an entry that answered inside the call ran _done)
            self._timeout = kernel.schedule(
                emulator.request_timeout_s, self._abandon, request
            )

    def _abandon(self, request: WebRequest) -> None:
        emulator = self._emulator
        emulator.abandoned += self.weight
        request.fail(emulator.kernel, "client timeout")

    def _done(self, request: WebRequest) -> None:
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        emulator = self._emulator
        now = emulator.kernel._now
        if request.error is not None:
            emulator.collector.record_failure(now, self.weight)
        else:
            emulator.collector.record_latency(
                now, request.completed_at - request.issued_at, self.weight
            )
        self._request = None
        if self.active:
            self._think()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "stopped"
        return f"<ClientCohort #{self.client_id} x{self.weight} {state}>"
