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
(:class:`~repro.simulation.resources.CpuJob`), so tier utilization and the
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
from typing import TYPE_CHECKING, Optional

from repro.legacy.requests import WebRequest
from repro.simulation.process import Process, sleep, wait
from repro.workload.rubis import CLIENT_BLOCK, block_draws

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.clients import ClientEmulator


class ClientCohort:
    """``weight`` identical emulated browsers driven as one event stream."""

    __slots__ = ("client_id", "weight", "active", "process")

    def __init__(self, client_id: int, weight: int = 1):
        if weight < 1:
            raise ValueError("cohort weight must be >= 1")
        self.client_id = client_id
        self.weight = weight
        self.active = True
        self.process: Optional[Process] = None

    def session(self, emulator: "ClientEmulator"):
        """The batched closed loop: think, request (weight-K), wait, repeat.

        With ``weight == 1`` this consumes exactly the same RNG draws in
        the same order as the historical per-client loop.
        """
        kernel = emulator.kernel
        cal = emulator.cal
        model = emulator.model
        collector = emulator.collector
        weight = self.weight
        rng = emulator.streams.get(f"client-think-{self.client_id}")
        if cal.static_fraction > 0.0:
            # A uniform draw interleaves with the thinks on this stream.
            def draw_think():
                return float(rng.exponential(cal.think_time_mean_s))
        else:
            draw_think = block_draws(
                partial(rng.exponential, cal.think_time_mean_s), CLIENT_BLOCK
            ).__next__
        navigator = emulator._navigator_factory(self.client_id)
        while self.active:
            yield sleep(draw_think())
            if not self.active:
                break
            if (
                cal.static_fraction > 0.0
                and rng.random() < cal.static_fraction
            ):
                request = WebRequest(
                    kernel,
                    "StaticDocument",
                    is_static=True,
                    static_demand=model._vary(cal.static_demand_s, weight),
                    client_id=self.client_id,
                    weight=weight,
                )
            else:
                inter = navigator.next_interaction()
                request = model.make_request(
                    inter, client_id=self.client_id, weight=weight
                )
            emulator.requests_issued += weight
            emulator.entry(request)
            timeout_event = None
            if emulator.request_timeout_s is not None:

                def abandon(req=request):
                    emulator.abandoned += weight
                    req.fail(kernel, "client timeout")

                timeout_event = kernel.schedule(
                    emulator.request_timeout_s, abandon
                )
            try:
                yield wait(request.completion)
            except Exception:
                collector.record_failure(kernel.now, weight)
                continue
            finally:
                if timeout_event is not None:
                    timeout_event.cancel()
            latency = request.latency
            assert latency is not None
            collector.record_latency(kernel.now, latency, weight)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "stopped"
        return f"<ClientCohort #{self.client_id} x{self.weight} {state}>"
