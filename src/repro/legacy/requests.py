"""Requests flowing through the legacy layer.

A :class:`WebRequest` is an HTTP request emitted by an emulated client.  It
carries its interaction type and the *service demands* it will impose on
each tier (computed once by the workload model from the RUBiS calibration),
plus tracing fields every hop fills in.  Keeping demands on the request —
rather than inside each server — keeps the legacy servers generic and all
calibration in one place (:mod:`repro.workload.calibration`).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.simulation.kernel import SimKernel
from repro.simulation.process import Signal

_req_ids = itertools.count(1)


class RequestFailed(RuntimeError):
    """The request could not be served (server down, no backend...)."""


class WebRequest:
    """One client HTTP interaction."""

    __slots__ = (
        "req_id",
        "interaction",
        "is_static",
        "is_write",
        "app_demand_pre",
        "app_demand_post",
        "db_demand",
        "static_demand",
        "completion",
        "issued_at",
        "completed_at",
        "failed",
        "hops",
        "client_id",
        "weight",
    )

    def __init__(
        self,
        kernel: SimKernel,
        interaction: str,
        is_static: bool = False,
        is_write: bool = False,
        app_demand_pre: float = 0.0,
        app_demand_post: float = 0.0,
        db_demand: float = 0.0,
        static_demand: float = 0.0,
        client_id: Optional[int] = None,
        weight: int = 1,
    ) -> None:
        self.req_id = next(_req_ids)
        self.interaction = interaction
        self.is_static = is_static
        self.is_write = is_write
        self.app_demand_pre = app_demand_pre
        self.app_demand_post = app_demand_post
        self.db_demand = db_demand
        self.static_demand = static_demand
        self.completion = Signal(kernel)
        self.issued_at = kernel.now
        self.completed_at: Optional[float] = None
        self.failed = False
        self.hops: list[str] = []
        self.client_id = client_id
        #: number of identical client requests this object batches (cohort
        #: aggregation); demands are the summed demands of all constituents
        self.weight = weight

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def trace(self, server_name: str) -> None:
        self.hops.append(server_name)

    def complete(self, kernel: SimKernel) -> None:
        """Mark success and fire the completion signal.

        The signal fires with :meth:`Signal.succeed_tail
        <repro.simulation.process.Signal.succeed_tail>`, so call this only
        as the last action of a kernel-dispatched callback chain (as
        ``TomcatServer._finish`` and ``ApacheServer._finish_static`` do)
        or before anyone waits on the completion."""
        if self.completion.fired:
            return
        self.completed_at = kernel.now
        self.completion.succeed_tail(self)

    def fail(self, kernel: SimKernel, reason: str) -> None:
        """Mark failure and fire the completion signal with an error."""
        if self.completion.fired:
            return
        self.completed_at = kernel.now
        self.failed = True
        self.completion.fail(RequestFailed(f"request {self.req_id}: {reason}"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WebRequest #{self.req_id} {self.interaction}>"
