"""Requests flowing through the legacy layer.

A :class:`WebRequest` is an HTTP request emitted by an emulated client.  It
carries its interaction type and the *service demands* it will impose on
each tier (computed once by the workload model from the RUBiS calibration),
and the continuation that its answer runs.  Keeping demands on the request —
rather than inside each server — keeps the legacy servers generic and all
calibration in one place (:mod:`repro.workload.calibration`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulation.kernel import SimKernel


class RequestFailed(RuntimeError):
    """The request could not be served (server down, no backend...)."""


class WebRequest:
    """One client HTTP interaction.

    The issuer sets ``then`` before it hands the request to the system's
    entry point; the request's answer runs ``then(request)`` once, on
    success or failure, with ``error`` set in the second case.  A request
    with no ``then`` is answered to nobody.
    """

    __slots__ = (
        "req_id",
        "interaction",
        "is_static",
        "is_write",
        "app_demand_pre",
        "app_demand_post",
        "db_demand",
        "static_demand",
        "then",
        "error",
        "issued_at",
        "completed_at",
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
        kernel.last_request_id = self.req_id = kernel.last_request_id + 1
        self.interaction = interaction
        self.is_static = is_static
        self.is_write = is_write
        self.app_demand_pre = app_demand_pre
        self.app_demand_post = app_demand_post
        self.db_demand = db_demand
        self.static_demand = static_demand
        self.then: Optional[Callable[["WebRequest"], None]] = None
        self.error: Optional[RequestFailed] = None
        self.issued_at = kernel._now
        self.completed_at: Optional[float] = None
        self.client_id = client_id
        #: number of identical client requests this object batches (cohort
        #: aggregation); demands are the summed demands of all constituents
        self.weight = weight

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    def complete(self, kernel: SimKernel) -> None:
        """Mark success and answer: ``then(request)`` goes to the kernel's
        tail dispatch (:meth:`SimKernel._tail
        <repro.simulation.kernel.SimKernel._tail>`), so call this only as
        the last action of a kernel-dispatched callback chain (as
        ``TomcatServer._finish`` and ``ApacheServer._finish_static`` do).
        A request already answered (a client timed it out) stays as it
        is."""
        if self.completed_at is not None:
            return
        self.completed_at = kernel._now
        then = self.then
        if then is not None:
            kernel._tail(then, (self,))

    def fail(self, kernel: SimKernel, reason: str) -> None:
        """Mark failure and post ``then(request)`` with ``error`` set."""
        if self.completed_at is not None:
            return
        self.completed_at = kernel._now
        self.error = RequestFailed(f"request {self.req_id}: {reason}")
        then = self.then
        if then is not None:
            kernel._post_at(kernel._now, then, (self,))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WebRequest #{self.req_id} {self.interaction}>"
