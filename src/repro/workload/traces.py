"""Workload trace capture and replay.

The RUBiS client emulator is *closed-loop*: arrival times depend on
response times, so two configurations never see the same request stream.
For controlled comparisons (e.g. balancing-policy studies) it is useful to
capture the exact stream one run produced and replay it *open-loop* —
identical arrival instants and identical per-request demands — against any
other configuration.

Caveat (by design): open-loop replay removes the think-time feedback.  A
configuration slower than the recording one will accumulate backlog instead
of throttling the clients, so replay is for comparing configurations of
similar capacity, not for reproducing Figure 8's closed-loop collapse.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, Optional

from repro.legacy.requests import WebRequest
from repro.simulation.kernel import SimKernel


class RequestRecord:
    """One captured request."""

    __slots__ = (
        "t",
        "interaction",
        "is_static",
        "is_write",
        "app_pre",
        "app_post",
        "db",
        "static",
        "client_id",
    )

    def __init__(
        self,
        t: float,
        interaction: str,
        is_static: bool,
        is_write: bool,
        app_pre: float,
        app_post: float,
        db: float,
        static: float,
        client_id: Optional[int],
    ) -> None:
        self.t = t
        self.interaction = interaction
        self.is_static = is_static
        self.is_write = is_write
        self.app_pre = app_pre
        self.app_post = app_post
        self.db = db
        self.static = static
        self.client_id = client_id

    @classmethod
    def from_request(cls, t: float, request: WebRequest) -> "RequestRecord":
        return cls(
            t,
            request.interaction,
            request.is_static,
            request.is_write,
            request.app_demand_pre,
            request.app_demand_post,
            request.db_demand,
            request.static_demand,
            request.client_id,
        )

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "interaction": self.interaction,
            "is_static": self.is_static,
            "is_write": self.is_write,
            "app_pre": self.app_pre,
            "app_post": self.app_post,
            "db": self.db,
            "static": self.static,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestRecord":
        return cls(
            data["t"],
            data["interaction"],
            data["is_static"],
            data["is_write"],
            data["app_pre"],
            data["app_post"],
            data["db"],
            data["static"],
            data.get("client_id"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestRecord):
            return NotImplemented
        return self.to_dict() == other.to_dict()


class WorkloadTrace:
    """An ordered sequence of request records."""

    def __init__(self) -> None:
        self._records: list[RequestRecord] = []

    def append(self, record: RequestRecord) -> None:
        if self._records and record.t < self._records[-1].t:
            raise ValueError("trace records must be appended in time order")
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> RequestRecord:
        return self._records[idx]

    @property
    def duration_s(self) -> float:
        return self._records[-1].t if self._records else 0.0

    def write_fraction(self) -> float:
        if not self._records:
            return 0.0
        return sum(r.is_write for r in self._records) / len(self._records)

    # -- persistence (JSON lines) ------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self._records:
                fh.write(json.dumps(record.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        trace = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    trace.append(RequestRecord.from_dict(json.loads(line)))
        return trace


class TraceRecorder:
    """Wraps an entry point; captures every request that flows through."""

    def __init__(self, kernel: SimKernel, entry: Callable[[WebRequest], None]):
        self.kernel = kernel
        self.entry = entry
        self.trace = WorkloadTrace()

    def __call__(self, request: WebRequest) -> None:
        self.trace.append(RequestRecord.from_request(self.kernel.now, request))
        self.entry(request)


class TraceReplayer:
    """Replays a trace open-loop against an entry point.

    Each record is scheduled at its original instant with its original
    demands; completions/failures are reported through the provided
    collector (same interface as the client emulator uses).
    """

    def __init__(
        self,
        kernel: SimKernel,
        trace: WorkloadTrace,
        entry: Callable[[WebRequest], None],
        collector=None,
    ) -> None:
        self.kernel = kernel
        self.trace = trace
        self.entry = entry
        self.collector = collector
        self.issued = 0

    def start(self, offset_s: Optional[float] = None) -> None:
        """Schedule the whole trace.  ``offset_s`` shifts every arrival
        (default: enough to land the first record at the current time)."""
        if offset_s is None:
            first = self.trace[0].t if len(self.trace) else 0.0
            offset_s = max(0.0, self.kernel.now - first)
        for record in self.trace:
            self.kernel.schedule_at(record.t + offset_s, self._issue, record)

    def _issue(self, record: RequestRecord) -> None:
        request = WebRequest(
            self.kernel,
            record.interaction,
            is_static=record.is_static,
            is_write=record.is_write,
            app_demand_pre=record.app_pre,
            app_demand_post=record.app_post,
            db_demand=record.db,
            static_demand=record.static,
            client_id=record.client_id,
        )
        self.issued += 1
        if self.collector is not None:
            request.then = self._report
        self.entry(request)

    def _report(self, request: WebRequest) -> None:
        if request.error is not None:
            self.collector.record_failure(self.kernel.now)
        else:
            self.collector.record_latency(self.kernel.now, request.latency)
