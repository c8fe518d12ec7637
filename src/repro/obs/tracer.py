"""The tracer: ring buffer, JSONL sink, per-run summary.

One :class:`Tracer` per run.  Emission points throughout the control loop
hold an optional reference and guard every emission with
``if self.tracer is not None`` — a disabled run carries a single attribute
test per *potential* event and allocates nothing (the acceptance bar:
tracing off adds no measurable overhead to the micro-benchmarks).

The tracer keeps the last ``ring_size`` records in memory for inspection
and, when given a ``sink_path``, writes **every** record as one JSON line
(the ring may evict, the sink never does).  Each record carries the run id,
a monotonically increasing ``seq``, and optionally the ``cause`` seq of the
event that led to it.

Causality across layers uses a small explicit stack: a reactor emits its
:class:`~repro.obs.events.Decision`, pushes the returned seq with
:meth:`push_cause`, calls the actuator, and pops.  Anything the actuator
emits synchronously (node allocation, reconfig start) picks up
:attr:`current_cause` automatically; asynchronous completions link back to
the start event's seq, which the actuator keeps for its own later steps.
The simulation is single-threaded, so the stack discipline is exact.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import IO, Iterable, Optional

from repro.obs.events import Decision, ReconfigCompleted, TraceEvent


class Tracer:
    """Collects typed trace events for one run."""

    def __init__(
        self,
        run_id: str = "run",
        ring_size: int = 65536,
        sink_path: Optional[str] = None,
        region: Optional[str] = None,
    ) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.run_id = run_id
        #: federation region this tracer belongs to; when set, every
        #: record is stamped so merged multi-region traces stay separable
        self.region = region
        self.ring: deque[dict] = deque(maxlen=ring_size)
        self.sink_path = sink_path
        self._sink: Optional[IO[str]] = (
            open(sink_path, "w") if sink_path else None
        )
        self._seq = 0
        self._cause_stack: list[int] = []
        # Running aggregates (independent of ring eviction).
        self.counts: Counter[str] = Counter()
        self.decision_counts: Counter[tuple[str, str]] = Counter()  # (action, reason)
        self.suppressed = 0
        self.reconfig_count = 0
        self.reconfig_failures = 0
        self._reconfig_total_s = 0.0
        self._reconfig_max_s = 0.0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> int:
        """Record an event; returns its sequence number (usable as the
        ``cause`` of later events)."""
        seq = self._seq
        self._seq += 1
        record = event.to_record()
        record["run"] = self.run_id
        record["seq"] = seq
        if self.region is not None:
            record["region"] = self.region
        if "cause" not in record and self._cause_stack:
            record["cause"] = self._cause_stack[-1]
        self.ring.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
        self._aggregate(event)
        return seq

    def _aggregate(self, event: TraceEvent) -> None:
        self.counts[event.kind] += 1
        if isinstance(event, Decision):
            self.decision_counts[(event.action, event.reason)] += 1
            if not event.executed:
                self.suppressed += 1
        elif isinstance(event, ReconfigCompleted):
            self.reconfig_count += 1
            if event.ok:
                self._reconfig_total_s += event.duration_s
                self._reconfig_max_s = max(self._reconfig_max_s, event.duration_s)
            else:
                self.reconfig_failures += 1

    # ------------------------------------------------------------------
    # Causality
    # ------------------------------------------------------------------
    @property
    def current_cause(self) -> Optional[int]:
        return self._cause_stack[-1] if self._cause_stack else None

    def push_cause(self, seq: int) -> None:
        """Subsequent emissions default their ``cause`` to ``seq``."""
        self._cause_stack.append(seq)

    def pop_cause(self) -> None:
        self._cause_stack.pop()

    # ------------------------------------------------------------------
    # Inspection / lifecycle
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """The in-memory tail (up to ``ring_size`` most recent records)."""
        return list(self.ring)

    def summary(self) -> dict:
        """Per-run aggregate: what happened, how often, how long."""
        completed = self.reconfig_count - self.reconfig_failures
        return {
            "run": self.run_id,
            "events": self._seq,
            "by_kind": dict(self.counts),
            "decisions": {
                f"{action}/{reason}": n
                for (action, reason), n in sorted(self.decision_counts.items())
            },
            "decisions_suppressed": self.suppressed,
            "reconfigurations": {
                "count": self.reconfig_count,
                "failures": self.reconfig_failures,
                "mean_duration_s": (
                    self._reconfig_total_s / completed if completed else 0.0
                ),
                "max_duration_s": self._reconfig_max_s,
            },
        }

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the sink; further emissions stay in the ring."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_jsonl(path: str) -> list[dict]:
    """Read a trace sink back into records (blank lines skipped)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def causal_chain(records: Iterable[dict], record: dict) -> list[dict]:
    """Walk ``cause`` links from ``record`` back to its root event.

    Returns the chain root-first (the record itself is last).  Unknown
    cause seqs terminate the walk (the ring or a truncated file may have
    evicted the parent).
    """
    by_seq = {r["seq"]: r for r in records}
    chain = [record]
    seen = {record["seq"]}
    current = record
    while (cause := current.get("cause")) is not None:
        parent = by_seq.get(cause)
        if parent is None or parent["seq"] in seen:
            break
        chain.append(parent)
        seen.add(parent["seq"])
        current = parent
    chain.reverse()
    return chain
