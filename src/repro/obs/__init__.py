"""obs — decision-trace observability for the autonomic control loops.

The paper's managers make their decisions through introspectable Fractal
components; this package makes the *decision flow* introspectable too:
every probe reading, threshold decision (with a machine-readable
suppression reason), inhibition-lock transition, reconfiguration and node
movement becomes a typed, timestamped, causally-linked event.

* :mod:`~repro.obs.events` — the event types and reason enums;
* :mod:`~repro.obs.tracer` — ring buffer + JSONL sink + run summary;
* :mod:`~repro.obs.timeline` — the ``repro trace`` causal renderer.

Tracing is opt-in (``ExperimentConfig(trace=True)`` or ``--trace FILE``)
and zero-cost when off: emission points hold ``tracer = None`` and every
site guards with one attribute test.
"""
