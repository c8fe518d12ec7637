"""Per-layer profile of one traced run.

The traced run executes under ``cProfile``; this module folds the
``pstats`` table into the repository's layers (by module path) and
counts the calls the benchmark's ratios are made of.  A C function
(numpy, heapq, builtins) has no module of its own, so its self time is
split over its callers' layers through pstats' per-caller entries.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

#: (layer, module prefixes), in this order; "other" takes the rest —
#: stdlib, numpy's Python code, the benchmark itself, unlisted modules
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("simulation.kernel", ("repro.simulation.kernel",)),
    ("simulation.process", ("repro.simulation.process",)),
    ("simulation.resources", ("repro.simulation.resources",)),
    ("workload.clients", ("repro.workload.clients",)),
    ("workload.cohort", ("repro.workload.cohort",)),
    ("workload.rubis", ("repro.workload.rubis",)),
    ("workload.fluid", ("repro.workload.fluid",)),
    ("legacy", ("repro.legacy",)),
    ("cluster", ("repro.cluster",)),
    ("jade", ("repro.jade",)),
    ("policy", ("repro.policy",)),
    ("fractal", ("repro.fractal", "repro.wrappers")),
    ("metrics", ("repro.metrics", "repro.obs")),
    ("chaos", ("repro.chaos",)),
    ("federation", ("repro.federation",)),
    ("runner", ("repro.runner",)),
    ("other", ()),
)

#: counted calls: name -> (module prefix, function-name regex)
COUNTS: dict[str, tuple[str, str]] = {
    "submits": ("repro.simulation.resources", "submit"),
    "wakes": ("repro.simulation.resources", "_complete_next"),
    "resumes": ("repro.simulation.process", "_resume"),
    "draws": ("repro.workload.rubis", "_vary|next_interaction"),
    "hops": ("repro.legacy.server", "_run_then"),
    "solves": ("repro.workload.fluid", "phi"),
    "ticks": ("repro.workload.fluid", "tick"),
    "records": ("repro.metrics.collector", "record_.*"),
    "probe_samples": ("repro.jade.sensors", "_sample"),
    "decisions": ("repro.policy", "decide"),
    "repairs": ("repro.jade.actuators", "repair"),
}


def _within(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def module_of(filename: str, src: str) -> str | None:
    """Dotted module name of a source file under ``src``, else None."""
    rel = os.path.relpath(filename, src)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    return rel[:-3].replace(os.sep, ".")


def layer_of(module: str | None) -> str:
    if module is not None:
        for layer, prefixes in LAYERS:
            if any(_within(module, p) for p in prefixes):
                return layer
    return "other"


def profile_layers(stats, src: str) -> dict:
    """Fold a ``pstats.Stats`` table into per-layer self time and counts.

    Returns ``{"self_s": {layer: seconds}, "calls": {count: n}}``; the
    self times sum to the profiler's total.
    """
    entries = stats.stats
    modules = {key: module_of(key[0], src) for key in entries}

    def own_layer(key) -> str | None:
        return None if key[0] == "~" else layer_of(modules[key])

    shares_memo: dict = {}

    def shares(key, seen=frozenset()) -> dict[str, float]:
        """How a call of ``key`` divides between layers: its own layer,
        or for a C function its callers' layers weighted by the time it
        spent under each."""
        layer = own_layer(key)
        if layer is not None:
            return {layer: 1.0}
        if key in shares_memo:
            return shares_memo[key]
        callers = entries[key][4]
        if key in seen or not callers:
            return {"other": 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:  # too fast to time: weight by call count
            weights = {c: float(v[0]) for c, v in callers.items()}
            total = sum(weights.values()) or 1.0
        out: dict[str, float] = defaultdict(float)
        for caller, w in weights.items():
            for lay, f in shares(caller, seen | {key}).items():
                out[lay] += f * w / total
        shares_memo[key] = dict(out)
        return shares_memo[key]

    self_s = {layer: 0.0 for layer, _ in LAYERS}
    calls = {name: 0 for name in COUNTS}
    for key, (_cc, nc, tt, _ct, callers) in entries.items():
        layer = own_layer(key)
        if layer is not None:
            self_s[layer] += tt
            module = modules[key]
            for name, (prefix, pattern) in COUNTS.items():
                if module and _within(module, prefix) and re.fullmatch(pattern, key[2]):
                    calls[name] += nc
            continue
        attributed = 0.0
        for caller, v in callers.items():
            for lay, f in shares(caller, frozenset({key})).items():
                self_s[lay] += f * v[2]
            attributed += v[2]
        self_s["other"] += max(tt - attributed, 0.0)
    return {"self_s": self_s, "calls": calls}
