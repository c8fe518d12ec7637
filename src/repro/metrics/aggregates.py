"""Aggregation used by the sensors.

"This probe computes a moving average of the collected data in order to
remove artifacts characterizing the CPU consumption.  It finally computes an
average CPU load across all nodes" (§4.1): a *temporal* moving average
(:class:`MovingAverage`) composed with a *spatial* average
(:func:`spatial_average`).
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Iterable

import numpy as np


class MovingAverage:
    """Time-windowed moving average over irregular samples.

    Keeps samples newer than ``window_s`` and returns their arithmetic mean
    (the paper's averaging over "the last 60 seconds" of 1 Hz samples).
    """

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self._samples: deque[tuple[float, float]] = deque()
        self._sum = 0.0

    def add(self, t: float, value: float) -> float:
        """Add a sample and return the current average."""
        self._samples.append((t, value))
        self._sum += value
        self._evict(t)
        return self.value

    def age(self, now: float) -> float:
        """Evict samples that have fallen out of the window as of ``now``
        without adding a new one; returns the current average."""
        self._evict(now)
        return self.value

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        samples = self._samples
        while samples and samples[0][0] <= cutoff:
            _, v = samples.popleft()
            self._sum -= v

    @property
    def value(self) -> float:
        """Current average (NaN when no samples are in the window)."""
        if not self._samples:
            return float("nan")
        return self._sum / len(self._samples)

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def reset(self) -> None:
        self._samples.clear()
        self._sum = 0.0


def left_sum(values: Iterable[float]) -> float:
    """``values`` added one by one, left to right, from ``0.0``.

    The sum every output-feeding float total goes through.  Python
    3.12's builtin ``sum()`` of floats is compensated (Neumaier), so it
    can differ from 3.11's in the last bit (``[0.1, 0.2, 0.3, 1e16,
    -1e16]`` sums to ``0.6`` there and to ``0.0`` here); on 3.11 both add
    left to right from zero, so this returns 3.11's ``sum()`` exactly on
    every interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


#: below this many values numpy's pairwise ``add.reduce`` is a plain
#: left-to-right loop from ``0.0``; from it on, it unrolls eight partial
#: sums
PAIRWISE_BLOCK = 8


def spatial_average(values: Iterable[float]) -> float:
    """Mean across nodes; NaN for an empty tier.

    Bit-identical to ``float(arr.mean())``: for float64 that is numpy's
    pairwise ``add.reduce`` divided by the count.  A tier has a handful
    of nodes, and below ``PAIRWISE_BLOCK`` values numpy adds them left
    to right from ``0.0``, which :func:`left_sum` repeats without
    building an array (a probe samples every second); from eight values
    on this calls ``add.reduce`` itself."""
    values = list(values)
    n = len(values)
    if n == 0:
        return float("nan")
    if n < PAIRWISE_BLOCK:
        return left_sum(values) / n
    return float(np.add.reduce(np.asarray(values, dtype=np.float64))) / n


def percentile_sorted(ordered: list[float], pct: float) -> float:
    """``np.percentile(values, pct)`` for ``0 <= pct <= 100`` (the
    default ``linear`` method) of the non-empty, NaN-free ``values``
    whose ascending order is ``ordered``, bit for bit, without numpy:
    its first call imports ``numpy.ma``.  The steps are numpy's:
    virtual index ``(n - 1) * q`` with ``q = pct / 100``, its floor
    ``i`` and fraction ``g``, then ``b - (b - a) * (1 - g)`` when ``g >=
    0.5``, else ``a + (b - a) * g``, for the neighbours ``a =
    ordered[i]``, ``b = ordered[i + 1]``."""
    n = len(ordered)
    virtual = (n - 1) * (pct / 100)
    if virtual >= n - 1:
        return ordered[-1]
    i = math.floor(virtual)
    gamma = virtual - i
    a = ordered[i]
    b = ordered[i + 1]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Summary statistics used in benchmark tables."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {
            "count": 0,
            "mean": float("nan"),
            "p50": float("nan"),
            "p95": float("nan"),
            "p99": float("nan"),
            "max": float("nan"),
        }
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


# ----------------------------------------------------------------------
# Multi-seed scorecards (chaos, deploy, market, bench sections)
# ----------------------------------------------------------------------
def mean_ci(values: Iterable[float]) -> dict[str, float]:
    """Mean and normal-approximation 95 % confidence half-width of the
    non-NaN ``values`` (a NaN marks "not observed", e.g. no repair), as
    ``{"mean", "ci95", "n"}`` — the aggregate every multi-seed scorecard
    and bench section reports."""
    clean = [v for v in values if v == v]
    if not clean:
        return {"mean": float("nan"), "ci95": 0.0, "n": 0}
    mean = sum(clean) / len(clean)
    if len(clean) > 1:
        var = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
        ci = 1.96 * math.sqrt(var) / math.sqrt(len(clean))
    else:
        ci = 0.0
    return {"mean": mean, "ci95": ci, "n": len(clean)}


def seed_scorecard(
    header: dict,
    per_seed: list[dict],
    metrics: Iterable[str],
    columns: Iterable[tuple[str, str]] = (("seeds", "seed"),),
) -> dict:
    """Multi-seed scorecard: ``header``, then each ``(key, field)`` of
    ``columns`` as the list of that field across ``per_seed``, the rows
    themselves, and each of ``metrics`` aggregated by :func:`mean_ci`."""
    card = dict(header)
    for key, field in columns:
        card[key] = [row[field] for row in per_seed]
    card["per_seed"] = per_seed
    card["aggregate"] = {
        metric: mean_ci([float(row[metric]) for row in per_seed])
        for metric in metrics
    }
    return card


def format_ci(stat: dict[str, float], scale: float = 1.0, unit: str = "") -> str:
    """Render a :func:`mean_ci` aggregate as ``mean ± ci95`` plus ``unit``
    ("n/a" when nothing was observed)."""
    if stat["n"] == 0 or stat["mean"] != stat["mean"]:
        return "n/a"
    return f"{stat['mean'] * scale:.2f} ± {stat['ci95'] * scale:.2f}{unit}"


def _canonical(value):
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        if value != value:
            return None  # NaN is not valid JSON; canonicalize to null
        return round(value, 9)
    return value


def scorecard_json(scorecard: dict) -> str:
    """Canonical JSON: sorted keys, floats rounded to 9 decimals, NaN →
    null.  Two runs of the same scenario + seeds — serial, parallel or
    cache-resolved — must produce byte-identical output."""
    return json.dumps(_canonical(scorecard), indent=2, sort_keys=True) + "\n"
