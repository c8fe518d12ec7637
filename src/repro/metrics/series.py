"""Time-series containers.

Every column is a packed ``array("d")`` (:func:`float_column`): one
8-byte double per sample instead of a boxed Python float plus a list
slot, so a run's records cost ~24 B per latency sample and pickle as
raw bytes.  An append costs a little more than a list's (it converts to
a C double); a request makes about three.  Storing coerces to float: an
int, bool or ``np.float64`` reads back as a plain Python float.

NumPy sees a column only through :func:`copy_out`.  A zero-copy view
(``np.asarray`` on the array) would pin the buffer, and the next append
would raise ``BufferError`` while the view lives; the what-if and
federation code read series mid-run and keep running, so "copy out,
never view" is a correctness rule, not a style choice.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

import numpy as np


def float_column(values: Iterable[float] = ()) -> array:
    """A packed, appendable float64 column — the storage of every series
    (and of the collector's latency weights)."""
    return array("d", values)


def copy_out(column: array) -> np.ndarray:
    """A float64 NumPy *copy* of a column; never a view (module docstring)."""
    return np.array(column, dtype=np.float64)


class TimeSeries:
    """A sampled series of (time, value) points, appended in time order."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._t = float_column()
        self._v = float_column()

    def append(self, t: float, value: float) -> None:
        # ``not >=``, not ``<``: a NaN time compares False both ways and
        # would otherwise slip in and break the order for every later read
        if self._t:
            if not t >= self._t[-1]:
                raise ValueError(
                    f"{self.name or 'series'}: non-monotonic append "
                    f"({t} after {self._t[-1]})"
                )
        elif t != t:
            raise ValueError(f"{self.name or 'series'}: NaN time")
        self._t.append(t)
        self._v.append(value)

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._t, self._v))

    @property
    def times(self) -> np.ndarray:
        return copy_out(self._t)

    @property
    def values(self) -> np.ndarray:
        return copy_out(self._v)

    def last(self) -> Optional[tuple[float, float]]:
        if not self._t:
            return None
        return self._t[-1], self._v[-1]

    def tail_since(self, index: int) -> list[tuple[float, float]]:
        """Samples appended at or after ``index`` — an O(new) incremental
        read for periodic consumers (avoids re-materializing the full
        arrays every poll)."""
        return list(zip(self._t[index:], self._v[index:]))

    def bucket_mean(self, width: float, t_end: Optional[float] = None) -> "TimeSeries":
        """Resample into fixed-width buckets (mean of samples per bucket);
        empty buckets are skipped.  Used to print figure series compactly."""
        if width <= 0:
            raise ValueError("bucket width must be positive")
        out = TimeSeries(f"{self.name}/bucket{width:g}")
        if not self._t:
            return out
        t = self.times
        v = self.values
        stop = t_end if t_end is not None else float(t[-1])
        edges = np.arange(0.0, stop + width, width)
        idx = np.digitize(t, edges) - 1
        for b in np.unique(idx):
            mask = idx == b
            out.append(float(edges[b] + width / 2.0), float(v[mask].mean()))
        return out

    def window(self, t0: float, t1: float) -> "TimeSeries":
        """Sub-series with t0 <= t < t1."""
        out = TimeSeries(f"{self.name}/window")
        if t0 < t1:  # also False for a NaN bound, which no sample satisfies
            lo = bisect_left(self._t, t0)
            hi = bisect_left(self._t, t1, lo)
            out._t = self._t[lo:hi]
            out._v = self._v[lo:hi]
        return out

    def mean(self) -> float:
        if not self._v:
            return float("nan")
        return float(np.mean(self.values))

    def max(self) -> float:
        if not self._v:
            return float("nan")
        return float(np.max(self.values))


class StepSeries:
    """A piecewise-constant series (replica counts, node counts): records
    value *changes* and can be queried at any time."""

    def __init__(self, name: str = "", initial: float = 0.0) -> None:
        self.name = name
        self._t = float_column((0.0,))
        self._v = float_column((initial,))

    def set(self, t: float, value: float) -> None:
        if not t >= self._t[-1]:  # rejects a NaN time too
            raise ValueError(f"{self.name or 'step series'}: non-monotonic set")
        if value == self._v[-1]:
            return
        self._t.append(t)
        self._v.append(value)

    def value_at(self, t: float) -> float:
        return self._v[max(bisect_right(self._t, t) - 1, 0)]

    @property
    def changes(self) -> list[tuple[float, float]]:
        return list(zip(self._t, self._v))

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at the given times."""
        ts = copy_out(self._t)
        vs = copy_out(self._v)
        idx = np.clip(np.searchsorted(ts, times, side="right") - 1, 0, len(vs) - 1)
        return vs[idx]

    def max(self) -> float:
        return float(np.max(copy_out(self._v)))

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the step function over ``[t0, t1)`` — e.g. the
        node-seconds held by a tier whose replica count this series tracks."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        changes = self.changes
        for i, (start, value) in enumerate(changes):
            end = changes[i + 1][0] if i + 1 < len(changes) else t1
            lo = max(start, t0)
            hi = min(end, t1)
            if hi > lo:
                total += value * (hi - lo)
        return total

    def time_weighted_mean(self, t_end: float) -> float:
        """Mean value over [0, t_end], weighting by how long each level
        held — e.g. the average number of allocated nodes."""
        ts = np.append(copy_out(self._t), t_end)
        vs = copy_out(self._v)
        durations = np.diff(ts)
        if durations.sum() <= 0:
            return float(vs[-1])
        return float((vs * durations).sum() / durations.sum())

    def __len__(self) -> int:
        return len(self._t)
