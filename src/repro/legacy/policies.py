"""Load-balancing policies.

"Different load balancing algorithms may be used, e.g. Random, Round-Robin,
etc." (§2).  The same policy objects are used by mod_jk (Apache→Tomcat),
PLB (clients→Tomcat) and C-JDBC (reads→MySQL backends); ablation benchmark
A4 compares them.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

PendingFn = Callable[[T], int]
WeightFn = Callable[[T], float]


class BalancingPolicy:
    """Chooses one backend among candidates; stateful policies keep their
    own rotation state keyed on nothing (one policy instance per balancer)."""

    name = "abstract"

    def choose(self, candidates: Sequence[T]) -> T:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget rotation state (called when the backend set changes)."""


class RandomPolicy(BalancingPolicy):
    """Uniform random choice."""

    name = "random"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def choose(self, candidates: Sequence[T]) -> T:
        if not candidates:
            raise IndexError("no backend available")
        return candidates[int(self.rng.integers(len(candidates)))]


class RoundRobinPolicy(BalancingPolicy):
    """Cyclic rotation; robust to the candidate list changing size."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, candidates: Sequence[T]) -> T:
        if not candidates:
            raise IndexError("no backend available")
        choice = candidates[self._next % len(candidates)]
        self._next = (self._next + 1) % len(candidates)
        return choice

    def reset(self) -> None:
        self._next = 0


class LeastPendingPolicy(BalancingPolicy):
    """Pick the backend with the fewest in-flight requests (C-JDBC's
    ``LeastPendingRequestsFirst``).  Requires a ``pending_fn`` that reads a
    candidate's current load; ties break on list order for determinism."""

    name = "least-pending"

    def __init__(self, pending_fn: PendingFn) -> None:
        self.pending_fn = pending_fn

    def choose(self, candidates: Sequence[T]) -> T:
        if not candidates:
            raise IndexError("no backend available")
        return min(candidates, key=self.pending_fn)


class WeightedRoundRobinPolicy(BalancingPolicy):
    """mod_jk's lbfactor-weighted rotation: each backend is selected in
    proportion to its weight, using smooth weighted round-robin."""

    name = "weighted-round-robin"

    def __init__(self, weight_fn: WeightFn) -> None:
        self.weight_fn = weight_fn
        #: ``id(candidate) -> [candidate, current weight]``: candidates
        #: need not be hashable, and keeping each one lets a pickled copy
        #: re-key on its own objects
        self._current: dict[int, list] = {}

    def choose(self, candidates: Sequence[T]) -> T:
        if not candidates:
            raise IndexError("no backend available")
        current = self._current
        total = 0.0
        best = None
        for cand in candidates:
            weight = float(self.weight_fn(cand))
            if weight <= 0:
                raise ValueError("weights must be positive")
            slot = current.get(id(cand))
            if slot is None:
                slot = current[id(cand)] = [cand, 0.0]
            slot[1] += weight
            total += weight
            if best is None or slot[1] > best[1]:
                best = slot
        assert best is not None
        best[1] -= total
        return best[0]

    def reset(self) -> None:
        self._current.clear()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_current"] = list(self._current.values())
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._current = {id(slot[0]): slot for slot in state["_current"]}


def make_policy(
    name: str,
    rng: Optional[np.random.Generator] = None,
    pending_fn: Optional[PendingFn] = None,
    weight_fn: Optional[WeightFn] = None,
) -> BalancingPolicy:
    """Build a policy by name (as found in legacy config files)."""
    lowered = name.lower().replace("_", "").replace("-", "")
    if lowered == "random":
        return RandomPolicy(rng)
    if lowered in ("roundrobin", "rr"):
        return RoundRobinPolicy()
    if lowered in ("leastpending", "leastpendingrequestsfirst"):
        if pending_fn is None:
            raise ValueError("least-pending policy needs a pending_fn")
        return LeastPendingPolicy(pending_fn)
    if lowered in ("weightedroundrobin", "wrr"):
        if weight_fn is None:
            raise ValueError("weighted round-robin needs a weight_fn")
        return WeightedRoundRobinPolicy(weight_fn)
    raise ValueError(f"unknown balancing policy {name!r}")
