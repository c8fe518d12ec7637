"""Deterministic named random streams.

Every stochastic component (each emulated client, each load balancer using a
Random policy, the failure injector...) draws from its own
``numpy.random.Generator``, derived from a single experiment seed and a
stable component name.  This gives two properties the benchmarks rely on:

* **Reproducibility** — the same seed replays an experiment exactly;
* **Insensitivity to composition** — adding a component does not perturb the
  streams of existing components (names, not creation order, key streams).
"""

from __future__ import annotations

import hashlib

import numpy as np
# ``numpy.random`` loads lazily on first attribute access; importing it
# here loads it with this module, before any run (a forked federation
# region worker would otherwise import it inside its timed run).
import numpy.random  # noqa: F401


def _name_words(name: str) -> list[int]:
    """Map a component name to a stable list of 32-bit words."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RngStreams:
    """Factory of named, independent random generators.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("client-0")
    >>> b = streams.get("client-1")
    >>> a2 = RngStreams(seed=42).get("client-0")
    >>> float(a.random()) == float(a2.random())
    True

    Per-client streams (``client-think-N``, ``client-nav-N``) are owned by
    their cohort, not cached here: client ids are never reused, so each
    is fetched once, with :meth:`fresh`, and freed with its cohort.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer")
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        Repeated calls with the same name return the *same* generator object,
        so a component may re-fetch its stream without resetting it.
        """
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.seed, *_name_words(name)])
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (same initial state as
        the first :meth:`get` for that name)."""
        seq = np.random.SeedSequence([self.seed, *_name_words(name)])
        return np.random.default_rng(seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={len(self._cache)})"
