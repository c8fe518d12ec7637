"""Content-addressed on-disk result cache.

A cache entry is addressed by ``sha256(description ++ code fingerprint)``
where *description* is a canonical, human-readable rendering of the
payload's identity (for experiments: every :class:`ExperimentConfig`
field, recursively, including the workload profile and calibration; for
what-if branches: the :class:`~repro.capacity.whatif.BranchSpec`, whose
checkpoint enters by its sha256).  Two equal descriptions are the same
computation; any change to the simulator's source changes the
fingerprint and orphans every entry (see :mod:`repro.runner.fingerprint`).

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro-jade``)::

    <key>.pkl    pickled payload (CompletedRun, BranchOutcome, ...)
    <key>.json   metadata sidecar: description, fingerprint, wall time,
                 summary — greppable without unpickling
    quarantine/  entries whose payload failed to unpickle, moved aside
                 for inspection (a load of one is a miss: the caller
                 recomputes and stores a fresh entry)

Entries are immutable; invalidation is by key change only, so ``rm -r``
on the directory is always safe.  The cache is size-capped: every store
prunes least-recently-used entries (payload mtime, refreshed on every
hit) until the directory fits ``max_bytes`` (default 2 GiB, override via
``$REPRO_CACHE_MAX_BYTES``; ``0`` disables pruning).  ``repro cache
{stats,clear,prune}`` exposes the same maintenance from the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from repro.runner.fingerprint import code_fingerprint

_DEFAULT_DIR = "~/.cache/repro-jade"
_DEFAULT_MAX_BYTES = 2 * 1024**3  # 2 GiB


def _canon(value):
    """Recursively render a config value as plain JSON-able data.

    Dataclasses and plain attribute-bag objects become ``{"__type__": name,
    ...fields}``; callables are rejected because they cannot be described
    by value (a config holding one is not cacheable).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            # a field outside equality is outside identity (a what-if
            # branch's checkpoint bytes, named by their digest)
            if f.compare:
                out[f.name] = _canon(getattr(value, f.name))
        return out
    if callable(value):
        raise TypeError(
            f"config contains a callable ({value!r}); not describable by value"
        )
    if hasattr(value, "__dict__") or hasattr(type(value), "__slots__"):
        out = {"__type__": type(value).__name__}
        attrs = getattr(value, "__dict__", None)
        if attrs is None:
            attrs = {
                s: getattr(value, s)
                for s in type(value).__slots__
                if hasattr(value, s)
            }
        for name in sorted(attrs):
            out[name] = _canon(attrs[name])
        return out
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def describe_config(config) -> str:
    """Canonical text form of an :class:`ExperimentConfig` (stable across
    processes and sessions; the cache-key input)."""
    return json.dumps(_canon(config), sort_keys=True, separators=(",", ":"))


def default_max_bytes() -> int:
    """Size cap from ``$REPRO_CACHE_MAX_BYTES`` (0 = unbounded)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if env:
        return max(0, int(env))
    return _DEFAULT_MAX_BYTES


class ResultCache:
    """Load/store picklable result payloads by computation identity."""

    def __init__(
        self, root: Optional[Path] = None, max_bytes: Optional[int] = None
    ) -> None:
        if root is None:
            root = Path(
                os.environ.get("REPRO_CACHE_DIR", _DEFAULT_DIR)
            ).expanduser()
        self.root = Path(root)
        self.max_bytes = default_max_bytes() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0
        #: corrupt entries moved to ``quarantine/`` (each also a miss)
        self.quarantined = 0

    # ------------------------------------------------------------------
    def key_for(self, config, fingerprint: Optional[str] = None) -> str:
        if fingerprint is None:
            fingerprint = code_fingerprint()
        digest = hashlib.sha256()
        digest.update(describe_config(config).encode())
        digest.update(b"\n")
        digest.update(fingerprint.encode())
        # Federation topology (region count, names, epoch/channel config)
        # is part of a payload's identity: without this a federated spec
        # whose field values happened to canonicalize like a
        # single-cluster config could alias its cache entry.
        topology = getattr(config, "topology", None)
        if callable(topology):
            digest.update(b"\ntopology:")
            digest.update(
                json.dumps(
                    _canon(topology()), sort_keys=True, separators=(",", ":")
                ).encode()
            )
        return digest.hexdigest()

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.pkl", self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, key: str):
        """The payload stored under ``key``, or None on a miss.  A payload
        that fails to unpickle, for whatever reason (truncated, garbage,
        a class that no longer exists), is quarantined and is a miss."""
        payload, sidecar = self._paths(key)
        try:
            fh = open(payload, "rb")
        except OSError:
            self.misses += 1
            return None
        try:
            with fh:
                run = pickle.load(fh)
        except Exception:
            self._quarantine(payload, sidecar)
            self.misses += 1
            return None
        self.hits += 1
        try:  # refresh LRU recency for the pruner
            os.utime(payload)
        except OSError:
            pass
        return run

    def _quarantine(self, payload: Path, sidecar: Path) -> None:
        """Move a corrupt entry into ``quarantine/`` so it is never read
        again (a racing reader may have moved it first)."""
        self.quarantined += 1
        target = self.root / "quarantine"
        target.mkdir(parents=True, exist_ok=True)
        for path in (payload, sidecar):
            try:
                os.replace(path, target / path.name)
            except OSError:
                pass

    def store(self, key: str, run, config=None) -> Path:
        """Persist atomically (write-rename, so readers never see a torn
        entry); returns the payload path."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload, sidecar = self._paths(key)
        blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, payload)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        meta = {
            "key": key,
            "code_fingerprint": code_fingerprint(),
            "payload_type": type(run).__name__,
        }
        for attr in ("wall_time_s", "events_processed"):
            value = getattr(run, attr, None)
            if value is not None:
                meta[attr] = value
        describe = getattr(run, "summary", None) or getattr(run, "to_record", None)
        if callable(describe):
            meta["summary"] = describe()
        if config is not None:
            meta["config"] = json.loads(describe_config(config))
        sidecar.write_text(json.dumps(meta, indent=2, default=float) + "\n")
        if self.max_bytes:
            self.prune()
        return payload

    # ------------------------------------------------------------------
    # Hygiene: size accounting, LRU pruning, clearing
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, Path, Path]]:
        """(payload mtime, total bytes, payload, sidecar) per entry."""
        entries = []
        try:
            payloads = sorted(self.root.glob("*.pkl"))
        except OSError:
            return []
        for payload in payloads:
            sidecar = payload.with_suffix(".json")
            try:
                stat = payload.stat()
            except OSError:
                continue
            size = stat.st_size
            try:
                size += sidecar.stat().st_size
            except OSError:
                pass
            entries.append((stat.st_mtime, size, payload, sidecar))
        return entries

    def stats(self) -> dict:
        """Entry count and on-disk footprint (plus this process's
        hit/miss counters)."""
        entries = self._entries()
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
        }

    def prune(self, max_bytes: Optional[int] = None) -> list[str]:
        """Evict least-recently-used entries until the cache fits the
        size cap; returns the evicted keys (oldest first)."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        if not cap:
            return []
        entries = sorted(self._entries())  # oldest mtime first
        total = sum(size for _, size, _, _ in entries)
        evicted = []
        for _, size, payload, sidecar in entries:
            if total <= cap:
                break
            for path in (payload, sidecar):
                try:
                    path.unlink()
                except OSError:
                    pass
            total -= size
            evicted.append(payload.stem)
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        entries = self._entries()
        for _, _, payload, sidecar in entries:
            for path in (payload, sidecar):
                try:
                    path.unlink()
                except OSError:
                    pass
        return len(entries)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultCache({self.root}, {self.hits} hits/{self.misses} misses)"
