"""Point-in-time checkpoint of a managed system.

A what-if fork branches from the system itself, not from a model of it:
:meth:`SystemSnapshot.capture` pickles the live
:class:`~repro.jade.system.ManagedSystem` once — its kernel queue, the
requests in flight, a half-done reconfiguration, the RNG streams — and
every branch resumes its own copy of those bytes.  A system pickles at
any instant, from inside one of its own kernel callbacks included (the
proactive manager captures from its planning tick).  Capturing only reads
the parent, so the parent-isolation guarantee of the what-if engine holds
by construction.

The checkpoint carries no decision tracer: a JSONL sink is an open file,
and branches do not trace.  Every reference to a tracer loads as ``None``.

Beside the bytes, the snapshot keeps the few observable figures a decision
reads without loading them: the instant, the client population, the
replica count of each tier and the free nodes.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import pickle
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.system import ManagedSystem


def _no_tracer() -> None:
    return None


def _drop_tracer(tracer) -> tuple:
    """Pickle reducer: a tracer loads as ``None``."""
    return _no_tracer, ()


@dataclass(frozen=True)
class SystemSnapshot:
    """A checkpoint of the live system and what a decision reads off it."""

    t: float
    clients: int
    app_replicas: int
    db_replicas: int
    free_nodes: int
    #: the pickled system; equality and cache keys use its digest
    checkpoint: bytes = field(repr=False, compare=False)
    #: sha256 of ``checkpoint``
    sha256: str

    @classmethod
    def capture(cls, system: "ManagedSystem") -> "SystemSnapshot":
        """Checkpoint ``system`` as it is now (no mutation)."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        # Only a traced run has loaded the tracer module: an untraced one
        # pickles with the default table and never imports it.
        tracer_module = sys.modules.get("repro.obs.tracer")
        if tracer_module is not None:
            pickler.dispatch_table = {
                **copyreg.dispatch_table,
                tracer_module.Tracer: _drop_tracer,
            }
        pickler.dump(system)
        blob = buffer.getvalue()
        return cls(
            t=system.kernel.now,
            clients=system.emulator.active_clients,
            app_replicas=system.app_tier.replica_count,
            db_replicas=system.db_tier.replica_count,
            free_nodes=system.cluster.free_count,
            checkpoint=blob,
            sha256=hashlib.sha256(blob).hexdigest(),
        )
