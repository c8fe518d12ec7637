"""C-JDBC recovery log.

"A 'recovery log' has been added to the C-JDBC load-balancer.  This
recovery log is implemented as a particular database whose purpose is to
keep track of all the requests that affect the state of the database.
Basically, all write requests are logged and indexed as strings in this
recovery log." (§4.1)

The log is an append-only sequence of writes.  Inserting a new backend
replays the suffix of the log it has not yet executed; removing a backend
records the index of the last write it executed, so a later re-insertion
replays only the gap.

The log holds no object per write: it stores three packed columns (the
shared interaction-name strings, ``array("d")`` demands and
``array("q")`` weights) and builds a :class:`WriteEntry` only when
:meth:`RecoveryLog.append`, :meth:`~RecoveryLog.get` or
:meth:`~RecoveryLog.entries_from` hands one out.  An entry's ``write_id``
is always ``index + 1``, so neither is stored.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional


class WriteEntry:
    """One logged write request (a cohort write batches ``weight`` identical
    writes; ``demand`` is their summed CPU demand)."""

    __slots__ = ("index", "write_id", "sql", "demand", "weight")

    def __init__(
        self, index: int, write_id: int, sql: str, demand: float, weight: int = 1
    ):
        self.index = index
        self.write_id = write_id
        self.sql = sql
        self.demand = demand
        self.weight = weight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteEntry(#{self.index}, id={self.write_id})"


class RecoveryLog:
    """Append-only indexed write log with per-backend checkpoints."""

    def __init__(self) -> None:
        self._sql: list[str] = []
        self._demand = array("d")
        self._weight = array("q")
        self._checkpoints: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def next_index(self) -> int:
        """Index the next appended entry will receive (== current length)."""
        return len(self._sql)

    def append(self, sql: str, demand: float, weight: int = 1) -> WriteEntry:
        """Log a write request; returns the entry (with its index)."""
        index = len(self._sql)
        self._sql.append(sql)
        self._demand.append(demand)
        self._weight.append(weight)
        return WriteEntry(index, index + 1, sql, demand, weight)

    def get(self, index: int) -> WriteEntry:
        """The entry at ``index`` (built on each call, so equal to what
        :meth:`append` returned but not the same object)."""
        sql = self._sql[index]
        if index < 0:
            index += len(self._sql)
        return WriteEntry(
            index, index + 1, sql, self._demand[index], self._weight[index]
        )

    def entries_from(self, index: int) -> Iterator[WriteEntry]:
        """Iterate entries with index >= ``index`` (the replay suffix, as
        it stands when called)."""
        if index < 0:
            raise IndexError("index must be >= 0")
        return map(self.get, range(index, len(self._sql)))

    def __len__(self) -> int:
        return len(self._sql)

    # ------------------------------------------------------------------
    # Checkpoints ("the state is stored as the index value in the recovery
    # log corresponding to the last write request that it has executed
    # before being disabled")
    # ------------------------------------------------------------------
    def set_checkpoint(self, backend_name: str, index: int) -> None:
        if not 0 <= index <= self.next_index:
            raise IndexError(
                f"checkpoint {index} outside log bounds [0, {self.next_index}]"
            )
        self._checkpoints[backend_name] = index

    def checkpoint(self, backend_name: str) -> Optional[int]:
        return self._checkpoints.get(backend_name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecoveryLog({len(self._sql)} entries)"
