"""Structure-of-arrays mirror of the pending queue.

PRs 2-8 drove the *node* dimension of the simulator onto flat numpy
arrays (``VectorPowerMirror``, the backfill planner's curve arrays); the
*queue* dimension still reached the schedulers as a Python list of
``Job`` objects, so every deep-queue backfill pass paid one attribute
walk per job.  :class:`JobTable` closes that gap: one row per queued
job across parallel columns (nodes required, walltime request, submit
time, priority, queue priority, moldable flag) plus a tombstone mask,
with capacity-doubling backing arrays so enqueue is amortized O(1).

Sync contract (DESIGN.md §12)
-----------------------------
The table is owned by :class:`~repro.core.queue.JobQueue` and mutated
*only* through its hooks:

* ``submit``  -> :meth:`add` (row appended, slot recorded)
* ``remove``  -> :meth:`discard` (row tombstoned; compaction when dead
  rows dominate)
* ``notify_job_changed`` -> :meth:`refresh` (in-place mutation of a
  queued job — moldable reshaping — re-reads the row)

Order is *not* re-derived here: ``JobQueue.pending()`` remains the
single authority for the merged scheduling order, and hands the sorted
job list to :meth:`set_order`.  The table then serves gathered
``(nodes, walltime)`` column slices in exactly that order, cached until
the next membership change or refresh, so a scheduler pass reads the
whole queue as two contiguous arrays instead of ~Q attribute lookups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workload.job import Job

__all__ = ["JobTable"]

#: Initial row capacity; doubles on demand.
_INITIAL_CAPACITY = 16

#: Compact when dead rows outnumber both this floor and the live rows
#: (keeps the arrays within 2x of the live set without churning on
#: small queues).
_COMPACT_FLOOR = 32


class JobTable:
    """SoA mirror of queued jobs; see the module docstring for the
    sync contract.  Columns are plain numpy arrays; ``live`` rows are
    those not masked by :attr:`tombstone`."""

    __slots__ = (
        "nodes_required",
        "walltime",
        "submit",
        "priority",
        "qpriority",
        "moldable",
        "tombstone",
        "_n",
        "_live",
        "_slot_of",
        "_order_rows",
        "_order_cols",
    )

    def __init__(self) -> None:
        cap = _INITIAL_CAPACITY
        self.nodes_required = np.empty(cap, dtype=np.int64)
        self.walltime = np.empty(cap, dtype=np.float64)
        self.submit = np.empty(cap, dtype=np.float64)
        self.priority = np.empty(cap, dtype=np.int64)
        self.qpriority = np.empty(cap, dtype=np.int64)
        self.moldable = np.zeros(cap, dtype=bool)
        self.tombstone = np.zeros(cap, dtype=bool)
        self._n = 0
        self._live = 0
        self._slot_of: Dict[str, int] = {}
        #: Row indices in merged scheduling order (set by the queue
        #: after each sort); None until the first order handoff.
        self._order_rows: Optional[np.ndarray] = None
        #: Cached gathered (nodes, walltime) columns for `_order_rows`.
        self._order_cols: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        """Number of non-tombstoned rows."""
        return self._live

    @property
    def row_count(self) -> int:
        """Number of occupied rows including tombstones."""
        return self._n

    def slot(self, job_id: str) -> int:
        """Row index of a queued job (KeyError when absent)."""
        return self._slot_of[job_id]

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._slot_of

    # ------------------------------------------------------------------
    # Mutation hooks (called by JobQueue only)
    # ------------------------------------------------------------------
    def add(self, job: Job, qpriority: int) -> int:
        """Append a row for a newly enqueued job; returns its slot."""
        slot = self._n
        if slot == self.nodes_required.shape[0]:
            self._grow(slot + 1)
        self._write_row(slot, job, qpriority)
        self.tombstone[slot] = False
        self._slot_of[job.job_id] = slot
        self._n = slot + 1
        self._live += 1
        self._invalidate_order()
        return slot

    def discard(self, job_id: str) -> None:
        """Tombstone the row of a removed job."""
        slot = self._slot_of.pop(job_id)
        self.tombstone[slot] = True
        self._live -= 1
        self._invalidate_order()
        dead = self._n - self._live
        if dead > _COMPACT_FLOOR and dead > self._live:
            self._compact()

    def refresh(self, job: Job) -> None:
        """Re-read a mutated queued job's row (moldable reshaping
        changes nodes/walltime in place; priority edits ride along)."""
        slot = self._slot_of[job.job_id]
        self._write_row(slot, job, int(self.qpriority[slot]))
        self._order_cols = None

    def clear(self) -> None:
        """Drop every row (wholesale queue replacement on restore)."""
        self._n = 0
        self._live = 0
        self._slot_of.clear()
        self._invalidate_order()

    # ------------------------------------------------------------------
    # Ordered views
    # ------------------------------------------------------------------
    def set_order(self, jobs: Sequence[Job]) -> None:
        """Record the merged scheduling order computed by the queue.

        Called by ``JobQueue.pending()`` right after its sort; the
        stable-order index lets :meth:`order_columns` reproduce
        ``pending()`` order exactly without re-deriving the sort key.
        """
        slot_of = self._slot_of
        self._order_rows = np.fromiter(
            (slot_of[job.job_id] for job in jobs),
            dtype=np.intp,
            count=len(jobs),
        )
        self._order_cols = None

    def order_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes_required, walltime)`` gathered in pending order.

        The gather result is cached until the queue membership or a
        row changes, so repeated scheduler passes over an unchanged
        backlog cost two array reads.  Callers must treat the arrays
        as read-only.
        """
        cols = self._order_cols
        if cols is None:
            rows = self._order_rows
            if rows is None:
                raise RuntimeError("order_columns before set_order")
            cols = (self.nodes_required[rows], self.walltime[rows])
            self._order_cols = cols
        return cols

    def live_ids(self) -> List[str]:
        """Job ids of live rows in slot order (testing/capture aid)."""
        return sorted(self._slot_of, key=self._slot_of.__getitem__)

    # ------------------------------------------------------------------
    def _write_row(self, slot: int, job: Job, qpriority: int) -> None:
        self.nodes_required[slot] = job.nodes
        self.walltime[slot] = job.walltime_request
        self.submit[slot] = job.submit_time
        self.priority[slot] = job.priority
        self.qpriority[slot] = qpriority
        self.moldable[slot] = bool(job.moldable)

    def _invalidate_order(self) -> None:
        self._order_rows = None
        self._order_cols = None

    def _grow(self, need: int) -> None:
        cap = self.nodes_required.shape[0]
        while cap < need:
            cap *= 2
        for name in (
            "nodes_required", "walltime", "submit", "priority",
            "qpriority", "moldable", "tombstone",
        ):
            old = getattr(self, name)
            fresh = np.zeros(cap, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)

    def _compact(self) -> None:
        """Densify rows, dropping tombstones; slot order is preserved
        so id->slot stays a stable total order over survivors."""
        keep = np.flatnonzero(~self.tombstone[: self._n])
        for name in (
            "nodes_required", "walltime", "submit", "priority",
            "qpriority", "moldable",
        ):
            col = getattr(self, name)
            col[: keep.size] = col[keep]
        self.tombstone[: keep.size] = False
        self._n = keep.size
        old_to_new = {int(old): new for new, old in enumerate(keep.tolist())}
        self._slot_of = {
            jid: old_to_new[slot] for jid, slot in self._slot_of.items()
        }
        self._invalidate_order()
