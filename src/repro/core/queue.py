"""Batch queues.

Section II-A: "Users submit batch jobs into one or more batch queues
that are defined within the job scheduler. ... The various queues ...
may be designated as having higher or lower priorities and may be
restricted to some subset of the center's users."  This module models
exactly that: named queues with priorities, optional size/walltime
limits and user restrictions, and a merged priority order for the
scheduler.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import QueueError
from ..workload.job import Job, JobState
from .jobtable import JobTable


@dataclass(frozen=True)
class QueueConfig:
    """Definition of one batch queue.

    Attributes
    ----------
    name:
        Queue name; jobs select it via ``job.queue``.
    priority:
        Higher runs first across queues.
    max_nodes / max_walltime:
        Admission limits (None = unlimited).
    allowed_users:
        If non-empty, only these users may submit.
    """

    name: str
    priority: int = 0
    max_nodes: Optional[int] = None
    max_walltime: Optional[float] = None
    allowed_users: frozenset = field(default_factory=frozenset)

    def admits(self, job: Job) -> bool:
        """True if *job* satisfies this queue's limits."""
        if self.max_nodes is not None and job.nodes > self.max_nodes:
            return False
        if self.max_walltime is not None and job.walltime_request > self.max_walltime:
            return False
        if self.allowed_users and job.user not in self.allowed_users:
            return False
        return True


class JobQueue:
    """A set of named queues with a merged scheduling order.

    The merged order is (queue priority desc, job priority desc,
    submit time asc, job id) — deterministic and the standard
    priority-FCFS base order that backfilling variants preserve.
    """

    def __init__(self, configs: Optional[List[QueueConfig]] = None) -> None:
        configs = configs or [QueueConfig("default")]
        self._configs: Dict[str, QueueConfig] = {}
        for cfg in configs:
            if cfg.name in self._configs:
                raise QueueError(f"duplicate queue name {cfg.name!r}")
            self._configs[cfg.name] = cfg
        self._jobs: Dict[str, Job] = {}
        #: Memoized scheduling order and its sort keys, kept sorted by
        #: bisect on submit/remove (the key ends in the unique job id,
        #: so the order is total) and dropped whenever a queued job is
        #: mutated in place (moldable reshaping goes through
        #: :meth:`notify_job_changed` — sort keys are not immutable
        #: while queued, despite what earlier revisions assumed) or the
        #: queue is replaced wholesale.
        self._order: Optional[List[Job]] = None
        self._keys: List[Tuple] = []
        #: True while the table holds the current order (every table
        #: mutation drops its order rows).
        self._table_ordered = False
        #: SoA mirror of the queued jobs, kept in sync through the
        #: mutation hooks below (see ``repro.core.jobtable``).
        self._table = JobTable()

    # ------------------------------------------------------------------
    @property
    def queue_names(self) -> List[str]:
        """Configured queue names."""
        return list(self._configs)

    def config(self, name: str) -> QueueConfig:
        """The configuration of queue *name*."""
        try:
            return self._configs[name]
        except KeyError:
            raise QueueError(f"no queue named {name!r}") from None

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue a pending job into its declared queue."""
        if job.state is not JobState.PENDING:
            raise QueueError(f"job {job.job_id} is {job.state.value}, not pending")
        if job.job_id in self._jobs:
            raise QueueError(f"job {job.job_id} already queued")
        cfg = self._configs.get(job.queue) or self._configs.get("default")
        if cfg is None:
            raise QueueError(
                f"job {job.job_id}: queue {job.queue!r} undefined and no default"
            )
        if not cfg.admits(job):
            raise QueueError(
                f"job {job.job_id} violates limits of queue {cfg.name!r}"
            )
        self._jobs[job.job_id] = job
        self._table.add(job, cfg.priority)
        self._table_ordered = False
        if self._order is not None:
            key = self._sort_key(job)
            at = bisect_left(self._keys, key)
            self._keys.insert(at, key)
            self._order.insert(at, job)

    def remove(self, job_id: str) -> Job:
        """Remove and return a queued job (started or cancelled)."""
        try:
            job = self._jobs.pop(job_id)
        except KeyError:
            raise QueueError(f"job {job_id} not in queue") from None
        self._table.discard(job_id)
        self._table_ordered = False
        if self._order is not None:
            at = bisect_left(self._keys, self._sort_key(job))
            if at < len(self._order) and self._order[at] is job:
                del self._keys[at]
                del self._order[at]
            else:
                # Its key moved while queued without a notify: re-sort.
                self._order = None
        return job

    def notify_job_changed(self, job_id: str) -> None:
        """Invalidate the memoized order after an in-place mutation.

        Moldable reshaping rewrites ``job.nodes`` and
        ``job.walltime_request`` on *queued* jobs; priority edits are
        possible through the same route.  Both feed the merged sort
        key and the SoA columns, so every such mutation must pass
        through here — the memo otherwise serves a stale order (and
        the table stale rows) until the next submit/remove.
        """
        try:
            job = self._jobs[job_id]
        except KeyError:
            raise QueueError(f"job {job_id} not in queue") from None
        self._table.refresh(job)
        self._order = None

    def restore_jobs(self, jobs: Dict[str, Job]) -> None:
        """Replace the queue contents wholesale (state restore).

        Rebuilds the SoA mirror through the same per-job hook that
        submissions use, so a restored queue is indistinguishable from
        one grown by ``submit`` calls — required for the schema-v4
        round-trip contract.
        """
        self._jobs = dict(jobs)
        self._order = None
        self._table.clear()
        for job in self._jobs.values():
            cfg = self._configs.get(job.queue) or self._configs.get("default")
            self._table.add(job, cfg.priority if cfg else 0)

    def _sort_key(self, job: Job) -> Tuple:
        cfg = self._configs.get(job.queue) or self._configs.get("default")
        qprio = cfg.priority if cfg else 0
        return (-qprio, -job.priority, job.submit_time, job.job_id)

    def _ensure_order(self) -> List[Job]:
        if self._order is None:
            keyed = sorted(
                ((self._sort_key(job), job) for job in self._jobs.values()),
                key=lambda pair: pair[0],
            )
            self._keys = [key for key, _ in keyed]
            self._order = [job for _, job in keyed]
            self._table_ordered = False
        if not self._table_ordered:
            self._table.set_order(self._order)
            self._table_ordered = True
        return self._order

    def pending(self) -> List[Job]:
        """Jobs in merged scheduling order.

        Every policy tick and schedule pass reads this; re-sorting a
        deep backlog each time is O(Q log Q) per call, so the order is
        cached, and a submit or remove moves one job in it by bisect.
        Returns a fresh list — callers may slice or mutate it freely.
        """
        return list(self._ensure_order())

    def pending_arrays(self) -> "Tuple[np.ndarray, np.ndarray]":
        """``(nodes_required, walltime)`` columns in ``pending()``
        order — the SoA view scheduler passes consume.  Cached with the
        order memo; treat as read-only."""
        self._ensure_order()
        return self._table.order_columns()

    def backlog_nodes(self) -> int:
        """Total nodes requested by queued jobs (Q3b's backlog size)."""
        return sum(j.nodes for j in self._jobs.values())

    def by_queue(self) -> Dict[str, List[Job]]:
        """Pending jobs grouped by queue name."""
        groups: Dict[str, List[Job]] = {name: [] for name in self._configs}
        for job in self.pending():
            name = job.queue if job.queue in self._configs else "default"
            groups.setdefault(name, []).append(job)
        return groups
