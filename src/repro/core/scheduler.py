"""Scheduler interface and the FCFS baseline.

"The job scheduler examines the overall set of pending work waiting to
run on the computer and makes decisions about which jobs to place next
onto the computational nodes" (Section II-A).  A scheduler here is a
pure decision function: given a :class:`SchedulingContext` snapshot it
returns the list of jobs to start *now* and on which nodes.  All
actuation (node binding, event scheduling, power control) happens in
:class:`~repro.core.simulation.ClusterSimulation`, so schedulers stay
deterministic and unit-testable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import Node
from ..workload.job import Job
from .allocator import Allocator, FirstFitAllocator


@dataclass(frozen=True)
class NodeSelection:
    """The node arrays a scheduling pass allocates from, handed to
    allocators through :attr:`SchedulingContext.selection`.

    Rows are node ids (``machine.nodes`` positions — the
    :class:`~repro.cluster.machine.Machine` invariant), so id-ordered
    allocator semantics reduce to row slicing.  ``avail_mask`` is the
    node store's idle mask (``state_code == IDLE``), or the private
    copy its node filters cleared; ``max_power`` and ``variability``
    are the machine's node-store columns (no copies).  Schedulers
    never mutate these —
    :class:`RowPool` copies the mask before drawing it down within a
    pass.
    """

    avail_mask: np.ndarray
    #: The machine: ``machine.nodes`` maps rows to nodes, and
    #: ``machine.topology`` serves placement-aware allocators.
    machine: Machine
    max_power: np.ndarray
    variability: np.ndarray

    def eff_max_power(self, rows: np.ndarray) -> np.ndarray:
        """Variability-adjusted max power per row — the vector twin of
        ``Node.effective_max_power`` (same float64 product, so sort
        keys are bit-identical to it)."""
        return self.max_power[rows] * self.variability[rows]


class RowPool:
    """The grantable nodes of one scheduling pass, as a row mask.

    Holds a private copy of the selection's availability mask; grants
    clear bits.  ``rows`` (the sorted indices of set bits, i.e. free
    node ids ascending) is materialized lazily and cached until the
    next removal, so phases that only test ``len(pool)`` never pay
    for it.
    """

    __slots__ = ("selection", "_mask", "_count", "_rows")

    def __init__(self, selection: NodeSelection, count: Optional[int] = None) -> None:
        self.selection = selection
        self._mask = selection.avail_mask.copy()
        self._count = (
            int(np.count_nonzero(self._mask)) if count is None else int(count)
        )
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._count

    @property
    def rows(self) -> np.ndarray:
        """Row indices (node ids) currently in the pool, ascending."""
        if self._rows is None:
            self._rows = np.flatnonzero(self._mask)
        return self._rows

    def remove_rows(self, rows: np.ndarray) -> None:
        """Drop the granted rows from the pool."""
        self._mask[rows] = False
        self._count -= int(rows.size)
        self._rows = None

    def materialize(self, rows: np.ndarray) -> List[Node]:
        """Node objects for *rows* (the start-decision payload)."""
        return list(map(self.selection.machine.nodes.__getitem__, rows.tolist()))


@dataclass(frozen=True)
class RunningJobInfo:
    """Scheduler-visible view of one running job.

    ``expected_end`` is based on the user's walltime request — a hard
    upper bound, since jobs are terminated at their walltime.  This is
    what makes backfill reservations sound even when power management
    slows jobs down.
    """

    job: Job
    node_ids: Tuple[int, ...]
    expected_end: float


class SchedulingContext:
    """Snapshot handed to :meth:`Scheduler.schedule`.

    ``running`` is *lazy*: a caller may pass the materialized list
    (tests) or a zero-argument factory that builds it on first access
    (the owning simulation's hot path), so schedulers that never read
    it never pay for it.  The factory must be a pure read of live
    simulation state; it is only valid until the scheduling pass
    applies its decisions.

    Attributes
    ----------
    now:
        Current simulated time.
    machine:
        The machine (read-only use).
    pending:
        Queued jobs in merged priority order.
    selection:
        :class:`NodeSelection` whose ``avail_mask`` marks the idle
        nodes usable right now (already filtered by policies, e.g.
        maintenance-affected nodes cleared).  Schedulers allocate from
        a :meth:`pool` over it.
    running:
        Running-job views with conservative end estimates.
        Materialized on first access when backed by a factory.
    admit:
        EPA admission predicate: policies veto job starts (power
        budget exceeded, prediction says too hungry, ...), or ``None``
        when no policy is attached and every job is admitted.
        Schedulers must consult it before deciding to start a job;
        a veto is an observable side effect (policies count them), so
        the call sequence is part of a scheduler's contract.
    usable_node_count:
        Number of nodes that can eventually become available (powered
        or bootable, not down/maintenance) — the capacity horizon for
        reservations.
    pending_arrays:
        ``(nodes_required, walltime)`` SoA columns aligned with
        ``pending``; read-only.  The owning simulation hands over the
        :class:`~repro.core.jobtable.JobTable` gather when no shaping
        policy rewrites jobs; otherwise the columns are built from
        ``pending`` on first access.
    """

    __slots__ = (
        "now",
        "machine",
        "pending",
        "admit",
        "usable_node_count",
        "selection",
        "_pending_arrays",
        "_running",
        "_running_factory",
        "_avail_count",
    )

    def __init__(
        self,
        now: float,
        machine: Machine,
        pending: List[Job],
        selection: NodeSelection,
        running: Optional[List[RunningJobInfo]] = None,
        admit: Optional[Callable[[Job], bool]] = None,
        usable_node_count: int = 0,
        running_factory: Optional[Callable[[], List[RunningJobInfo]]] = None,
        avail_count: Optional[int] = None,
        pending_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.now = now
        self.machine = machine
        self.pending = pending
        self.admit = admit
        self.usable_node_count = usable_node_count
        self.selection = selection
        self._pending_arrays = pending_arrays
        self._running = running if running is not None else (
            [] if running_factory is None else None
        )
        self._running_factory = running_factory
        self._avail_count = (
            int(np.count_nonzero(selection.avail_mask))
            if avail_count is None else int(avail_count)
        )

    @property
    def running(self) -> List[RunningJobInfo]:
        """Running-job views; materialized on first access."""
        jobs = self._running
        if jobs is None:
            jobs = self._running_factory()
            self._running = jobs
        return jobs

    @property
    def pending_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes_required, walltime)`` columns in ``pending`` order;
        built from ``pending`` on first access when not handed over."""
        arrays = self._pending_arrays
        if arrays is None:
            pending = self.pending
            count = len(pending)
            arrays = (
                np.fromiter((j.nodes for j in pending), np.int64, count),
                np.fromiter(
                    (j.walltime_request for j in pending), np.float64, count
                ),
            )
            self._pending_arrays = arrays
        return arrays

    def reordered(self, pending: List[Job]) -> "SchedulingContext":
        """This snapshot with the queue in another order (same nodes,
        running set and admission predicate)."""
        ctx = copy.copy(self)
        ctx.pending = pending
        ctx._pending_arrays = None
        return ctx

    def free_count(self) -> int:
        """Number of immediately usable nodes (the popcount of
        ``selection.avail_mask``) — O(1)."""
        return self._avail_count

    def pool(self) -> RowPool:
        """A fresh pool over this snapshot's usable nodes, for one
        pass to draw down."""
        return RowPool(self.selection, count=self._avail_count)


@dataclass(frozen=True)
class StartDecision:
    """One job start: which job, on which nodes."""

    job: Job
    nodes: Tuple[Node, ...]


class Scheduler:
    """Base class for schedulers.

    Parameters
    ----------
    allocator:
        Node-selection strategy used once a job is cleared to start.
    """

    name = "base"

    def __init__(self, allocator: Optional[Allocator] = None) -> None:
        self.allocator = allocator or FirstFitAllocator()

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        """Return the job starts to perform at ``ctx.now``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _grant(self, job: Job, pool: RowPool) -> Tuple[Node, ...]:
        """Pick nodes for *job* and remove them from *pool*."""
        rows = self.allocator.select(pool, job.nodes)
        nodes = tuple(pool.materialize(rows))
        pool.remove_rows(rows)
        return nodes


class FcfsScheduler(Scheduler):
    """Strict first-come-first-served.

    Starts jobs in queue order; the first job that cannot start (not
    enough nodes, or vetoed by admission) blocks everything behind it.
    The canonical lower-bound baseline of the backfilling literature.
    """

    name = "fcfs"

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        decisions: List[StartDecision] = []
        # Lazy pool: on a congested machine most passes block on the
        # head job.  The fit check only needs the count; the pool is
        # built when the first job actually clears both gates.
        pool: Optional[RowPool] = None
        free = ctx.free_count()
        admit = ctx.admit
        for job in ctx.pending:
            if job.nodes > (free if pool is None else len(pool)):
                break
            if admit is not None and not admit(job):
                break
            if pool is None:
                pool = ctx.pool()
            decisions.append(StartDecision(job, self._grant(job, pool)))
        return decisions
