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
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import Node
from ..workload.job import Job
from .allocator import Allocator, FirstFitAllocator, check_pool

#: C-speed node-id extraction for hot pool/sort paths.
_node_id = attrgetter("node_id")


class NodePool:
    """Insertion-ordered pool of free nodes with O(k) removal.

    Schedulers repeatedly grant a few nodes out of a large pool; the
    seed implementations rebuilt the whole pool list per started job
    (``[n for n in pool if n.node_id not in ids]`` — O(N) each).  A
    dict keyed by ``node_id`` keeps the same iteration order (Python
    dicts preserve insertion order across deletions) while removing a
    granted set in O(k).
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Iterable[Node]) -> None:
        nodes = list(nodes)
        self._nodes = dict(zip(map(_node_id, nodes), nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def remove_ids(self, node_ids: Iterable[int]) -> None:
        """Drop the granted nodes from the pool."""
        nodes = self._nodes
        for node_id in node_ids:
            del nodes[node_id]


@dataclass(frozen=True)
class NodeSelection:
    """Vectorized node-selection arrays handed to batch-aware
    allocators through :attr:`SchedulingContext.selection`.

    The arrays are the simulation's *live* masks and the power mirror's
    SoA columns (no copies); rows are ``machine.nodes`` positions, and
    the owning simulation only builds a selection when row order equals
    node-id order, so id-ordered allocator semantics reduce to row
    slicing.  Schedulers never mutate these — :class:`RowPool` copies
    the mask before drawing it down within a pass.
    """

    avail_mask: np.ndarray
    #: ``machine.nodes`` itself (row -> Node).  A plain list on purpose:
    #: the cyclic GC cannot see through numpy object arrays, and a node
    #: held in one keeps its simulation alive via ``power_listener``.
    nodes: Sequence[Node]
    max_power: np.ndarray
    variability: np.ndarray

    def eff_max_power(self, rows: np.ndarray) -> np.ndarray:
        """Variability-adjusted max power per row — the vector twin of
        ``Node.effective_max_power`` (same float64 product, so sort
        keys are bit-identical to the scalar path)."""
        return self.max_power[rows] * self.variability[rows]


class RowPool:
    """Row-mask twin of :class:`NodePool` for batch-aware allocators.

    Holds a private copy of the availability mask; grants clear bits.
    ``rows`` (the sorted indices of set bits) is materialized lazily
    and cached until the next removal, so phases that only test
    ``len(pool)`` never pay for it.  Because rows are id-ordered,
    iteration order is identical to the insertion-ordered
    :class:`NodePool` built from the same available list.
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
        """Row indices currently in the pool, ascending (== id order)."""
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
        return list(map(self.selection.nodes.__getitem__, rows.tolist()))

    def __iter__(self) -> Iterator[Node]:
        return iter(self.materialize(self.rows))


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

    ``available`` and ``running`` are *lazy*: a caller may pass the
    materialized lists (tests, reference paths) or zero-argument
    factories that build them on first access (the owning simulation's
    hot path).  Batch-aware schedulers that work on ``selection`` rows
    and :meth:`free_count` then never pay the object-list build — the
    dominant per-pass cost on a congested large machine.  Factories
    must be pure reads of live simulation state; they are only valid
    until the scheduling pass applies its decisions (the simulation
    never mutates node state while a scheduler is deciding).

    Attributes
    ----------
    now:
        Current simulated time.
    machine:
        The machine (read-only use).
    pending:
        Queued jobs in merged priority order.
    available:
        Idle nodes usable right now (already filtered by policies,
        e.g. maintenance-affected nodes removed).  Materialized on
        first access when backed by a factory.
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
    selection:
        Optional :class:`NodeSelection` with vectorized availability /
        power arrays.  Present only when the owning simulation can
        guarantee it matches ``available`` exactly (id-ordered rows,
        no node-filter policies); schedulers
        build a :class:`RowPool` from it instead of a
        :class:`NodePool` when the allocator supports row selection.
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
        "_available",
        "_running",
        "_available_factory",
        "_running_factory",
        "_avail_count",
    )

    def __init__(
        self,
        now: float,
        machine: Machine,
        pending: List[Job],
        available: Optional[List[Node]] = None,
        running: Optional[List[RunningJobInfo]] = None,
        admit: Optional[Callable[[Job], bool]] = None,
        usable_node_count: int = 0,
        selection: Optional[NodeSelection] = None,
        available_factory: Optional[Callable[[], List[Node]]] = None,
        running_factory: Optional[Callable[[], List[RunningJobInfo]]] = None,
        avail_count: Optional[int] = None,
        pending_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        if available is None and available_factory is None:
            raise TypeError(
                "SchedulingContext needs available or available_factory"
            )
        self.now = now
        self.machine = machine
        self.pending = pending
        self.admit = admit
        self.usable_node_count = usable_node_count
        self.selection = selection
        self._pending_arrays = pending_arrays
        self._available = available
        self._available_factory = available_factory
        self._running = running if running is not None else (
            [] if running_factory is None else None
        )
        self._running_factory = running_factory
        self._avail_count = (
            len(available) if avail_count is None else int(avail_count)
        )

    @property
    def available(self) -> List[Node]:
        """Idle usable nodes (id order); materialized on first access."""
        nodes = self._available
        if nodes is None:
            nodes = self._available_factory()
            self._available = nodes
        return nodes

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
        """Number of immediately usable nodes — O(1), never
        materializes the ``available`` list."""
        return self._avail_count


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
    def _allocate(
        self, ctx: SchedulingContext, job: Job, pool: Iterable[Node]
    ) -> Tuple[Node, ...]:
        """Pick nodes for *job* from *pool* via the allocator."""
        chosen = self.allocator.select(ctx.machine, list(pool), job.nodes)
        return tuple(chosen)

    def _make_pool(
        self, ctx: SchedulingContext
    ) -> Union[NodePool, RowPool]:
        """Pool of grantable nodes for one pass: a :class:`RowPool`
        over the context's selection arrays when both the context and
        the allocator support it, else the object :class:`NodePool`.
        Both iterate in the same (id) order, and grants through
        :meth:`_grant` are pinned decision-identical."""
        selection = ctx.selection
        if selection is not None and self.allocator.supports_rows:
            return RowPool(selection, count=ctx.free_count())
        return NodePool(ctx.available)

    def _grant(
        self,
        ctx: SchedulingContext,
        job: Job,
        pool: Union[NodePool, RowPool],
    ) -> Tuple[Node, ...]:
        """Pick nodes for *job* and remove them from *pool*."""
        if type(pool) is RowPool:
            check_pool(len(pool), job.nodes)
            rows = self.allocator.select_rows(pool, job.nodes)
            nodes = tuple(pool.materialize(rows))
            pool.remove_rows(rows)
            return nodes
        nodes = self._allocate(ctx, job, pool)
        pool.remove_ids(n.node_id for n in nodes)
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
        # head job, and keying every available node into a pool that is
        # never drawn from is the dominant per-pass cost.  The fit
        # check only needs the count; the pool is built when the first
        # job actually clears both gates (preserving the exact
        # admit-call sequence — admission hooks count vetoes).
        pool: Optional[Union[NodePool, RowPool]] = None
        free = ctx.free_count()
        admit = ctx.admit
        for job in ctx.pending:
            if job.nodes > (free if pool is None else len(pool)):
                break
            if admit is not None and not admit(job):
                break
            if pool is None:
                pool = self._make_pool(ctx)
            decisions.append(StartDecision(job, self._grant(ctx, job, pool)))
        return decisions
