"""Test oracles for the backfill schedulers and their kernels.

Nothing under ``src/`` imports this module
(``tests/test_oracle_isolation.py`` enforces it).  It holds the seed
implementations the runtime code must match decision for decision:

* :class:`ReferenceEasyBackfillScheduler` and
  :class:`ReferenceConservativeBackfillScheduler` — the original
  delta-dict EASY and conservative backfilling.  Conservative
  re-sorts and re-scans the whole profile per candidate start,
  O(P·T³) at queue depth P, which is why no runtime path uses them;
  the deep-queue benchmark measures the speedup against them;
* :class:`ReferencePredictiveEasyScheduler` — the stand-alone
  prediction-assisted EASY loop that
  :class:`repro.core.fairshare.PredictiveEasyScheduler` replaced with
  two hooks on the one EASY pass;
* :class:`ReferenceFreeNodeProfile` — the list-based free-node profile
  (bisect + monotone-deque sliding-window minimum), the oracle for
  :func:`repro.core.backfill.release_curve` and for the earliest-fit
  scan;
* :class:`NodePool` and :func:`reference_select` — the seed's object
  node pool and the ``sorted``-over-node-lists bodies of the
  first-fit, low-power and topology-aware allocators, the oracles for
  every row ``Allocator.select`` (the seed schedulers allocate
  through them);
* :func:`earliest_fit_index_py` and :func:`plan_conservative_py` —
  plain-python twins of the numpy kernels in
  :mod:`repro.power.kernels`.

The schedulers call ``ctx.admit`` on exactly the jobs, in exactly the
order, the seed did (``None`` admits every job), so sweeps can compare
admission call sequences as well as decisions.  Do not "fix" or
optimize this module: an intended behaviour change belongs in the
runtime code, with the oracle updated in the same commit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.core.allocator import (
    Allocator,
    FirstFitAllocator,
    LowPowerAllocator,
    TopologyAwareAllocator,
    check_pool,
)
from repro.core.fairshare import PredictiveEasyScheduler
from repro.core.scheduler import Scheduler, SchedulingContext, StartDecision
from repro.errors import SchedulingError
from repro.workload.job import Job

__all__ = [
    "NodePool",
    "ReferenceConservativeBackfillScheduler",
    "ReferenceEasyBackfillScheduler",
    "ReferenceFreeNodeProfile",
    "ReferencePredictiveEasyScheduler",
    "available_nodes",
    "earliest_fit_index_py",
    "plan_conservative_py",
    "reference_select",
]


def _admit(ctx: SchedulingContext) -> Callable[[Job], bool]:
    """The context's admission predicate; ``None`` admits every job."""
    return ctx.admit if ctx.admit is not None else (lambda job: True)


# ----------------------------------------------------------------------
# Seed node pool and allocator bodies
# ----------------------------------------------------------------------
_node_id = attrgetter("node_id")


class NodePool:
    """Insertion-ordered pool of free nodes with O(k) removal (a dict
    keyed by ``node_id``)."""

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


def available_nodes(ctx: SchedulingContext) -> List[Node]:
    """The context's usable nodes as objects, in id order (the seed's
    ``ctx.available`` list)."""
    nodes = ctx.machine.nodes
    return [nodes[row] for row in np.flatnonzero(ctx.selection.avail_mask)]


def _first_fit(available: Sequence[Node], count: int) -> List[Node]:
    return sorted(available, key=attrgetter("node_id"))[:count]


def _low_power(available: Sequence[Node], count: int) -> List[Node]:
    return sorted(
        available, key=attrgetter("effective_max_power", "node_id")
    )[:count]


def _topology(
    allocator: TopologyAwareAllocator,
    machine: Machine,
    available: Sequence[Node],
    count: int,
) -> List[Node]:
    topo = machine.topology
    ordered = sorted(available, key=attrgetter("node_id"))
    if topo is None or count == 1:
        return ordered[:count]

    # Contiguous-id window: in all three topology builders node ids
    # are laid out with locality, so a contiguous window is compact.
    best_window: Optional[List[Node]] = None
    best_cost = float("inf")
    ids = [n.node_id for n in ordered]
    for start in range(0, len(ordered) - count + 1):
        window_ids = ids[start : start + count]
        # Perfectly contiguous windows are likely compact; score them.
        if window_ids[-1] - window_ids[0] == count - 1:
            cost = topo.placement_cost(window_ids)
            if cost < best_cost:
                best_cost = cost
                best_window = ordered[start : start + count]
    if best_window is not None:
        return best_window

    # Greedy expansion from a few seeds.
    best_sel: Optional[List[Node]] = None
    for seed_idx in allocator._seed_indices(len(ordered)):
        seed = ordered[seed_idx]
        chosen = [seed]
        rest = [n for n in ordered if n is not seed]
        while len(chosen) < count:
            nearest = min(
                rest,
                key=lambda n: (
                    min(topo.distance(n.node_id, c.node_id) for c in chosen),
                    n.node_id,
                ),
            )
            chosen.append(nearest)
            rest.remove(nearest)
        cost = topo.placement_cost([n.node_id for n in chosen])
        if best_sel is None or cost < best_cost:
            best_sel, best_cost = chosen, cost
    assert best_sel is not None
    return best_sel


def reference_select(
    allocator: Allocator,
    machine: Machine,
    available: Sequence[Node],
    count: int,
) -> List[Node]:
    """The seed's object ``select`` for *allocator*'s strategy: exactly
    *count* nodes of *available*, in grant order.  Topology-aware
    selection reads the allocator's per-pass seed draws."""
    check_pool(len(available), count)
    if isinstance(allocator, FirstFitAllocator):
        return _first_fit(available, count)
    if isinstance(allocator, LowPowerAllocator):
        return _low_power(available, count)
    if isinstance(allocator, TopologyAwareAllocator):
        return _topology(allocator, machine, available, count)
    raise TypeError(f"no reference selection for {type(allocator).__name__}")


def _allocate(
    scheduler: Scheduler, ctx: SchedulingContext, job: Job, pool: Iterable[Node]
) -> Tuple[Node, ...]:
    """The seed ``Scheduler._allocate``: *job*'s nodes out of *pool*."""
    return tuple(
        reference_select(scheduler.allocator, ctx.machine, list(pool), job.nodes)
    )


# ----------------------------------------------------------------------
# Seed backfill schedulers
# ----------------------------------------------------------------------
def _release_profile(ctx: SchedulingContext) -> List[Tuple[float, int]]:
    """Sorted (time, nodes_released) list from running jobs' estimates."""
    events: dict = {}
    for info in ctx.running:
        events[info.expected_end] = events.get(info.expected_end, 0) + len(info.node_ids)
    return sorted(events.items())


def _earliest_fit(
    free_now: int,
    releases: List[Tuple[float, int]],
    needed: int,
    now: float,
) -> float:
    """Earliest time *needed* nodes are simultaneously free.

    Walks the (monotone non-decreasing) cumulative release profile.
    Returns ``now`` when the job fits immediately; +inf when it never
    fits (needed exceeds capacity horizon — caller guards that).
    """
    if needed <= free_now:
        return now
    free = free_now
    for time, released in releases:
        free += released
        if free >= needed:
            return time
    return float("inf")


class ReferenceEasyBackfillScheduler(Scheduler):
    """Seed EASY backfilling: one reservation for the head job."""

    name = "easy-reference"

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        decisions: List[StartDecision] = []
        pool = available_nodes(ctx)
        pending = list(ctx.pending)
        admit = _admit(ctx)

        # Phase 1: start jobs in order while they fit and are admitted.
        blocked_idx = None
        for i, job in enumerate(pending):
            if job.nodes <= len(pool) and admit(job):
                nodes = _allocate(self, ctx, job, pool)
                ids = {n.node_id for n in nodes}
                pool = [n for n in pool if n.node_id not in ids]
                decisions.append(StartDecision(job, nodes))
            else:
                blocked_idx = i
                break
        if blocked_idx is None:
            return decisions

        head = pending[blocked_idx]

        # Phase 2: compute the head's shadow time and spare nodes.
        releases = _release_profile(ctx)
        # Nodes already granted this round count as busy until their
        # walltime; fold them into the release profile.
        extra: dict = {}
        for d in decisions:
            end = ctx.now + d.job.walltime_request
            extra[end] = extra.get(end, 0) + len(d.nodes)
        merged = sorted(
            (dict(releases) | {}).items()
        )  # copy of releases as list
        for end, cnt in extra.items():
            merged.append((end, cnt))
        merged.sort()

        shadow = _earliest_fit(len(pool), merged, head.nodes, ctx.now)
        if shadow == float("inf"):
            # Head can never fit (larger than capacity horizon or only
            # blocked by admission) — backfill without a shadow guard is
            # unsafe for the former; guard with capacity check:
            if head.nodes > ctx.usable_node_count:
                shadow = float("inf")  # truly never; others may proceed
            else:
                # Blocked by admission (e.g. power): be conservative,
                # allow only jobs that fit in currently spare nodes.
                shadow = ctx.now

        # Spare nodes at shadow time: free nodes at shadow minus head's.
        free_at_shadow = len(pool)
        for time, released in merged:
            if time <= shadow:
                free_at_shadow += released
        spare = max(0, free_at_shadow - head.nodes)

        # Phase 3: backfill later jobs.
        for job in pending[blocked_idx + 1 :]:
            if job.nodes > len(pool) or not admit(job):
                continue
            ends_before_shadow = ctx.now + job.walltime_request <= shadow
            fits_spare = job.nodes <= spare
            if ends_before_shadow or fits_spare:
                nodes = _allocate(self, ctx, job, pool)
                ids = {n.node_id for n in nodes}
                pool = [n for n in pool if n.node_id not in ids]
                if not ends_before_shadow:
                    spare -= job.nodes
                decisions.append(StartDecision(job, nodes))
        return decisions


class ReferenceConservativeBackfillScheduler(Scheduler):
    """Seed conservative backfilling: delta-dict profile, full rescans."""

    name = "conservative-reference"

    #: ``(start, end, nodes)`` of every reservation the last pass
    #: placed (starts included), in placement order.
    last_reservations: Optional[List[Tuple[float, float, int]]] = None

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        decisions: List[StartDecision] = []
        pool = available_nodes(ctx)
        admit = _admit(ctx)
        resv: List[Tuple[float, float, int]] = []

        # Free-node profile as step function: list of (time, delta).
        deltas: dict = {}
        for info in ctx.running:
            deltas[info.expected_end] = deltas.get(info.expected_end, 0) + len(info.node_ids)

        def profile_points() -> List[float]:
            return sorted(set([ctx.now] + list(deltas.keys())))

        def free_at(t: float, free_now: int) -> int:
            free = free_now
            for time, delta in deltas.items():
                if time <= t:
                    free += delta
            return free

        free_now = len(pool)
        capacity = ctx.usable_node_count

        for job in ctx.pending:
            if job.nodes > capacity:
                continue  # can never run; do not reserve
            admitted = admit(job)
            # Earliest start: first profile point where the job fits for
            # its whole duration.
            start = None
            for candidate in profile_points():
                if candidate < ctx.now:
                    continue
                # Fits at candidate and throughout [candidate, end)?
                fits = True
                end = candidate + job.walltime_request
                for point in profile_points():
                    if candidate <= point < end:
                        if free_at(point, free_now) < job.nodes:
                            fits = False
                            break
                if fits and free_at(candidate, free_now) >= job.nodes:
                    start = candidate
                    break
            if start is None:
                # No profile point fits the job (e.g. part of the
                # machine is booting, so free nodes never reach its
                # size).  The profile is constant after its last point,
                # so search forward from there: if the job fits at the
                # tail it can be soundly reserved, otherwise no sound
                # reservation exists — leave the job unreserved (it is
                # retried on later passes as nodes come up) instead of
                # forcing one that drives the free-node profile
                # negative and delays every reservation after it.
                tail = max(profile_points())
                if free_at(tail, free_now) >= job.nodes:
                    start = tail
                else:
                    continue

            if start <= ctx.now and admitted and job.nodes <= len(pool):
                nodes = _allocate(self, ctx, job, pool)
                ids = {n.node_id for n in nodes}
                pool = [n for n in pool if n.node_id not in ids]
                free_now -= job.nodes
                end = ctx.now + job.walltime_request
                deltas[end] = deltas.get(end, 0) + job.nodes
                resv.append((ctx.now, end, job.nodes))
                decisions.append(StartDecision(job, nodes))
            else:
                # Reserve: subtract the job's nodes over [start, end).
                start = max(start, ctx.now)
                end = start + job.walltime_request
                deltas[start] = deltas.get(start, 0) - job.nodes
                deltas[end] = deltas.get(end, 0) + job.nodes
                resv.append((start, end, job.nodes))
        self.last_reservations = resv
        return decisions


class ReferencePredictiveEasyScheduler(PredictiveEasyScheduler):
    """Seed prediction-assisted EASY: its own loop over predicted
    runtimes (``_estimate``) and Tsafrir-corrected release ends
    (``_estimated_end``), on a dict-merged release list."""

    name = "predictive-easy-reference"

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        decisions: List[StartDecision] = []
        pool = NodePool(available_nodes(ctx))
        pending = list(ctx.pending)
        admit = _admit(ctx)

        blocked_idx = None
        for i, job in enumerate(pending):
            if job.nodes <= len(pool) and admit(job):
                nodes = _allocate(self, ctx, job, pool)
                pool.remove_ids(n.node_id for n in nodes)
                decisions.append(StartDecision(job, nodes))
            else:
                blocked_idx = i
                break
        if blocked_idx is None:
            return decisions

        head = pending[blocked_idx]
        # Release profile from *predicted* remaining runtimes.
        events: dict = {}
        for info in ctx.running:
            predicted_end = self._estimated_end(info.job, ctx.now)
            events[predicted_end] = events.get(predicted_end, 0) + len(info.node_ids)
        for d in decisions:
            end = ctx.now + self._estimate(d.job)
            events[end] = events.get(end, 0) + len(d.nodes)
        releases = sorted(events.items())

        shadow = _earliest_fit(len(pool), releases, head.nodes, ctx.now)
        if shadow == float("inf"):
            shadow = ctx.now if head.nodes <= ctx.usable_node_count else float("inf")

        free_at_shadow = len(pool)
        for time, released in releases:
            if time <= shadow:
                free_at_shadow += released
        spare = max(0, free_at_shadow - head.nodes)

        for job in pending[blocked_idx + 1 :]:
            if job.nodes > len(pool) or not admit(job):
                continue
            ends_before_shadow = ctx.now + self._estimate(job) <= shadow
            fits_spare = job.nodes <= spare
            if ends_before_shadow or fits_spare:
                nodes = _allocate(self, ctx, job, pool)
                pool.remove_ids(n.node_id for n in nodes)
                if not ends_before_shadow:
                    spare -= job.nodes
                decisions.append(StartDecision(job, nodes))
        return decisions


# ----------------------------------------------------------------------
# List-based free-node profile
# ----------------------------------------------------------------------
class ReferenceFreeNodeProfile:
    """Step function of free-node counts over ``[origin, +inf)``.

    ``times`` is strictly increasing with ``times[0] == origin``;
    ``free[i]`` is the count on ``[times[i], times[i+1])`` and the last
    segment extends to infinity.  Releases at or before *origin* fold
    into the base count (origin ``-inf`` keeps every one as a
    breakpoint); reservations subtract capacity over ``[start, end)``.
    """

    __slots__ = ("times", "free")

    def __init__(self, origin: float, free: int) -> None:
        self.times: List[float] = [float(origin)]
        self.free: List[int] = [int(free)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_releases(
        cls,
        origin: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]],
    ) -> "ReferenceFreeNodeProfile":
        """Build a profile from ``(time, nodes_released)`` events."""
        merged: dict = {}
        base = int(free_now)
        for time, count in releases:
            if count < 0:
                raise SchedulingError(
                    f"release of {count} nodes at t={time}: counts must be >= 0"
                )
            if time <= origin:
                base += count
            else:
                merged[time] = merged.get(time, 0) + count
        profile = cls(origin, base)
        running = base
        for time in sorted(merged):
            running += merged[time]
            profile.times.append(float(time))
            profile.free.append(running)
        return profile

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def earliest_fit(self, needed: int, duration: float) -> Optional[float]:
        """Earliest breakpoint from which *needed* nodes stay free for
        *duration* (monotone-deque sliding-window minimum), or None."""
        times, free = self.times, self.free
        n = len(times)
        window: deque = deque()  # indices into free, values increasing
        j = 0
        for i in range(n):
            end = times[i] + duration
            while j < n and times[j] < end:
                while window and free[window[-1]] >= free[j]:
                    window.pop()
                window.append(j)
                j += 1
            while window and window[0] < i:
                window.popleft()
            # Degenerate zero-length window (duration <= 0): the seed
            # semantics still require the level to hold at the start.
            low = free[window[0]] if window else free[i]
            if low >= needed:
                return times[i]
        return None

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    def reserve(self, start: float, end: float, count: int) -> None:
        if count <= 0:
            raise SchedulingError(
                f"reservation of {count} nodes: counts must be > 0"
            )
        if end <= start:
            return  # empty window: nothing to subtract
        if start < self.times[0]:
            raise SchedulingError(
                f"reservation at t={start} before profile origin {self.times[0]}"
            )
        lo = self._ensure_point(start)
        hi = self._ensure_point(end)
        free = self.free
        for i in range(lo, hi):
            free[i] -= count

    # ------------------------------------------------------------------
    def _ensure_point(self, time: float) -> int:
        times = self.times
        idx = bisect_left(times, time)
        if idx < len(times) and times[idx] == time:
            return idx
        times.insert(idx, time)
        self.free.insert(idx, self.free[idx - 1])
        return idx


# ----------------------------------------------------------------------
# Plain-python kernel twins
# ----------------------------------------------------------------------
def earliest_fit_index_py(
    times: Sequence[float],
    free: Sequence[int],
    needed: int,
    duration: float,
) -> int:
    """Reference implementation of the sliding-window-minimum scan:
    index of the earliest breakpoint from which *needed* nodes stay
    free for *duration*, or -1.  Mirrors
    :meth:`ReferenceFreeNodeProfile.earliest_fit` (non-monotone branch) with a
    ring buffer instead of a deque.  Test oracle for
    :func:`repro.power.kernels.earliest_fit_index_np`."""
    n = len(times)
    win = [0] * n
    head = 0
    tail = 0
    j = 0
    for i in range(n):
        end = times[i] + duration
        while j < n and times[j] < end:
            while tail > head and free[win[tail - 1]] >= free[j]:
                tail -= 1
            win[tail] = j
            tail += 1
            j += 1
        while tail > head and win[head] < i:
            head += 1
        low = free[win[head]] if tail > head else free[i]
        if low >= needed:
            return i
    return -1


def plan_conservative_py(
    times: np.ndarray,
    free: np.ndarray,
    n: int,
    nodes_req: Sequence[int],
    wall: Sequence[float],
    sfx_nodes: Sequence[int],
    sfx_wall: Sequence[float],
    k0: int,
    now: float,
    pool_free: int,
    capacity: int,
    monotone: bool,
    stop_early: bool,
    admitted: Optional[np.ndarray],
    starts_out: np.ndarray,
    resv_out: np.ndarray,
) -> Tuple[int, int, int, float, bool, int, int]:
    """Reference implementation on python lists (bisect + list.insert),
    mirroring :class:`ReferenceFreeNodeProfile` semantics op for op; test oracle
    for :func:`repro.power.kernels.plan_conservative_np`.  Returns
    ``(n, planned, pool_free, minf, monotone, n_starts, n_resv)`` and
    writes the planned profile back into ``times``/``free``."""
    t = times[:n].tolist()
    f = free[:n].tolist()
    m = len(nodes_req)
    minf = float("inf")
    n_starts = 0
    n_resv = 0
    k = k0
    while k < m:
        if stop_early:
            smallest = sfx_nodes[k]
            if pool_free < smallest:
                break
            hi = bisect_left(t, now + sfx_wall[k])
            if hi < 1:
                hi = 1
            if min(f[:hi]) < smallest:
                break
        nodes = nodes_req[k]
        dur = wall[k]
        idx_k = k
        k += 1
        if nodes > capacity:
            continue  # can never run; do not reserve
        size = len(t)
        if monotone:
            lo = bisect_left(f, nodes)
            has_fit = lo < size
            start = (t[0] if lo == 0 else t[lo]) if has_fit else 0.0
        else:
            idx = earliest_fit_index_py(t, f, nodes, dur)
            has_fit = idx >= 0
            start = t[idx] if has_fit else 0.0
        if not has_fit:
            # Constant-tail fallback: profile is flat after its last
            # breakpoint (see the scheduler's tail check).
            if f[size - 1] >= nodes:
                start = t[size - 1]
            else:
                continue
        if (
            start <= now
            and nodes <= pool_free
            and (admitted is None or admitted[idx_k])
        ):
            starts_out[n_starts] = idx_k
            n_starts += 1
            pool_free -= nodes
            s = now
        else:
            s = start if start > now else now
            if s < minf:
                minf = s
        e = s + dur
        if e > s:
            lo_i = _ensure_point_list(t, f, s)
            hi_i = _ensure_point_list(t, f, e)
            for i in range(lo_i, hi_i):
                f[i] -= nodes
            monotone = False
        resv_out[n_resv, 0] = s
        resv_out[n_resv, 1] = e
        resv_out[n_resv, 2] = nodes
        n_resv += 1
    n = len(t)
    times[:n] = t
    free[:n] = f
    return n, k, pool_free, minf, monotone, n_starts, n_resv


def _ensure_point_list(t: list, f: list, x: float) -> int:
    """List twin of :func:`repro.power.kernels._ensure_point_arr`."""
    idx = bisect_left(t, x)
    if idx < len(t) and t[idx] == x:
        return idx
    t.insert(idx, x)
    f.insert(idx, f[idx - 1])
    return idx
