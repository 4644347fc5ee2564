"""Backfilling schedulers: EASY and conservative.

Backfilling (Mu'alem & Feitelson [35]) is the workhorse of every
surveyed production scheduler (SLURM, PBS Pro, LSF, LoadLeveler,
MOAB): move small jobs forward through the queue as long as they do
not delay the reservation(s) of the job(s) at the head.

* **EASY**: only the head job holds a reservation; anything that fits
  now and does not push that one reservation starts immediately.
* **Conservative**: every queued job holds a reservation; a job may
  jump ahead only if it delays none of them.

Both use the user's walltime request as the runtime estimate — a hard
upper bound in this framework because jobs are killed at their
walltime, which keeps reservations sound even under power capping
slowdowns.

Both schedulers plan on a :class:`~repro.core.profile.FreeNodeProfile`
— an incrementally maintained step function of free nodes over time —
instead of re-deriving the profile from a raw delta dict per candidate
start.  That turns conservative backfill from ~O(P·T³) into O(P·T) at
queue depth P with T profile breakpoints, while producing decisions
identical to the seed implementations preserved in
:mod:`repro.core.reference_backfill` (enforced by property tests).

Batched passes
--------------
When the owning simulation hands over the queue as SoA columns
(``ctx.pending_arrays``, the :class:`~repro.core.jobtable.JobTable`
gather) *and* guarantees that the admission predicate is vacuous
(``ctx.trivial_admit`` — zero policies attached), both schedulers
switch from the per-job hook-visiting loop to whole-queue-slice
passes:

* EASY screens phase 1 with one ``cumsum``/``searchsorted`` (the first
  in-order failure) and phase 3 with a feasibility mask, visiting only
  jobs that could possibly start.
* Conservative plans the whole queue through one
  :func:`repro.power.kernels.plan_conservative_np` call with a
  saturation early-stop, and carries the planned profile across
  passes: while the cluster
  state and queue prefix are unchanged and no reservation has matured,
  a pass is either an O(log T) *defer* (still saturated — nothing can
  start) or a catch-up over just the newly submitted tail.

Both fast paths are decision-for-decision identical to the reference
loops: reservations beyond the early stop are pass-local scratch that
no caller can observe, and skipped ``admit`` calls are vacuous by the
``trivial_admit`` contract.  Any policy — even one that always admits
— forces the reference path, preserving hook visit order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..power import kernels
from .profile import FreeNodeProfile
from .scheduler import Scheduler, SchedulingContext, StartDecision

# Re-exported for prediction-assisted schedulers (fairshare module)
# that run the EASY arithmetic over predicted runtimes.
from .reference_backfill import _earliest_fit, _release_profile  # noqa: F401

#: Queue depth below which EASY's array screens cost more than the
#: plain loop they replace (a handful of numpy dispatches vs a walk
#: over a few jobs).  Purely a performance threshold — both paths
#: make identical decisions.
_EASY_BATCH_MIN_JOBS = 64


class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive) backfilling: one reservation for the head job."""

    name = "easy"

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        arrays = ctx.pending_arrays
        if (
            not ctx.trivial_admit
            or arrays is None
            or arrays[0].shape[0] < _EASY_BATCH_MIN_JOBS
        ):
            return self._schedule_reference(ctx)
        return self._schedule_batched(ctx, arrays)

    def _schedule_reference(
        self, ctx: SchedulingContext
    ) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        decisions: List[StartDecision] = []
        pool = self._make_pool(ctx)
        pending = list(ctx.pending)

        # Phase 1: start jobs in order while they fit and are admitted.
        blocked_idx = None
        for i, job in enumerate(pending):
            if job.nodes <= len(pool) and ctx.admit(job):
                decisions.append(
                    StartDecision(job, self._grant(ctx, job, pool))
                )
            else:
                blocked_idx = i
                break
        if blocked_idx is None:
            return decisions

        head = pending[blocked_idx]
        shadow, spare = self._shadow_and_spare(ctx, decisions, pool, head)

        # Phase 3: backfill later jobs.
        for job in pending[blocked_idx + 1 :]:
            if job.nodes > len(pool) or not ctx.admit(job):
                continue
            ends_before_shadow = ctx.now + job.walltime_request <= shadow
            fits_spare = job.nodes <= spare
            if ends_before_shadow or fits_spare:
                nodes = self._grant(ctx, job, pool)
                if not ends_before_shadow:
                    spare -= job.nodes
                decisions.append(StartDecision(job, nodes))
        return decisions

    def _schedule_batched(
        self,
        ctx: SchedulingContext,
        arrays: Tuple[np.ndarray, np.ndarray],
    ) -> List[StartDecision]:
        """Reference pass with the two queue walks screened by arrays;
        decisions are identical (see the module docstring)."""
        self.allocator.begin_pass(ctx.now)
        decisions: List[StartDecision] = []
        nodes_a, wall_a = arrays
        m = int(nodes_a.shape[0])
        if m == 0:
            return decisions
        pool = self._make_pool(ctx)
        pending = ctx.pending

        # Phase 1 screen: job i starts iff every prior job did and
        # cumulative demand still fits, so the first in-order failure
        # is one searchsorted over the running demand sum.
        csum = np.cumsum(nodes_a)
        blocked_idx = int(csum.searchsorted(len(pool), side="right"))
        for i in range(blocked_idx):
            job = pending[i]
            decisions.append(StartDecision(job, self._grant(ctx, job, pool)))
        if blocked_idx >= m:
            return decisions

        head = pending[blocked_idx]
        shadow, spare = self._shadow_and_spare(ctx, decisions, pool, head)

        # Phase 3 screen: the reference walk only shrinks the pool and
        # the spare count, so a mask built from their *initial* values
        # over-approximates the start set — every masked-out job would
        # fail the in-loop checks too.  The loop re-checks dynamically.
        tail_nodes = nodes_a[blocked_idx + 1 :]
        tail_ends = ctx.now + wall_a[blocked_idx + 1 :]
        mask = (tail_nodes <= len(pool)) & (
            (tail_ends <= shadow) | (tail_nodes <= spare)
        )
        for k in np.flatnonzero(mask).tolist():
            job = pending[blocked_idx + 1 + k]
            if job.nodes > len(pool):
                continue
            ends_before_shadow = ctx.now + job.walltime_request <= shadow
            fits_spare = job.nodes <= spare
            if ends_before_shadow or fits_spare:
                nodes = self._grant(ctx, job, pool)
                if not ends_before_shadow:
                    spare -= job.nodes
                decisions.append(StartDecision(job, nodes))
        return decisions

    def _shadow_and_spare(self, ctx, decisions, pool, head):
        """Phase 2: the blocked head's shadow time and spare nodes,
        off the release profile.  Origin -inf keeps stale (sub-now)
        release estimates as explicit breakpoints, matching the seed's
        raw release walk; equal-time releases merge into one breakpoint
        (the seed's duplicate-entry list was only cumulative by
        accident of the walk order)."""
        profile = FreeNodeProfile.from_releases(
            float("-inf"),
            len(pool),
            self._release_events(ctx, decisions),
        )
        shadow = profile.earliest_at_least(head.nodes, ctx.now)
        if shadow is None:
            shadow = float("inf")
            # Head can never fit (larger than capacity horizon or only
            # blocked by admission) — backfill without a shadow guard is
            # unsafe for the former; guard with capacity check:
            if head.nodes <= ctx.usable_node_count:
                # Blocked by admission (e.g. power): be conservative,
                # allow only jobs that fit in currently spare nodes.
                shadow = ctx.now

        # Spare nodes at shadow time: free nodes at shadow minus head's.
        spare = max(0, profile.free_at(shadow) - head.nodes)
        return shadow, spare

    @staticmethod
    def _release_events(
        ctx: SchedulingContext, decisions: List[StartDecision]
    ) -> List[Tuple[float, int]]:
        """Release events from running jobs plus this round's grants
        (granted nodes count as busy until their walltime)."""
        events = [
            (info.expected_end, len(info.node_ids)) for info in ctx.running
        ]
        events.extend(
            (ctx.now + d.job.walltime_request, len(d.nodes)) for d in decisions
        )
        return events


class _PassCache:
    """Profile carried between consecutive conservative passes.

    ``__slots__`` and no ``__dict__`` keep the cache invisible to the
    generic state capture (``repro.state.capture`` skips slot-only
    repro objects), which is exactly right: it is a pure accelerator —
    a restored scheduler starts cold and replans, reaching identical
    decisions.
    """

    __slots__ = (
        "valid", "started", "pool_len", "capacity", "releases",
        "m", "nodes", "wall", "times", "free", "n", "monotone",
        "minf", "planned",
    )

    def __init__(self) -> None:
        self.valid = False


class ConservativeBackfillScheduler(Scheduler):
    """Conservative backfilling: every queued job holds a reservation.

    Implemented by forward-simulating the free-node profile: each job
    in priority order is planned at its earliest feasible slot; only
    jobs planned to start *now* are actually started.  Planning uses
    walltime estimates, so no earlier-reserved job is ever delayed.

    The profile lives in a :class:`FreeNodeProfile` built once per
    pass; each reservation is an incremental subtraction over its
    ``[start, end)`` window and each earliest-slot search is a single
    sliding-window-minimum walk.  Under the batched contract (see the
    module docstring) the whole pass runs through one
    :func:`repro.power.kernels.plan_conservative_np` call and the planned
    profile is cached across passes.
    """

    name = "conservative"

    #: Debug/test switches.  Class attributes on purpose: they stay
    #: out of per-instance state capture, and tests flip them on the
    #: instance.  When ``capture_reservations`` is set, each pass
    #: stores its reserve-call sequence (``(start, end, nodes)`` in
    #: call order) in ``last_reservations``; batched passes record the
    #: kernel's reservations (from the resume point on catch-up).
    capture_reservations = False
    last_reservations: Optional[List[Tuple[float, float, int]]] = None
    #: Saturation early-stop toggle; equivalence sweeps disable it to
    #: compare full reservation sets against the reference.
    stop_early = True

    def __init__(self, allocator=None) -> None:
        super().__init__(allocator)
        self._cache = _PassCache()

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        arrays = ctx.pending_arrays
        if not ctx.trivial_admit or arrays is None:
            self._cache.valid = False
            return self._schedule_reference(ctx)
        return self._schedule_batched(ctx, arrays)

    def _schedule_reference(
        self, ctx: SchedulingContext
    ) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        decisions: List[StartDecision] = []
        pool = self._make_pool(ctx)
        now = ctx.now
        resv = [] if self.capture_reservations else None

        # Release events at or before now fold into the base count —
        # identical to the seed's free_at() summing every delta with
        # time <= t (the start-now guard below still checks the real
        # pool, so folded stale estimates cannot over-start jobs).
        profile = FreeNodeProfile.from_releases(
            now,
            len(pool),
            ((info.expected_end, len(info.node_ids)) for info in ctx.running),
        )
        capacity = ctx.usable_node_count

        for job in ctx.pending:
            if job.nodes > capacity:
                continue  # can never run; do not reserve
            admitted = ctx.admit(job)
            # Earliest profile breakpoint where the job fits for its
            # whole duration.
            start = profile.earliest_fit(job.nodes, job.walltime_request)
            if start is None:
                # No breakpoint fits the job (e.g. part of the machine
                # is booting, so free nodes never reach its size).  The
                # profile is constant after its last point, so check the
                # tail: if the job fits there it can be soundly
                # reserved, otherwise no sound reservation exists —
                # leave the job unreserved (it is retried on later
                # passes as nodes come up) instead of forcing one that
                # drives the free-node profile negative and delays
                # every reservation after it.
                tail = profile.tail_time
                if profile.free_at(tail) >= job.nodes:
                    start = tail
                else:
                    continue

            if start <= now and admitted and job.nodes <= len(pool):
                nodes = self._grant(ctx, job, pool)
                profile.reserve(now, now + job.walltime_request, job.nodes)
                if resv is not None:
                    resv.append((now, now + job.walltime_request, job.nodes))
                decisions.append(StartDecision(job, nodes))
            else:
                start = max(start, now)
                profile.reserve(start, start + job.walltime_request, job.nodes)
                if resv is not None:
                    resv.append(
                        (start, start + job.walltime_request, job.nodes)
                    )
        if resv is not None:
            self.last_reservations = resv
        return decisions

    def _schedule_batched(
        self,
        ctx: SchedulingContext,
        arrays: Tuple[np.ndarray, np.ndarray],
    ) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        now = ctx.now
        cache = self._cache
        nodes_a, wall_a = arrays
        m = int(nodes_a.shape[0])
        if m == 0:
            cache.valid = False
            return []
        pool_len = ctx.free_count()
        capacity = ctx.usable_node_count
        releases = tuple(
            (info.expected_end, len(info.node_ids)) for info in ctx.running
        )
        # Suffix minima over the queue: the cheapest profile window any
        # remaining job needs, for the kernel's saturation early-stop.
        sfx_nodes = np.minimum.accumulate(nodes_a[::-1])[::-1]
        sfx_wall = np.minimum.accumulate(wall_a[::-1])[::-1]
        stop_early = self.stop_early

        k0 = 0
        base_minf = float("inf")
        if (
            stop_early
            and cache.valid
            and not cache.started
            and cache.pool_len == pool_len
            and cache.capacity == capacity
            and cache.minf > now
            and (cache.n < 2 or float(cache.times[1]) > now)
            and m >= cache.m
            and cache.releases == releases
            and np.array_equal(nodes_a[: cache.m], cache.nodes)
            and np.array_equal(wall_a[: cache.m], cache.wall)
        ):
            # The previous pass's plan is still current: nothing
            # started, the pool and running set are unchanged, no
            # reservation or release breakpoint has matured, and the
            # planned queue prefix is byte-identical.  Re-check
            # saturation at the planned frontier: still saturated
            # means no job anywhere in the queue (old or newly
            # appended) can start — defer in O(log T).  Otherwise
            # catch up from the frontier on the carried profile.
            k0 = cache.planned
            if k0 >= m:
                return []
            smallest = int(sfx_nodes[k0])
            if pool_len < smallest:
                return []
            hi = int(
                cache.times[: cache.n].searchsorted(
                    now + float(sfx_wall[k0])
                )
            )
            if hi < 1:
                hi = 1
            if int(cache.free[:hi].min()) < smallest:
                return []
            times, free = cache.times, cache.free
            n = cache.n
            monotone = cache.monotone
            base_minf = cache.minf
            times, free = _grow_arrays(times, free, n, n + 2 * (m - k0))
        else:
            profile = FreeNodeProfile.from_releases(
                now, pool_len, list(releases)
            )
            times, free, n, monotone = profile.detach_arrays(2 * m)

        starts_out = np.empty(m - k0, dtype=np.int64)
        resv_out = np.empty((m - k0, 3), dtype=np.float64)
        n, planned, _, minf, monotone, n_starts, n_resv = (
            kernels.plan_conservative_np(
                times, free, n, nodes_a, wall_a, sfx_nodes, sfx_wall,
                k0, now, pool_len, capacity, monotone, stop_early,
                starts_out, resv_out,
            )
        )

        decisions: List[StartDecision] = []
        if n_starts:
            pool = self._make_pool(ctx)
            pending = ctx.pending
            for i in range(n_starts):
                job = pending[int(starts_out[i])]
                decisions.append(
                    StartDecision(job, self._grant(ctx, job, pool))
                )
        if self.capture_reservations:
            self.last_reservations = [
                (
                    float(resv_out[i, 0]),
                    float(resv_out[i, 1]),
                    int(resv_out[i, 2]),
                )
                for i in range(n_resv)
            ]

        cache.valid = True
        cache.started = n_starts > 0
        cache.pool_len = pool_len
        cache.capacity = capacity
        cache.releases = releases
        cache.m = m
        cache.nodes = nodes_a
        cache.wall = wall_a
        cache.times = times
        cache.free = free
        cache.n = n
        cache.monotone = monotone
        cache.minf = min(base_minf, minf)
        cache.planned = planned
        return decisions


def _grow_arrays(
    times: np.ndarray, free: np.ndarray, n: int, need: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Doubling growth of detached profile arrays (cross-pass cache)."""
    cap = int(times.shape[0])
    if cap >= need:
        return times, free
    while cap < need:
        cap *= 2
    new_times = np.empty(cap, dtype=np.float64)
    new_free = np.empty(cap, dtype=np.int64)
    new_times[:n] = times[:n]
    new_free[:n] = free[:n]
    return new_times, new_free
