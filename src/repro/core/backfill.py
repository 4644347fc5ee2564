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

Both schedulers plan on one *release curve* built by
:func:`release_curve`: the sorted times at which running jobs free
their nodes, with the cumulative free count from each one on.  EASY
reads the head's shadow time and spare count straight off it;
conservative copies it into flat arrays and subtracts reservations
from them.  Both read the queue as the ``(nodes, walltime)`` columns
of ``ctx.pending_arrays``.  Their decisions are identical to the seed
delta-dict schedulers, which live on as test oracles in
``tests/backfill_oracles.py`` (enforced by property tests).

One pass, and where admission is called
---------------------------------------
Each scheduler has one ``schedule`` body.  ``ctx.admit`` is the EPA
admission gate (Figure 1's resource-control component): policies
count vetoes and stamp estimates on jobs, so every scheduler calls it
on exactly the jobs, and in exactly the order, the seed loops did.
``ctx.admit is None`` means no policy is attached; the passes then
skip the call and may screen harder.

* EASY phase 1 finds the first job that does not fit with one
  ``cumsum``/``searchsorted`` over the node column, then admits jobs
  in order up to it and stops at the first veto.  Phase 3 screens the
  tail on ``nodes <= free`` (the only test that guards the seed's
  admit call) and, with no admission, also on the shadow/spare test;
  the walk re-checks the shrinking pool before admitting, so the mask
  only over-approximates the start set.  Below ``_SCREEN_MIN_JOBS``
  pending jobs both screens are plain walks over the same columns.
* Conservative admits every job that could ever run (``nodes <=
  capacity``) in queue order up front — the seed's call sequence —
  and plans the whole queue through one
  :func:`repro.power.kernels.plan_conservative_np` call that starts
  only admitted jobs, with a saturation early-stop.  With no
  admission it carries the planned curve across passes: while the
  cluster state and queue prefix are unchanged and no reservation has
  matured, a pass is either an O(log T) *defer* (still saturated —
  nothing can start) or a catch-up over just the newly submitted
  tail.  Reservations beyond the early stop are pass-local scratch
  that no caller can observe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchedulingError
from ..power import kernels
from ..workload.job import Job
from .scheduler import Scheduler, SchedulingContext, StartDecision


#: Queue depth below which EASY walks the queue instead of screening
#: it with array operations: on a shallow queue the handful of numpy
#: dispatches cost more than the walk they replace.  Purely a
#: performance threshold — both ways call ``admit`` on the same jobs
#: and make the same decisions.
_SCREEN_MIN_JOBS = 64


def release_curve(
    origin: float, free_now: int, releases: Iterable[Tuple[float, int]]
) -> Tuple[List[float], List[int]]:
    """The free-node release curve: ``(times, free)``, where
    ``free[i]`` nodes are free from ``times[i]`` on.

    ``times[0]`` is *origin*, and ``free[0]`` is *free_now* plus every
    release at or before *origin* (the seed's ``free_at`` summed every
    delta with ``time <= t``).  Each later ``(time, nodes)`` release
    adds a breakpoint, equal times merge into one, and the counts are
    cumulative, so ``times`` is strictly increasing and ``free`` never
    decreases.  An origin of ``float("-inf")`` keeps stale (sub-now)
    release estimates as breakpoints of their own.
    """
    base = int(free_now)
    merged: dict = {}
    for time, count in releases:
        if count < 0:
            raise SchedulingError(
                f"release of {count} nodes at t={time}: counts must be >= 0"
            )
        if time <= origin:
            base += count
        else:
            merged[time] = merged.get(time, 0) + count
    times = [origin]
    free = [base]
    for time in sorted(merged):
        base += merged[time]
        times.append(time)
        free.append(base)
    return times, free


class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive) backfilling: one reservation for the head job.

    Subclasses change the packing math through two hooks:
    :meth:`_estimates` (runtime estimate of each queued job) and
    :meth:`_running_releases` (when running jobs free their nodes).
    """

    name = "easy"

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        decisions: List[StartDecision] = []
        pending = ctx.pending
        m = len(pending)
        if m == 0:
            return decisions
        nodes_a, wall_a = ctx.pending_arrays
        admit = ctx.admit
        pool = ctx.pool()
        screen = m >= _SCREEN_MIN_JOBS

        # Phase 1: start jobs in order while they fit and are admitted.
        # Job i fits iff every prior job started and cumulative demand
        # still fits, so the first misfit is the first prefix sum above
        # the pool; admission is consulted up to it only.
        if screen:
            blocked_idx = int(
                np.cumsum(nodes_a).searchsorted(len(pool), side="right")
            )
        else:
            blocked_idx, free = m, len(pool)
            for i, nodes in enumerate(nodes_a.tolist()):
                free -= nodes
                if free < 0:
                    blocked_idx = i
                    break
        for i in range(blocked_idx):
            job = pending[i]
            if admit is not None and not admit(job):
                blocked_idx = i
                break
            decisions.append(StartDecision(job, self._grant(job, pool)))
        if blocked_idx >= m:
            return decisions

        head = pending[blocked_idx]
        est = self._estimates(pending, wall_a)
        shadow, spare = self._shadow_and_spare(ctx, decisions, est, pool, head)

        # Phase 3: backfill later jobs.  The walk only shrinks the pool
        # and the spare count, so a mask over their initial values
        # over-approximates the start set; the loop re-checks both.  A
        # shallow queue skips the mask and walks every tail job.
        now = ctx.now
        lo = blocked_idx + 1
        if screen:
            tail_nodes = nodes_a[lo:]
            mask = tail_nodes <= len(pool)
            if admit is None:
                mask &= (now + est[lo:] <= shadow) | (tail_nodes <= spare)
            candidates = np.flatnonzero(mask).tolist()
        else:
            candidates = range(m - lo)
        runtimes = est[lo:].tolist()
        for k in candidates:
            job = pending[lo + k]
            if job.nodes > len(pool):
                continue
            if admit is not None and not admit(job):
                continue
            ends_before_shadow = now + runtimes[k] <= shadow
            if ends_before_shadow or job.nodes <= spare:
                nodes = self._grant(job, pool)
                if not ends_before_shadow:
                    spare -= job.nodes
                decisions.append(StartDecision(job, nodes))
        return decisions

    def _estimates(self, pending: Sequence[Job], wall: np.ndarray) -> np.ndarray:
        """Runtime estimate per queued job, aligned with *pending*: the
        walltime request (a hard bound — jobs are killed there)."""
        return wall

    def _running_releases(
        self, ctx: SchedulingContext
    ) -> List[Tuple[float, int]]:
        """``(time, nodes)`` at which each running job frees its nodes:
        its walltime bound."""
        return [(info.expected_end, len(info.node_ids)) for info in ctx.running]

    def _shadow_and_spare(self, ctx, decisions, est, pool, head):
        """Phase 2: the blocked head's shadow time and spare nodes,
        off the release curve of running jobs plus this pass's grants
        (``decisions`` are ``pending[:len(decisions)]``; granted nodes
        count as busy until their estimate).  Origin -inf keeps stale
        (sub-now) release estimates as breakpoints, matching the seed's
        raw release walk; equal-time releases merge into one breakpoint
        (the seed's duplicate-entry list was only cumulative by accident
        of the walk order)."""
        now = ctx.now
        events = self._running_releases(ctx)
        events.extend(
            (now + runtime, len(d.nodes))
            for runtime, d in zip(est[: len(decisions)].tolist(), decisions)
        )
        times, free = release_curve(float("-inf"), len(pool), events)
        # The curve never decreases, so the first breakpoint at the
        # head's level is where the head fits for good; that breakpoint
        # may be a stale one in the past, which callers only compare
        # against.
        lo = bisect_left(free, head.nodes)
        if lo == 0:
            shadow = now
        elif lo < len(free):
            shadow = times[lo]
        elif head.nodes <= ctx.usable_node_count:
            # Never reached, yet the head could run: it is blocked by
            # admission (e.g. power).  Be conservative and allow only
            # jobs that fit in currently spare nodes.
            shadow = now
        else:
            # The head can never fit: backfill without a shadow guard.
            shadow = float("inf")

        # Spare nodes at shadow time: free nodes at shadow minus head's.
        spare = max(0, free[bisect_right(times, shadow) - 1] - head.nodes)
        return shadow, spare


class _PassCache:
    """Planned curve carried between consecutive conservative passes.

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

    Implemented by forward-simulating the release curve: each job
    in priority order is planned at its earliest feasible slot; only
    jobs planned to start *now* are actually started.  Planning uses
    walltime estimates, so no earlier-reserved job is ever delayed.

    The whole pass runs through one
    :func:`repro.power.kernels.plan_conservative_np` call over the
    curve's arrays: each reservation is a slice subtraction over its
    ``[start, end)`` window and each earliest-slot search one skip
    scan.  With no admission attached the planned curve is carried
    across passes (see the module docstring).
    """

    name = "conservative"

    #: Debug/test switches.  Class attributes on purpose: they stay
    #: out of per-instance state capture, and tests flip them on the
    #: instance.  When ``capture_reservations`` is set, each pass
    #: stores its reserve-call sequence (``(start, end, nodes)`` in
    #: call order) in ``last_reservations`` (from the resume point on
    #: a cross-pass catch-up).
    capture_reservations = False
    last_reservations: Optional[List[Tuple[float, float, int]]] = None
    #: Saturation early-stop toggle; equivalence sweeps disable it to
    #: compare full reservation sets against the seed oracle.
    stop_early = True

    def __init__(self, allocator=None) -> None:
        super().__init__(allocator)
        self._cache = _PassCache()

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        self.allocator.begin_pass(ctx.now)
        now = ctx.now
        cache = self._cache
        pending = ctx.pending
        m = len(pending)
        if m == 0:
            cache.valid = False
            return []
        nodes_a, wall_a = ctx.pending_arrays
        pool_len = ctx.free_count()
        capacity = ctx.usable_node_count
        admitted = None
        if ctx.admit is not None:
            # Every job that can ever run is admitted or vetoed, in
            # queue order, whether or not the plan reaches it.  The
            # carried plan assumed no admission, so it is dropped.
            admit = ctx.admit
            admitted = np.fromiter(
                (job.nodes <= capacity and admit(job) for job in pending),
                dtype=bool,
                count=m,
            )
            cache.valid = False
        releases = tuple(
            (info.expected_end, len(info.node_ids)) for info in ctx.running
        )
        # Suffix minima over the queue: the cheapest curve window any
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
            # catch up from the frontier on the carried curve.
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
            times, free = release_curve(now, pool_len, releases)
            n = len(times)
            monotone = True
            times, free = _grow_arrays(times, free, n, n + 2 * m)

        starts_out = np.empty(m - k0, dtype=np.int64)
        resv_out = np.empty((m - k0, 3), dtype=np.float64)
        n, planned, _, minf, monotone, n_starts, n_resv = (
            kernels.plan_conservative_np(
                times, free, n, nodes_a, wall_a, sfx_nodes, sfx_wall,
                k0, now, pool_len, capacity, monotone, stop_early,
                admitted, starts_out, resv_out,
            )
        )

        decisions: List[StartDecision] = []
        if n_starts:
            pool = ctx.pool()
            for i in range(n_starts):
                job = pending[int(starts_out[i])]
                decisions.append(
                    StartDecision(job, self._grant(job, pool))
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

        cache.valid = admitted is None
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


def _grow_arrays(times, free, n: int, need: int) -> Tuple[np.ndarray, np.ndarray]:
    """Planner arrays holding *need* breakpoints, the first *n* copied
    from *times*/*free*: a fresh release curve (lists, always grown)
    or the carried arrays (returned as they are while they fit).
    Capacity doubles."""
    cap = len(times)
    if cap >= need:
        return times, free
    while cap < need:
        cap *= 2
    new_times = np.empty(cap, dtype=np.float64)
    new_free = np.empty(cap, dtype=np.int64)
    new_times[:n] = times[:n]
    new_free[:n] = free[:n]
    return new_times, new_free
