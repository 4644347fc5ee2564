"""Array kernels for the engine's hottest loops.

One numpy kernel per operation, each called directly by its engine
caller:

* :func:`node_points_np` — the node power physics per row, and
  :func:`node_watts_np`, its watts alone: the inner kernel of
  :meth:`~repro.power.vector.VectorPowerMirror.machine_watts`;
* :func:`earliest_fit_index_np` — the earliest-fit window scan over a
  free-node curve with reservations subtracted;
* :func:`plan_conservative_np` — a whole conservative-backfill pass
  (:class:`~repro.core.backfill.ConservativeBackfillScheduler`) over
  the release curve of :func:`repro.core.backfill.release_curve`.

Plain-python oracles for the two scans and the breakpoint insertion
live in ``tests/backfill_oracles.py``; the randomized sweeps in
``tests/`` pin each numpy kernel against its oracle decision for
decision.  Reductions are never performed inside a kernel — totals go
through ``np.sum`` on the caller side, so summation order is fixed by
the caller.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "node_points_np",
    "node_watts_np",
    "earliest_fit_index_np",
    "plan_conservative_np",
]


# Small-int state codes, kept in sync with ``vector.STATE_CODES`` (the
# mirror asserts the mapping at import time; see power/vector.py).
_OFF = 0
_DOWN = 1
_BOOTING = 2
_SHUTTING_DOWN = 3
_IDLE = 4
_BUSY = 5


# ----------------------------------------------------------------------
# Kernel 1: per-node power (the machine_watts dirty-fold inner kernel)
# ----------------------------------------------------------------------
def node_points_np(
    state: np.ndarray,
    idle: np.ndarray,
    max_p: np.ndarray,
    off_p: np.ndarray,
    var: np.ndarray,
    freq: np.ndarray,
    min_f: np.ndarray,
    max_f: np.ndarray,
    cap: np.ndarray,
    util: np.ndarray,
    alpha: float,
    boot_frac: float,
    shut_frac: float,
) -> Tuple[np.ndarray, ...]:
    """Node power physics, one row per node: ``(watts, f_set, f_eff,
    clamped, dyn)``.

    Off and down rows draw ``off_p``; booting rows ``off_p`` plus
    *boot_frac* of their variability-adjusted max; shutting-down rows
    *shut_frac* of idle; idle rows idle.  A busy row draws ``idle + dyn
    * f_eff**alpha`` with ``dyn = (max_p - idle) * var * util``, where
    the effective frequency ratio ``f_eff`` is the set ratio ``f_set``
    clamped to the highest ratio whose draw meets the row's cap (+inf
    for none), but never below ``f_min``: ``clamped`` marks the rows
    held at ``f_min`` over their cap.  The scalar statement of the same
    physics is ``tests/power_oracles.py``.
    """
    off = (state == _OFF) | (state == _DOWN)
    boot = state == _BOOTING
    shut = state == _SHUTTING_DOWN
    idle_m = state == _IDLE

    f_set = freq / max_f
    f_min = min_f / max_f
    dyn = (max_p - idle) * var * util

    # BUSY cap clamp.  A gone budget (cap <= idle) and f_cap < f_min
    # both resolve to (f_min, clamped), so a single guarded f_cap (0
    # when the budget is gone) covers both.
    capped = np.isfinite(cap)
    over = capped & (dyn > 0.0) & (idle + dyn * f_set**alpha > cap)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_cap = (
            np.maximum(cap - idle, 0.0) / np.where(dyn > 0.0, dyn, 1.0)
        ) ** (1.0 / alpha)
    f_eff = np.where(over, np.minimum(f_set, f_cap), f_set)
    clamped = over & (f_cap < f_min)
    f_eff = np.where(clamped, f_min, f_eff)

    watts = np.select(
        [off, boot, shut, idle_m],
        [
            off_p,
            off_p + boot_frac * (max_p * var),
            idle * shut_frac,
            idle,
        ],
        default=idle + dyn * f_eff**alpha,
    )
    return watts, f_set, f_eff, clamped, dyn


def node_watts_np(*columns) -> np.ndarray:
    """Watts per row: the first field of :func:`node_points_np` (same
    arguments), all the ``machine_watts`` fold needs."""
    return node_points_np(*columns)[0]


# ----------------------------------------------------------------------
# Kernel 2: earliest-fit window scan over a reserved free-node curve
# ----------------------------------------------------------------------
def earliest_fit_index_np(
    times: np.ndarray,
    free: np.ndarray,
    needed: int,
    duration: float,
) -> int:
    """Skip-scan earliest fit over the free curve.

    For breakpoint *i* the window is ``[i, e_i)`` with ``e_i =
    searchsorted(times, times[i] + duration, 'left')`` — exactly the
    indices the deque walk admits (``times[j] < times[i] + duration``).
    A candidate head *i* is walked forward until its window closes
    (fit: return *i*) or a *bad* index ``j`` (``free[j] < needed``)
    appears.  Window ends are nondecreasing in *i*, so every start in
    ``(i, j]`` still sees ``j`` inside its window and fails with it —
    the scan restarts at ``j + 1``, visiting each index at most twice
    overall.  Empty windows (``duration <= 0``) close before admitting
    any ``j`` and reduce to the head test ``free[i] >= needed``.
    Curves here are a few hundred breakpoints with early answers, so
    this plain-python walk over ``tolist()`` data beats a vectorized
    formulation (a dozen full-array dispatches per call) by an order
    of magnitude.  Comparisons are on the same float64 values in the
    same order, so the result is identical to the ring-buffer
    sliding-window-minimum walk of its test oracle bit for bit.
    """
    n = int(times.shape[0])
    if n == 0:
        return -1
    t = times.tolist()
    f = free.tolist()
    i = 0
    while i < n:
        if f[i] < needed:
            i += 1
            continue
        end = t[i] + duration
        j = i + 1
        while j < n and t[j] < end:
            if f[j] < needed:
                break
            j += 1
        else:
            return i
        i = j + 1
    return -1


# ----------------------------------------------------------------------
# Kernel 3: whole-pass conservative backfill planning
# ----------------------------------------------------------------------
# One call plans the queue slice ``[k0, m)`` against a free-node
# curve held in flat ``(times, free)`` arrays: earliest-fit search,
# tail fallback, start-now test and reservation insertion per job —
# the seed conservative loop body.  Admission is decided by the caller
# beforehand: ``admitted`` (or ``None`` for "every job") gates the
# start-now test, and a vetoed job is reserved like any job that
# cannot start now.
#
# Two queue-level accelerations ride along, both decision-preserving:
#
# * **Saturation early-stop** (``stop_early``): before planning job
#   ``k``, check whether *any* remaining job could start now.  A job
#   can start only if the curve keeps at least its node count free
#   over ``[now, now + walltime)``; the window minimum is antitone in
#   both window length and node count, so the cheapest remaining
#   window — suffix-minimum walltime at suffix-minimum nodes — bounds
#   them all.  When even that fails (or the real free pool is below
#   the suffix-minimum node count), no later job can start and the
#   pass may stop: the reservations it would have placed are
#   pass-local scratch state, invisible outside the scheduler.
# * **Resumability**: the caller may re-enter with ``k0 > 0`` against
#   a curve carried over from the previous pass (the cross-pass
#   cache in ``core/backfill.py``); ``minf`` reports the earliest
#   reservation placed at or after ``now`` so the caller can tell
#   when that carried curve expires.
#
# The caller guarantees array capacity for ``n + 2*(m - k0)`` curve
# breakpoints (each planned job inserts at most two), ``starts_out``
# of length ``m - k0`` and ``resv_out`` of shape ``(m - k0, 3)``.
def plan_conservative_np(
    times: np.ndarray,
    free: np.ndarray,
    n: int,
    nodes_req: np.ndarray,
    wall: np.ndarray,
    sfx_nodes: np.ndarray,
    sfx_wall: np.ndarray,
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
    """Numpy-backed pass planner: curve queries stay on the arrays
    (``searchsorted`` + the skip-scan earliest fit), reservations are
    slice subtractions, breakpoints insert through
    :func:`_ensure_point_arr`.  Job columns are read once via
    ``tolist()`` — per-element numpy indexing would dominate at queue
    depth (the lesson baked into :func:`earliest_fit_index_np`).
    Same comparisons on the same float64 values as the py oracle,
    so results are identical bit for bit."""
    adm = None if admitted is None else admitted.tolist()
    nodes_l = nodes_req.tolist()
    wall_l = wall.tolist()
    sfxn = sfx_nodes.tolist()
    sfxw = sfx_wall.tolist()
    m = len(nodes_l)
    minf = float("inf")
    n_starts = 0
    n_resv = 0
    k = k0
    while k < m:
        if stop_early:
            smallest = sfxn[k]
            if pool_free < smallest:
                break
            hi = int(times[:n].searchsorted(now + sfxw[k]))
            if hi < 1:
                hi = 1
            if int(free[:hi].min()) < smallest:
                break
        nodes = nodes_l[k]
        dur = wall_l[k]
        idx_k = k
        k += 1
        if nodes > capacity:
            continue  # can never run; do not reserve
        if monotone:
            lo = int(free[:n].searchsorted(nodes, side="left"))
            has_fit = lo < n
            start = (
                float(times[0]) if lo == 0 else float(times[lo])
            ) if has_fit else 0.0
        else:
            idx = earliest_fit_index_np(times[:n], free[:n], nodes, dur)
            has_fit = idx >= 0
            start = float(times[idx]) if has_fit else 0.0
        if not has_fit:
            if free[n - 1] >= nodes:
                start = float(times[n - 1])
            else:
                continue
        if (
            start <= now
            and nodes <= pool_free
            and (adm is None or adm[idx_k])
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
            lo_i, n = _ensure_point_arr(times, free, n, s)
            hi_i, n = _ensure_point_arr(times, free, n, e)
            free[lo_i:hi_i] -= nodes
            monotone = False
        resv_out[n_resv, 0] = s
        resv_out[n_resv, 1] = e
        resv_out[n_resv, 2] = nodes
        n_resv += 1
    return n, k, pool_free, minf, monotone, n_starts, n_resv


def _ensure_point_arr(
    times: np.ndarray, free: np.ndarray, n: int, x: float
) -> Tuple[int, int]:
    """Index of the breakpoint at *x* among the first *n* entries,
    inserted with the enclosing segment's count when absent; returns
    ``(index, new_n)``.  The caller guarantees capacity for ``n + 1``
    entries and ``x >= times[0]`` (the origin breakpoint is never
    displaced).  The suffix is copied before the shifted store —
    overlapping numpy slice assignment is not guaranteed memmove-safe."""
    idx = int(times[:n].searchsorted(x, side="left"))
    if idx < n and times[idx] == x:
        return idx, n
    times[idx + 1:n + 1] = times[idx:n].copy()
    free[idx + 1:n + 1] = free[idx:n].copy()
    times[idx] = x
    free[idx] = free[idx - 1]
    return idx, n + 1
