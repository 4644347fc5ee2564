"""Free-node profile: the scheduler's view of capacity over time.

Backfilling — EASY and conservative alike — reasons about one object:
the *free-node profile*, a step function mapping future time to the
number of simultaneously free nodes, built from running-job release
estimates and already-placed reservations.  The seed implementations
rebuilt and re-scanned that function from a raw delta dict for every
candidate start time, which made conservative backfill roughly
O(P·T³) at queue depth P with T profile breakpoints.

:class:`FreeNodeProfile` keeps the function materialized on flat
numpy arrays (amortized-doubling capacity, so breakpoint insertion is
one memmove instead of a list ``insert``):

* sorted breakpoint times plus the free-node count on each segment,
  so point queries are one ``searchsorted`` — O(log T);
* earliest-fit search over the reserved profile through the kernel
  layer (:func:`repro.power.kernels.earliest_fit_index_np`, an
  early-exit skip scan, exact because counts are integers) —
  collapsing to a single binary search over the cumulative release
  curve while the profile is still monotone (the EASY shadow case);
* incremental reservation insertion (subtract capacity over
  ``[start, end)``) that touches only the affected segments instead
  of re-deriving the whole profile.

Counts are integers throughout (nodes are indivisible), so profile
arithmetic is exact and decision-for-decision equivalent to the seed
delta-dict schedulers and to the list-based profile they were first
rewritten on (both kept as test oracles in
``tests/backfill_oracles.py``, pinned by randomized equivalence
sweeps).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import SchedulingError
from ..power import kernels

__all__ = ["FreeNodeProfile"]

#: Initial breakpoint capacity; doubles on demand.
_INITIAL_CAPACITY = 8

#: Release count above which ``from_releases`` builds the cumulative
#: curve vectorized (unique + scatter-add + cumsum).  Below it the
#: array round-trips cost more than the python fold saves.
_VECTOR_MIN_RELEASES = 16


class FreeNodeProfile:
    """Step function of free-node counts over ``[origin, +inf)``.

    Parameters
    ----------
    origin:
        Time of the first breakpoint (usually the scheduling instant
        ``ctx.now``).  Release events at or before *origin* fold into
        the base count — they raise the whole profile, mirroring how
        the seed scheduler's ``free_at`` summed every delta with
        ``time <= t``.  Pass ``float("-inf")`` to keep sub-``now``
        release times as explicit breakpoints (the EASY shadow walk
        needs them verbatim).
    free:
        Free-node count on the first segment.

    Invariants: ``times`` is strictly increasing with
    ``times[0] == origin``; ``free[i]`` is the count on
    ``[times[i], times[i+1])``, and the final segment extends to
    infinity.  ``times``/``free`` are live views over the first
    ``len(self)`` entries of the backing arrays — valid until the next
    mutation, like any numpy view.
    """

    __slots__ = ("_times", "_free", "_n", "_monotone")

    def __init__(self, origin: float, free: int) -> None:
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._free = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._times[0] = origin
        self._free[0] = int(free)
        self._n = 1
        #: True while only releases (positive steps) were applied; the
        #: profile is then non-decreasing and earliest-fit is a binary
        #: search over the cumulative curve.
        self._monotone = True

    @property
    def times(self) -> np.ndarray:
        """Breakpoint times, ascending (float64 view)."""
        return self._times[: self._n]

    @property
    def free(self) -> np.ndarray:
        """Free count per segment (int64 view)."""
        return self._free[: self._n]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_releases(
        cls,
        origin: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]],
    ) -> "FreeNodeProfile":
        """Build a profile from ``(time, nodes_released)`` events.

        Equal release times are consolidated into one breakpoint; the
        profile is the cumulative sum, so it starts monotone.
        """
        events = releases if isinstance(releases, list) else list(releases)
        profile = cls(origin, free_now)
        if not events:
            return profile
        if len(events) < _VECTOR_MIN_RELEASES:
            merged: dict = {}
            base = int(free_now)
            for time, count in events:
                if count < 0:
                    raise SchedulingError(
                        f"release of {count} nodes at t={time}: "
                        "counts must be >= 0"
                    )
                if time <= origin:
                    base += count
                else:
                    merged[time] = merged.get(time, 0) + count
            profile._free[0] = base
            running = base
            for time in sorted(merged):
                running += merged[time]
                profile._append(float(time), running)
            return profile
        t = np.array([e[0] for e in events], dtype=np.float64)
        c = np.array([e[1] for e in events], dtype=np.int64)
        if np.any(c < 0):
            for time, count in events:
                if count < 0:
                    raise SchedulingError(
                        f"release of {count} nodes at t={time}: "
                        "counts must be >= 0"
                    )
        fold = t <= origin
        base = int(free_now) + int(c[fold].sum())
        t, c = t[~fold], c[~fold]
        uniq, inverse = np.unique(t, return_inverse=True)
        steps = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(steps, inverse, c)
        curve = base + np.cumsum(steps)
        n = 1 + uniq.size
        profile._reserve_capacity(n)
        profile._times[1:n] = uniq
        profile._free[0] = base
        profile._free[1:n] = curve
        profile._n = n
        return profile

    def add_release(self, time: float, count: int) -> None:
        """Add *count* nodes becoming free at *time* (and ever after)."""
        if count < 0:
            raise SchedulingError(
                f"release of {count} nodes at t={time}: counts must be >= 0"
            )
        if count == 0:
            return
        if time <= self._times[0]:
            self._free[: self._n] += count
            return
        idx = self._ensure_point(time)
        self._free[idx: self._n] += count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def tail_time(self) -> float:
        """Time of the last breakpoint (profile is constant after it)."""
        return float(self._times[self._n - 1])

    def free_at(self, time: float) -> int:
        """Free-node count at *time* (``time >= origin``).  O(log T)."""
        idx = int(self._times[: self._n].searchsorted(time, side="right")) - 1
        return int(self._free[idx]) if idx >= 0 else int(self._free[0])

    def earliest_at_least(self, needed: int, not_before: float) -> Optional[float]:
        """Earliest time the free count reaches *needed*, ignoring how
        long it stays there.  Only valid on a monotone (release-only)
        profile, where reaching the level means holding it forever —
        this is the EASY shadow-time query.  O(log T): a binary search
        over the cumulative release curve (its running minima *are* the
        curve itself while it is non-decreasing).

        Returns ``not_before`` when the level already holds on the
        first segment, the breakpoint time otherwise (which may be in
        the past when stale release estimates are present — callers
        compare against it, they do not schedule at it), and ``None``
        when the level is never reached.
        """
        if not self._monotone:
            raise SchedulingError(
                "earliest_at_least needs a monotone profile; use earliest_fit"
            )
        n = self._n
        lo = int(self._free[:n].searchsorted(needed, side="left"))
        if lo == n:
            return None
        return not_before if lo == 0 else float(self._times[lo])

    def earliest_fit(self, needed: int, duration: float) -> Optional[float]:
        """Earliest breakpoint from which *needed* nodes stay free for
        *duration*.  Returns ``None`` when no breakpoint qualifies
        (the caller may still check the constant tail segment).

        Monotone profiles short-circuit to :meth:`earliest_at_least`.
        The general (reserved) profile goes through the skip-scan
        kernel (:func:`repro.power.kernels.earliest_fit_index_np`);
        counts are integers, so it is exactly identical to the
        reference deque walk.
        """
        if self._monotone:
            return self.earliest_at_least(needed, float(self._times[0]))
        n = self._n
        idx = kernels.earliest_fit_index_np(
            self._times[:n], self._free[:n], needed, duration
        )
        return None if idx < 0 else float(self._times[idx])

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    def reserve(self, start: float, end: float, count: int) -> None:
        """Subtract *count* nodes over ``[start, end)`` — one placed
        reservation (or an immediate start, with ``start == origin``).
        Touches only the segments inside the window.
        """
        if count <= 0:
            raise SchedulingError(
                f"reservation of {count} nodes: counts must be > 0"
            )
        if end <= start:
            return  # empty window: nothing to subtract
        if start < self._times[0]:
            raise SchedulingError(
                f"reservation at t={start} before profile origin "
                f"{self._times[0]}"
            )
        lo = self._ensure_point(start)
        hi = self._ensure_point(end)
        self._free[lo:hi] -= count
        self._monotone = False

    # ------------------------------------------------------------------
    def detach_arrays(
        self, extra: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, int, bool]:
        """Hand the backing arrays to a caller that takes ownership,
        grown to hold *extra* more breakpoints.

        The whole-pass backfill planner
        (:func:`repro.power.kernels.plan_conservative_np`) mutates the
        profile as flat arrays and caches them across scheduler
        passes; this accessor avoids a copy at the handoff.  Returns
        ``(times, free, n, monotone)``; the profile must not be used
        afterwards.
        """
        self._reserve_capacity(self._n + extra)
        return self._times, self._free, self._n, self._monotone

    # ------------------------------------------------------------------
    def _ensure_point(self, time: float) -> int:
        """Index of the breakpoint at *time*, inserting it (with the
        enclosing segment's count) when absent."""
        n = self._n
        times = self._times
        idx = int(times[:n].searchsorted(time, side="left"))
        if idx < n and times[idx] == time:
            return idx
        if n == times.shape[0]:
            self._reserve_capacity(n + 1)
        kernels.insert_point_np(self._times, self._free, n, idx, float(time))
        self._n = n + 1
        return idx

    def _append(self, time: float, free: int) -> None:
        """Append a breakpoint past the current tail (construction)."""
        n = self._n
        if n == self._times.shape[0]:
            self._reserve_capacity(n + 1)
        self._times[n] = time
        self._free[n] = free
        self._n = n + 1

    def _reserve_capacity(self, need: int) -> None:
        """Grow the backing arrays (doubling) to hold *need* entries."""
        capacity = self._times.shape[0]
        if capacity >= need:
            return
        while capacity < need:
            capacity *= 2
        times = np.empty(capacity, dtype=np.float64)
        free = np.empty(capacity, dtype=np.int64)
        times[: self._n] = self._times[: self._n]
        free[: self._n] = self._free[: self._n]
        self._times = times
        self._free = free

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        steps = ", ".join(
            f"{t:g}:{f}" for t, f in zip(self.times[:8], self.free[:8])
        )
        more = "..." if self._n > 8 else ""
        return f"FreeNodeProfile({steps}{more})"
