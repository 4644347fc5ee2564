"""Node-selection (allocation) strategies.

Given a job that fits, *which* nodes should it get?  Three strategies
from the surveyed material:

* first-fit — the baseline every resource manager implements;
* topology-aware — survey Q6's "topology-aware task allocation, as a
  way of ... indirectly improving energy consumption (by improving
  application performance, resulting in reduced wallclock time)";
* low-power-first — exploit manufacturing variability ([25], [39]) by
  preferring nodes that draw less power for the same work.

Every strategy picks from a :class:`~repro.core.scheduler.RowPool`:
the pass's free nodes as ascending row indices, which are node ids.
The seed's object implementations (``sorted`` over node lists) live
on as test oracles in ``tests/backfill_oracles.py``; randomized tests
in ``tests/test_core_allocator.py`` pin every row selection to them,
same nodes in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import AllocationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .scheduler import RowPool


def check_pool(available: int, requested: int) -> None:
    """Raise a structured :class:`AllocationError` unless *requested*
    nodes can come out of a pool of *available*."""
    if requested <= 0:
        raise AllocationError(
            f"cannot allocate {requested} nodes",
            requested=requested,
            available=available,
        )
    if available < requested:
        raise AllocationError(
            f"need {requested} nodes, only {available} available",
            requested=requested,
            available=available,
        )


class Allocator:
    """Base class: pick ``count`` nodes from a pass's pool."""

    name = "base"

    def begin_pass(self, now: float) -> None:
        """Called once at the top of every scheduling pass, before any
        ``select`` calls.  Stateful allocators reset/derive per-pass
        state here (e.g. sampled-seed draws) so repeated selections
        within one pass are deterministic.  Default: no-op."""

    def select(self, pool: "RowPool", count: int) -> np.ndarray:
        """Return the rows (node ids) of exactly *count* nodes from
        *pool*, in grant order.

        Raises :class:`AllocationError` if the pool is too small —
        callers are expected to check fit first.
        """
        raise NotImplementedError


class FirstFitAllocator(Allocator):
    """Lowest node ids first — deterministic baseline."""

    name = "first-fit"

    def select(self, pool: "RowPool", count: int) -> np.ndarray:
        check_pool(len(pool), count)
        # Pool rows are ascending ids: first-fit is a slice.
        return pool.rows[:count]


class LowPowerAllocator(Allocator):
    """Prefer nodes with the lowest variability-adjusted max power.

    Under a power budget, efficient nodes buy more throughput per watt
    (Inadomi et al. [25]).  Ties break on node id for determinism.
    """

    name = "low-power"

    def select(self, pool: "RowPool", count: int) -> np.ndarray:
        """``sorted(key=(effective_max_power, id))[:count]`` without
        sorting the whole pool: an O(n) argpartition bounds the winning
        key, the boundary is resolved in id order (equal keys cannot
        straddle the strict/equal split, and ``flatnonzero`` yields
        ascending rows == ascending ids), and only the *count* winners
        are sorted."""
        check_pool(len(pool), count)
        rows = pool.rows
        keys = pool.selection.eff_max_power(rows)
        if count >= rows.size:
            pick = np.arange(rows.size)
        else:
            part = np.argpartition(keys, count - 1)[:count]
            thresh = keys[part].max()
            strict = np.flatnonzero(keys < thresh)
            eq = np.flatnonzero(keys == thresh)
            pick = np.concatenate((strict, eq[: count - strict.size]))
        order = np.argsort(keys[pick], kind="stable")
        return rows[pick[order]]


class TopologyAwareAllocator(Allocator):
    """Greedy compact placement on the machine's topology.

    Strategy: try each contiguous-id window first (cheap and usually
    compact); fall back to a greedy nearest-neighbour expansion from
    the best seed.  Falls back to first-fit when the machine has no
    topology.

    Seeds for the greedy expansion are deterministic stride positions
    by default.  With ``rng_seed`` set they are *sampled* instead —
    drawn once per scheduling pass in :meth:`begin_pass` and cached,
    so repeated ``select()`` calls within one pass reuse the same
    draws (and a ``select()`` call never advances RNG state: calling
    it twice with the same pool yields the same placement).
    """

    name = "topology-aware"

    def __init__(
        self, sample_seeds: int = 4, rng_seed: Optional[int] = None
    ) -> None:
        self.sample_seeds = max(1, int(sample_seeds))
        self.rng_seed = rng_seed
        #: Scheduling passes seen so far; the per-pass RNG is derived
        #: from (rng_seed, pass number), so replaying a run re-derives
        #: identical draws pass for pass.
        self._passes = 0
        #: Cached uniform [0, 1) draws for this pass (None in
        #: stride-seed mode).
        self._pass_draws: Optional[List[float]] = None

    def begin_pass(self, now: float) -> None:
        self._passes += 1
        if self.rng_seed is not None:
            rng = np.random.default_rng((self.rng_seed, self._passes))
            self._pass_draws = rng.random(self.sample_seeds).tolist()

    def _seed_indices(self, pool_size: int) -> List[int]:
        """Greedy-expansion seed positions into the ordered pool."""
        if self._pass_draws is not None:
            # Map the cached fractions onto the current pool; dedupe
            # while keeping ascending order for determinism.
            last = pool_size - 1
            return sorted({
                min(last, int(draw * pool_size))
                for draw in self._pass_draws
            })
        step = max(1, pool_size // self.sample_seeds)
        return list(range(0, pool_size, step))

    def select(self, pool: "RowPool", count: int) -> np.ndarray:
        check_pool(len(pool), count)
        rows = pool.rows
        topo = pool.selection.machine.topology
        if topo is None or count == 1:
            return rows[:count]

        # Contiguous-id windows: in all three topology builders node
        # ids are laid out with locality, so such a window is compact.
        # The first window of least cost wins.
        spans = rows[count - 1:] - rows[: rows.size - count + 1]
        best_start = -1
        best_cost = float("inf")
        for start in np.flatnonzero(spans == count - 1).tolist():
            cost = topo.placement_cost(rows[start : start + count].tolist())
            if cost < best_cost:
                best_start, best_cost = start, cost
        if best_start >= 0:
            return rows[best_start : best_start + count]

        # Greedy expansion from a few seeds: repeatedly take the free
        # node nearest to the chosen set, lowest id on ties.  ``near``
        # holds each row's distance to the chosen set (inf once taken),
        # folded in as each node joins, so argmin's first hit is the
        # (distance, id) minimum.
        ids = rows.tolist()
        distance = topo.distance
        best_sel: Optional[List[int]] = None
        for seed_idx in self._seed_indices(len(ids)):
            chosen = [ids[seed_idx]]
            taken = [seed_idx]
            near = np.full(len(ids), np.inf)
            while len(chosen) < count:
                last = chosen[-1]
                np.minimum(
                    near,
                    np.fromiter((distance(last, i) for i in ids), float, len(ids)),
                    out=near,
                )
                near[taken] = np.inf
                k = int(np.argmin(near))
                chosen.append(ids[k])
                taken.append(k)
            cost = topo.placement_cost(chosen)
            if best_sel is None or cost < best_cost:
                best_sel, best_cost = chosen, cost
        assert best_sel is not None
        return np.array(best_sel, dtype=np.intp)
