"""Structure-of-arrays mirror of the machine for vectorized power math.

:class:`NodePowerModel` is the executable spec: one node in, one
:class:`~repro.power.model.PowerSample` out.  That shape is perfect for
reasoning and testing and hopeless for machine-scale control loops —
Tokyo Tech's windowed capping, RIKEN's emergency kill and every budget
policy in this reproduction query *whole-machine* power every tick, and
a per-node Python call that allocates a frozen dataclass caps the
simulator at a few thousand nodes.

:class:`VectorPowerMirror` keeps the power-relevant node fields
(state code, idle/max/off power, variability, frequency and DVFS range,
cap, and the bound job's intensity/sensitivity) as flat numpy arrays,
one row per node in ``machine.nodes`` order, and evaluates the *same*
operating-point semantics as the scalar model — boot/shutdown states,
cap clamping to ``f_min``, cap-violation flags — in a handful of array
ops.  Equivalence with :meth:`NodePowerModel.operating_point` is pinned
by the randomized sweeps in ``tests/test_power_vector.py``.

Sync contract
-------------
The mirror is *push*-synchronized:

* every mutation that goes through the node state machine or power
  setters (``transition``/``set_power_cap``/``set_frequency``) fires
  ``Node.power_listener``, which the owning simulation routes into
  :meth:`touch` — the row is re-read from the node and marked dirty;
* cohort writes fire one machine-level listener instead:
  ``Machine.transition_bulk`` lands in :meth:`transition_rows` and
  ``Machine.set_power_cap_bulk`` in :meth:`set_caps`, each one scatter
  over the cohort's rows;
* job (un)binding does not fire the hook; the simulation calls
  :meth:`bind_execution`/:meth:`unbind_execution` where it allocates or
  frees the job's execution slot (``exec_slot`` row membership);
* anything else (re-drawing variability on a live machine, rewriting
  ``idle_power`` in place) bypasses both channels and requires an
  explicit :meth:`invalidate` — surfaced to users as
  ``ClusterSimulation.invalidate_power_cache()``.

``machine_watts()`` keeps a per-row watts cache plus a running total:
O(1) when nothing is dirty, one vectorized kernel over the dirty rows
otherwise, and a full vectorized re-sum once at least half the machine
is dirty (no slower than the delta path, and it resets accumulated
floating-point drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import NodeState
from . import kernels
from .model import NodePowerModel

__all__ = ["OperatingPoints", "VectorPowerMirror", "STATE_CODES"]

#: NodeState -> small-int code used in the state-code array.
STATE_CODES: Dict[NodeState, int] = {
    NodeState.OFF: 0,
    NodeState.DOWN: 1,
    NodeState.BOOTING: 2,
    NodeState.SHUTTING_DOWN: 3,
    NodeState.IDLE: 4,
    NodeState.BUSY: 5,
}

# The kernel layer hard-codes the codes (it does not import the node
# state machine); fail loudly if the two tables ever drift.
assert STATE_CODES[NodeState.OFF] == kernels._OFF
assert STATE_CODES[NodeState.DOWN] == kernels._DOWN
assert STATE_CODES[NodeState.BOOTING] == kernels._BOOTING
assert STATE_CODES[NodeState.SHUTTING_DOWN] == kernels._SHUTTING_DOWN
assert STATE_CODES[NodeState.IDLE] == kernels._IDLE
assert STATE_CODES[NodeState.BUSY] == kernels._BUSY

_OFF = STATE_CODES[NodeState.OFF]
_DOWN = STATE_CODES[NodeState.DOWN]
_BOOTING = STATE_CODES[NodeState.BOOTING]
_SHUTTING_DOWN = STATE_CODES[NodeState.SHUTTING_DOWN]
_IDLE = STATE_CODES[NodeState.IDLE]
_BUSY = STATE_CODES[NodeState.BUSY]


@dataclass(frozen=True)
class OperatingPoints:
    """Vectorized :class:`~repro.power.model.PowerSample`: one row per
    queried node, fields aligned by position."""

    watts: np.ndarray
    frequency_ratio: np.ndarray
    speed: np.ndarray
    cap_violated: np.ndarray


class VectorPowerMirror:
    """SoA mirror of one machine, bound to one :class:`NodePowerModel`.

    Rows are positions in ``machine.nodes``, which are the node ids
    (:class:`~repro.cluster.machine.Machine` enforces it).
    """

    def __init__(self, machine: Machine, model: NodePowerModel) -> None:
        self.machine = machine
        self.model = model
        self._nodes = machine.nodes
        n = len(self._nodes)
        self.state_code = np.zeros(n, dtype=np.int8)
        self.idle_power = np.zeros(n)
        self.max_power = np.zeros(n)
        self.off_power = np.zeros(n)
        self.variability = np.ones(n)
        self.frequency = np.zeros(n)
        self.min_frequency = np.zeros(n)
        self.max_frequency = np.ones(n)
        #: +inf encodes "no cap" — every comparison against it then
        #: behaves exactly like the scalar ``cap is None`` branches.
        self.power_cap = np.full(n, np.inf)
        self.utilization = np.ones(n)
        self.sensitivity = np.ones(n)
        # Lifecycle array (beyond power): idle timestamps (NaN encodes
        # "no idle timestamp", mirroring the scalar None).
        self.idle_since = np.full(n, np.nan)
        #: Execution-slot id per row, -1 when no execution occupies the
        #: node.  The owning simulation maps slots to JobExecution
        #: objects (``ClusterSimulation._exec_slots``): membership moves
        #: in one scatter per cohort instead of a Python loop.
        self.exec_slot = np.full(n, -1, dtype=np.int32)
        #: Incremental per-state-code node counts (len == #codes):
        #: refresh_row moves one unit between buckets, so policy ticks
        #: read counts in O(1) instead of scanning the state array.
        self._state_counts: List[int] = [0] * len(STATE_CODES)

        self._watts = np.zeros(n)
        self._total = 0.0
        self._dirty: set = set()
        self._all_dirty = True
        self.refresh_all()

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def refresh_row(self, row: int) -> None:
        """Re-read one node's power-relevant fields into the arrays."""
        node = self._nodes[row]
        code = STATE_CODES[node.state]
        counts = self._state_counts
        counts[self.state_code[row]] -= 1
        counts[code] += 1
        self.state_code[row] = code
        self.idle_power[row] = node.idle_power
        self.max_power[row] = node.max_power
        self.off_power[row] = node.off_power
        self.variability[row] = node.variability
        self.frequency[row] = node.frequency
        self.min_frequency[row] = node.min_frequency
        self.max_frequency[row] = node.max_frequency
        cap = node.power_cap
        self.power_cap[row] = np.inf if cap is None else cap
        idle_since = node.idle_since
        self.idle_since[row] = np.nan if idle_since is None else idle_since

    def touch(self, node_id: int) -> None:
        """``Node.power_listener`` entry point: resync + mark dirty."""
        self.refresh_row(node_id)
        self._dirty.add(node_id)

    def set_caps(self, rows: np.ndarray, cap: Optional[float]) -> None:
        """Cohort twin of :meth:`touch` after ``Node.set_power_cap``:
        scatter one cap (``None`` -> +inf) into *rows* and mark them
        dirty.  A cap write changes no other mirrored field."""
        self.power_cap[rows] = np.inf if cap is None else cap
        self._dirty.update(rows.tolist())

    def powered_rows(self) -> np.ndarray:
        """Rows of nodes drawing operational power (``Node.is_on``:
        booting, shutting down, idle or busy), in row order."""
        state = self.state_code
        return np.flatnonzero((state != _OFF) & (state != _DOWN))

    def bind(self, rows: np.ndarray, utilization: float, sensitivity: float) -> None:
        """Record a job binding on *rows* (intensity enters the bill)."""
        self.utilization[rows] = min(1.0, max(0.0, float(utilization)))
        self.sensitivity[rows] = min(1.0, max(0.0, float(sensitivity)))
        self._dirty.update(rows.tolist())

    def unbind(self, rows: np.ndarray) -> None:
        """Drop a job binding: rows fall back to the unbound defaults."""
        self.utilization[rows] = 1.0
        self.sensitivity[rows] = 1.0
        self._dirty.update(rows.tolist())

    def bind_execution(
        self,
        rows: np.ndarray,
        slot: int,
        utilization: float,
        sensitivity: float,
    ) -> None:
        """:meth:`bind` plus SoA execution membership: stamp *slot*
        into ``exec_slot``, replacing the
        owning simulation's per-node dict/attribute loops with one
        scatter per cohort."""
        self.exec_slot[rows] = slot
        self.utilization[rows] = min(1.0, max(0.0, float(utilization)))
        self.sensitivity[rows] = min(1.0, max(0.0, float(sensitivity)))
        self._dirty.update(rows.tolist())

    def unbind_execution(self, rows: np.ndarray) -> None:
        """:meth:`unbind` plus membership teardown: clear ``exec_slot``
        in the same scatter."""
        self.exec_slot[rows] = -1
        self.utilization[rows] = 1.0
        self.sensitivity[rows] = 1.0
        self._dirty.update(rows.tolist())

    def transition_rows(self, rows: np.ndarray, code: int, time: float) -> None:
        """Apply one lifecycle transition to *rows* in a single SoA pass.

        The bulk twin of per-row :meth:`touch` after
        ``Node.transition``: state codes, idle timestamps (NaN for
        non-idle targets, mirroring the scalar ``None``) and the
        incremental state-count buckets all move in one scatter, and the rows join the dirty set for the next
        ``machine_watts`` fold.  Power-relevant fields other than state
        never change during a transition, so nothing else is re-read.

        Precondition (holds at every bulk call site): the scalar nodes
        were already moved to the same target state.  Execution
        membership (``exec_slot``) is not touched here; it moves in
        :meth:`bind_execution` / :meth:`unbind_execution`.
        """
        counts = self._state_counts
        old_codes, old_counts = np.unique(
            self.state_code[rows], return_counts=True
        )
        for old, cnt in zip(old_codes.tolist(), old_counts.tolist()):
            counts[old] -= cnt
        counts[code] += int(rows.size)
        self.state_code[rows] = code
        self.idle_since[rows] = time if code == _IDLE else np.nan
        self._dirty.update(rows.tolist())

    def refresh_all(self) -> None:
        """Re-read every row (used at build time and by invalidate)."""
        for row in range(len(self._nodes)):
            self.refresh_row(row)
        # Ground truth after a bulk resync (the incremental deltas in
        # refresh_row assumed array/state consistency that an
        # out-of-band mutation may have broken).
        self._state_counts = np.bincount(
            self.state_code, minlength=len(STATE_CODES)
        ).tolist()
        self._all_dirty = True
        self._dirty.clear()

    def invalidate(self) -> None:
        """Full resync for mutations that bypassed both sync channels."""
        self.refresh_all()

    def force_resum(self) -> None:
        """Mark the cached total stale without touching any row (the
        rows are already in sync; benchmarks use this to time the pure
        full-re-sum kernel path)."""
        self._all_dirty = True

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def operating_points(self, rows: Optional[np.ndarray] = None) -> OperatingPoints:
        """Operating point of the selected rows (all rows when None).

        Replicates :meth:`NodePowerModel.operating_point` branch for
        branch; see that method for the physics.
        """
        sel = slice(None) if rows is None else rows
        state = self.state_code[sel]
        idle = self.idle_power[sel]
        max_p = self.max_power[sel]
        off_p = self.off_power[sel]
        var = self.variability[sel]
        freq = self.frequency[sel]
        min_f = self.min_frequency[sel]
        max_f = self.max_frequency[sel]
        cap = self.power_cap[sel]
        util = self.utilization[sel]
        sens = self.sensitivity[sel]
        model = self.model
        alpha = model.alpha

        off = (state == _OFF) | (state == _DOWN)
        boot = state == _BOOTING
        shut = state == _SHUTTING_DOWN
        idle_m = state == _IDLE
        busy = state == _BUSY

        f_set = freq / max_f
        f_min = min_f / max_f
        dyn = (max_p - idle) * var * util

        # BUSY cap clamp.  ``budgeted <= 0`` and ``f_cap < f_min`` both
        # resolve to (f_min, violated) in the scalar model, so a single
        # guarded f_cap (0 when the budget is gone) covers both.
        capped = np.isfinite(cap)
        over = capped & (dyn > 0.0) & (idle + dyn * f_set**alpha > cap)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f_cap = (
                np.maximum(cap - idle, 0.0) / np.where(dyn > 0.0, dyn, 1.0)
            ) ** (1.0 / alpha)
        f_eff = np.where(over, np.minimum(f_set, f_cap), f_set)
        clamp_to_min = over & (f_cap < f_min)
        f_eff = np.where(clamp_to_min, f_min, f_eff)
        busy_violated = clamp_to_min | (capped & (dyn <= 0.0) & (idle > cap))

        idle_violated = idle_m & (idle > cap)

        watts = np.select(
            [off, boot, shut, idle_m],
            [
                off_p,
                off_p + model.boot_power_fraction * (max_p * var),
                idle * model.shutdown_power_fraction,
                idle,
            ],
            default=idle + dyn * f_eff**alpha,
        )
        ratio = np.select(
            [idle_violated, idle_m, busy], [1.0, f_set, f_eff], default=0.0
        )
        speed = np.where(
            busy, np.maximum(1.0 - sens * (1.0 - f_eff), 1e-9), 0.0
        )
        violated = idle_violated | (busy & busy_violated)
        return OperatingPoints(watts, ratio, speed, violated)

    def _watts_kernel(self, sel) -> np.ndarray:
        """Watts for the selected rows via the kernel layer (a numpy
        expression bit-identical to ``operating_points(sel).watts``)."""
        model = self.model
        return kernels.node_watts_np(
            self.state_code[sel],
            self.idle_power[sel],
            self.max_power[sel],
            self.off_power[sel],
            self.variability[sel],
            self.frequency[sel],
            self.min_frequency[sel],
            self.max_frequency[sel],
            self.power_cap[sel],
            self.utilization[sel],
            model.alpha,
            model.boot_power_fraction,
            model.shutdown_power_fraction,
        )

    def machine_watts(self) -> float:
        """Total machine draw; folds dirty rows into the cached total.

        O(1) when clean; one kernel over the dirty rows otherwise; a
        full vectorized re-sum when at least half the rows are dirty.
        Totals are reduced with ``np.sum`` on the caller side of the
        kernel, so the summation order is fixed here.
        """
        rows, fresh, total = self._fold()
        if rows is None:
            return total
        if isinstance(rows, slice):
            self._watts = fresh
        else:
            self._watts[rows] = fresh
        self._total = total
        self._all_dirty = False
        self._dirty.clear()
        return total

    def peek_watts(self) -> float:
        """Total machine draw without folding anything back.

        Same arithmetic as :meth:`machine_watts`, so the same float, but
        the dirty rows, the per-row cache and the running total stay as
        they are — a read between a snapshot and the next advance leaves
        the live state on the snapshot's fingerprint.
        """
        return self._fold()[2]

    def _fold(self):
        """``(rows, fresh watts, total)`` of the pending fold: rows is
        ``None`` when clean, ``slice(None)`` for a full re-sum."""
        dirty = self._dirty
        if self._all_dirty or 2 * len(dirty) >= len(self._watts):
            watts = self._watts_kernel(slice(None))
            return slice(None), watts, float(watts.sum())
        if not dirty:
            return None, None, self._total
        rows = np.fromiter(dirty, dtype=np.intp, count=len(dirty))
        rows.sort()
        fresh = self._watts_kernel(rows)
        return rows, fresh, self._total + float(
            fresh.sum() - self._watts[rows].sum()
        )

    def node_watts(self) -> np.ndarray:
        """Per-node current draw, ``machine.nodes`` order (a copy)."""
        self.machine_watts()
        return self._watts.copy()

    # ------------------------------------------------------------------
    # Lifecycle kernels (policy tick helpers)
    # ------------------------------------------------------------------
    def count_in_state(self, code: int) -> int:
        """Number of nodes whose state code equals *code*.  O(1): the
        counts are maintained incrementally."""
        return self._state_counts[code]

    def idle_candidate_rows(self, now: float, threshold: float) -> np.ndarray:
        """Rows idle for at least *threshold* seconds at *now*, ordered
        by ``(idle_since, node_id)`` — longest idle first, node id
        breaking ties.  NaN ``idle_since`` rows (no idle timestamp)
        never qualify, mirroring the scalar ``None`` guard."""
        idle_since = self.idle_since
        with np.errstate(invalid="ignore"):
            mask = (self.state_code == _IDLE) & (now - idle_since >= threshold)
        rows = np.flatnonzero(mask)
        if rows.size > 1:
            # flatnonzero rows are already id-ordered; a stable sort on
            # idle_since alone yields the (idle_since, node_id) order.
            rows = rows[np.argsort(idle_since[rows], kind="stable")]
        return rows

    def off_rows(self) -> np.ndarray:
        """Rows currently OFF, ordered by node id — the vector twin of
        ``sorted(rm.off_nodes(), key=lambda n: n.node_id)``."""
        return np.flatnonzero(self.state_code == _OFF)

    # ------------------------------------------------------------------
    # Prediction kernels (policy helpers)
    # ------------------------------------------------------------------
    def frequencies_for_cap(
        self,
        rows: np.ndarray,
        caps: np.ndarray,
        utilization: float = 1.0,
    ) -> np.ndarray:
        """Vector twin of :meth:`NodePowerModel.frequency_for_cap`:
        highest Hz per row whose predicted power meets the row's cap,
        clamped to the DVFS range."""
        caps = np.asarray(caps, dtype=float)
        idle = self.idle_power[rows]
        min_f = self.min_frequency[rows]
        max_f = self.max_frequency[rows]
        util = min(1.0, max(0.0, float(utilization)))
        dyn = (self.max_power[rows] - idle) * self.variability[rows] * util
        budgeted = caps - idle
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (
                np.maximum(budgeted, 0.0) / np.where(dyn > 0.0, dyn, 1.0)
            ) ** (1.0 / self.model.alpha)
        freq = np.clip(ratio * max_f, min_f, max_f)
        freq = np.where(budgeted <= 0.0, min_f, freq)
        return np.where(
            dyn <= 0.0, np.where(caps >= idle, max_f, min_f), freq
        )

    def power_at_ratio(
        self,
        rows: np.ndarray,
        ratios: np.ndarray,
        utilization: float = 1.0,
    ) -> np.ndarray:
        """Vector twin of :meth:`NodePowerModel.power_at_ratio`:
        predicted BUSY watts per row at an explicit frequency ratio."""
        idle = self.idle_power[rows]
        min_ratio = self.min_frequency[rows] / self.max_frequency[rows]
        ratios = np.minimum(1.0, np.maximum(min_ratio, np.asarray(ratios, dtype=float)))
        util = min(1.0, max(0.0, float(utilization)))
        dyn = (self.max_power[rows] - idle) * self.variability[rows] * util
        return idle + dyn * ratios**self.model.alpha
