"""Vectorized power fold over the machine's node columns.

:class:`NodePowerModel` is the executable spec: one node in, one
:class:`~repro.power.model.PowerSample` out.  That shape is perfect for
reasoning and testing and hopeless for machine-scale control loops —
Tokyo Tech's windowed capping, RIKEN's emergency kill and every budget
policy in this reproduction query *whole-machine* power every tick, and
a per-node Python call that allocates a frozen dataclass caps the
simulator at a few thousand nodes.

:class:`VectorPowerMirror` evaluates the *same* operating-point
semantics as the scalar model — boot/shutdown states, cap clamping to
``f_min``, cap-violation flags — in a handful of array ops over the
machine's :class:`~repro.cluster.node.NodeStore` columns (state code,
idle/max/off power, variability, frequency and DVFS range, cap).  It
owns only what a node does not: the bound job's intensity and
sensitivity per row (``utilization``/``sensitivity``), the execution
slot per row (``exec_slot``) and the fold's cache.  Equivalence with
:meth:`NodePowerModel.operating_point` is pinned by the randomized
sweeps in ``tests/test_power_vector.py``.

One store, one rule: the store's row methods are the only writers of
node columns, and every writer — including the binding writes here —
marks its rows in ``store.dirty``.  ``machine_watts()`` keeps a per-row
watts cache plus a running total: O(1) when nothing is dirty, one
vectorized kernel over the dirty rows otherwise, and a full vectorized
re-sum once at least half the machine is dirty (no slower than the
delta path, and it resets accumulated floating-point drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import STATE_CODES, NodeState
from . import kernels
from .model import NodePowerModel

__all__ = ["OperatingPoints", "VectorPowerMirror", "STATE_CODES"]

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
    """Power fold of one machine, bound to one :class:`NodePowerModel`.

    Rows are node ids, the rows of ``machine.store``.  Building a mirror
    clears the store's dirty set and schedules a full re-sum.
    """

    def __init__(self, machine: Machine, model: NodePowerModel) -> None:
        self.machine = machine
        self.store = machine.store
        self.model = model
        n = len(machine)
        self.utilization = np.ones(n)
        self.sensitivity = np.ones(n)
        #: Execution-slot id per row, -1 when no execution occupies the
        #: node.  The owning simulation maps slots to JobExecution
        #: objects (``ClusterSimulation._exec_slots``): membership moves
        #: in one scatter per cohort instead of a Python loop.
        self.exec_slot = np.full(n, -1, dtype=np.int32)

        self._watts = np.zeros(n)
        self._total = 0.0
        self._all_dirty = True
        self.store.dirty.clear()

    def __len__(self) -> int:
        return len(self._watts)

    # ------------------------------------------------------------------
    # Job binding
    # ------------------------------------------------------------------
    def bind_execution(
        self,
        rows: np.ndarray,
        slot: int,
        utilization: float,
        sensitivity: float,
    ) -> None:
        """Record a job binding on *rows*: stamp *slot* into
        ``exec_slot`` and the job's intensity (which enters the bill)
        and sensitivity, in one scatter per cohort."""
        self.exec_slot[rows] = slot
        self.utilization[rows] = min(1.0, max(0.0, float(utilization)))
        self.sensitivity[rows] = min(1.0, max(0.0, float(sensitivity)))
        self.store.dirty.update(rows.tolist())

    def unbind_execution(self, rows: np.ndarray) -> None:
        """Drop a job binding: clear ``exec_slot`` and fall back to the
        unbound defaults."""
        self.exec_slot[rows] = -1
        self.utilization[rows] = 1.0
        self.sensitivity[rows] = 1.0
        self.store.dirty.update(rows.tolist())

    def force_resum(self) -> None:
        """Mark the cached total stale without touching any row
        (benchmarks use this to time the pure full-re-sum kernel path)."""
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
        store = self.store
        state = store.state_code[sel]
        idle = store.idle_power[sel]
        max_p = store.max_power[sel]
        off_p = store.off_power[sel]
        var = store.variability[sel]
        freq = store.frequency[sel]
        min_f = store.min_frequency[sel]
        max_f = store.max_frequency[sel]
        cap = store.power_cap[sel]
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
        store = self.store
        return kernels.node_watts_np(
            store.state_code[sel],
            store.idle_power[sel],
            store.max_power[sel],
            store.off_power[sel],
            store.variability[sel],
            store.frequency[sel],
            store.min_frequency[sel],
            store.max_frequency[sel],
            store.power_cap[sel],
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
        self.store.dirty.clear()
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
        dirty = self.store.dirty
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
        store = self.store
        idle = store.idle_power[rows]
        min_f = store.min_frequency[rows]
        max_f = store.max_frequency[rows]
        util = min(1.0, max(0.0, float(utilization)))
        dyn = (store.max_power[rows] - idle) * store.variability[rows] * util
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
        store = self.store
        idle = store.idle_power[rows]
        min_ratio = store.min_frequency[rows] / store.max_frequency[rows]
        ratios = np.minimum(1.0, np.maximum(min_ratio, np.asarray(ratios, dtype=float)))
        util = min(1.0, max(0.0, float(utilization)))
        dyn = (store.max_power[rows] - idle) * store.variability[rows] * util
        return idle + dyn * ratios**self.model.alpha
