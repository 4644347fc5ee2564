"""Node power over the machine's node columns: the one implementation.

Tokyo Tech's windowed capping, RIKEN's emergency kill and every budget
policy in this reproduction query *whole-machine* power every tick, so
node power is computed in array ops over the machine's
:class:`~repro.cluster.node.NodeStore` columns (state code,
idle/max/off power, variability, frequency and DVFS range, cap) and
nowhere else: :func:`repro.power.kernels.node_points_np` holds the
physics — boot/shutdown states, cap clamping to ``f_min``,
cap-violation flags — and :class:`VectorPowerMirror` feeds it.  The
mirror owns only what a node does not: the bound job's intensity and
sensitivity per row (``utilization``/``sensitivity``), the execution
slot per row (``exec_slot``) and the fold's cache.  Its prediction
helpers (:meth:`~VectorPowerMirror.power_at_ratio`,
:meth:`~VectorPowerMirror.frequencies_for_cap`) and the one job-power
estimator (:meth:`~VectorPowerMirror.job_power`) serve the policies.

The scalar, one-node statement of the same physics is a test oracle,
``tests/power_oracles.py``; the randomized sweeps in
``tests/test_power_vector.py`` pin the kernels against it.

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
from ..cluster.node import STATE_CODES, NodeState, NodeStore
from . import kernels
from .model import NodePowerModel

__all__ = ["OperatingPoints", "VectorPowerMirror", "STATE_CODES", "store_columns"]

# The kernel layer hard-codes the codes (it does not import the node
# state machine); fail loudly if the two tables ever drift.
assert STATE_CODES[NodeState.OFF] == kernels._OFF
assert STATE_CODES[NodeState.DOWN] == kernels._DOWN
assert STATE_CODES[NodeState.BOOTING] == kernels._BOOTING
assert STATE_CODES[NodeState.SHUTTING_DOWN] == kernels._SHUTTING_DOWN
assert STATE_CODES[NodeState.IDLE] == kernels._IDLE
assert STATE_CODES[NodeState.BUSY] == kernels._BUSY

_IDLE = STATE_CODES[NodeState.IDLE]
_BUSY = STATE_CODES[NodeState.BUSY]


def store_columns(
    store: NodeStore, model: NodePowerModel, util: np.ndarray, sel=slice(None)
):
    """The :func:`~repro.power.kernels.node_points_np` arguments for the
    rows *sel* of *store* under *model*, at per-row utilization *util*."""
    return (
        store.state_code[sel],
        store.idle_power[sel],
        store.max_power[sel],
        store.off_power[sel],
        store.variability[sel],
        store.frequency[sel],
        store.min_frequency[sel],
        store.max_frequency[sel],
        store.power_cap[sel],
        util,
        model.alpha,
        model.boot_power_fraction,
        model.shutdown_power_fraction,
    )


@dataclass(frozen=True)
class OperatingPoints:
    """Operating point of each queried node, fields aligned by position.

    ``watts`` is the draw; ``frequency_ratio`` the effective frequency
    as a fraction of f_max after DVFS setting and cap clamping;
    ``speed`` the relative execution speed of the running phase (0 when
    not busy); ``cap_violated`` whether the cap could not be met even
    at minimum frequency.
    """

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
        """Operating point of the selected rows (all rows when None),
        each with its bound job's intensity and sensitivity.  Reads the
        columns only: nothing is folded."""
        sel = slice(None) if rows is None else rows
        columns = store_columns(self.store, self.model, self.utilization[sel], sel)
        state, idle, cap = columns[0], columns[1], columns[8]
        watts, f_set, f_eff, clamped, dyn = kernels.node_points_np(*columns)

        idle_m = state == _IDLE
        busy = state == _BUSY
        idle_violated = idle_m & (idle > cap)
        busy_violated = clamped | (np.isfinite(cap) & (dyn <= 0.0) & (idle > cap))
        ratio = np.select(
            [idle_violated, idle_m, busy], [1.0, f_set, f_eff], default=0.0
        )
        speed = np.where(
            busy,
            np.maximum(1.0 - self.sensitivity[sel] * (1.0 - f_eff), 1e-9),
            0.0,
        )
        violated = idle_violated | (busy & busy_violated)
        return OperatingPoints(watts, ratio, speed, violated)

    def _watts_kernel(self, sel) -> np.ndarray:
        """Watts for the selected rows (``operating_points(sel).watts``
        without the other fields)."""
        return kernels.node_watts_np(
            *store_columns(self.store, self.model, self.utilization[sel], sel)
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
        """Highest Hz per row whose predicted BUSY power at
        *utilization* meets the row's cap, clamped to the DVFS range
        (at the bottom of the range the cap may still be violated)."""
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

    def power_at_ratio(self, rows: np.ndarray, ratios, utilization=1.0) -> np.ndarray:
        """Predicted BUSY watts per row at an explicit frequency ratio
        (clamped to the row's DVFS range) and utilization — one value
        for every row, or one per row."""
        store = self.store
        idle = store.idle_power[rows]
        min_ratio = store.min_frequency[rows] / store.max_frequency[rows]
        ratios = np.minimum(1.0, np.maximum(min_ratio, np.asarray(ratios, dtype=float)))
        util = np.clip(utilization, 0.0, 1.0)
        dyn = (store.max_power[rows] - idle) * store.variability[rows] * util
        return idle + dyn * ratios**self.model.alpha

    def job_power(self, nodes: int, intensity: float, full: bool = False) -> float:
        """Nominal price of an unplaced job of *nodes* nodes at power
        *intensity*, from the store's ``nominal`` ``(idle, dyn)`` pair:
        the draw it adds over idle, ``(nodes × dyn) × intensity``, or
        with *full* its whole draw, ``nodes × (idle + dyn × intensity)``.
        Variability, caps and DVFS settings are not known before
        placement and do not enter."""
        idle, dyn = self.store.nominal
        if full:
            return nodes * (idle + dyn * intensity)
        return nodes * dyn * intensity
