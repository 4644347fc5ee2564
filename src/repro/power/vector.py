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
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import NodeState
from . import kernels
from .model import NodePowerModel

__all__ = ["LifecycleView", "OperatingPoints", "VectorPowerMirror", "STATE_CODES"]

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


@dataclass(frozen=True)
class LifecycleView:
    """Read-only SoA view of the node lifecycle for batch-aware policy
    ticks (:meth:`repro.policies.base.Policy.on_tick_batch`).

    Rows are ``machine.nodes`` positions, same as the power arrays.
    The arrays are the mirror's own (no copies): treat them as
    immutable and never hold them across events.
    """

    now: float
    node_id: np.ndarray
    state_code: np.ndarray
    #: Seconds-since-epoch a node went idle; NaN where the node has no
    #: idle timestamp (``Node.idle_since is None``).
    idle_since: np.ndarray
    #: Jobs bound to each node (0 or 1 under whole-node allocation).
    bound_jobs: np.ndarray
    idle_power: np.ndarray
    nodes: Sequence  # row -> Node, for materializing picks
    #: Per-state-code node counts frozen at view creation (the mirror
    #: maintains them incrementally, so reading one is O(1), not O(N)).
    state_counts: tuple = ()
    #: True when row order == node-id order (the common case): ordered
    #: candidate kernels can then skip their id sorts entirely.
    ids_monotone: bool = False

    def count_in_state(self, code: int) -> int:
        """Number of nodes whose state code equals *code*."""
        if self.state_counts:
            return self.state_counts[code]
        return int(np.count_nonzero(self.state_code == code))

    def idle_candidate_rows(self, threshold: float) -> np.ndarray:
        """Rows idle for at least *threshold* seconds at ``self.now``,
        ordered by ``(idle_since, node_id)`` — the vector twin of
        sorting ``ResourceManager.idle_nodes_longer_than`` output by
        the longest-idle-first policy key.  NaN ``idle_since`` rows
        (no idle timestamp) never qualify, mirroring the scalar
        ``None`` guard."""
        idle_since = self.idle_since
        with np.errstate(invalid="ignore"):
            mask = (self.state_code == _IDLE) & (
                self.now - idle_since >= threshold
            )
        rows = np.flatnonzero(mask)
        if rows.size > 1:
            if self.ids_monotone:
                # flatnonzero rows are already id-ordered; a stable
                # sort on idle_since alone yields the same
                # (idle_since, node_id) order with one key.
                order = np.argsort(idle_since[rows], kind="stable")
            else:
                order = np.lexsort((self.node_id[rows], idle_since[rows]))
            rows = rows[order]
        return rows

    def off_rows(self) -> np.ndarray:
        """Rows currently OFF, ordered by node id — the vector twin of
        ``sorted(rm.off_nodes(), key=lambda n: n.node_id)``."""
        rows = np.flatnonzero(self.state_code == _OFF)
        if rows.size > 1 and not self.ids_monotone:
            order = np.argsort(self.node_id[rows], kind="stable")
            rows = rows[order]
        return rows


class VectorPowerMirror:
    """SoA mirror of one machine, bound to one :class:`NodePowerModel`.

    Rows are positions in ``machine.nodes``; ``rows_for`` maps node ids
    to rows for callers that hold ids.
    """

    def __init__(self, machine: Machine, model: NodePowerModel) -> None:
        self.machine = machine
        self.model = model
        self._nodes = machine.nodes
        n = len(self._nodes)
        self._row_of: Dict[int, int] = {
            node.node_id: row for row, node in enumerate(self._nodes)
        }
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
        # Lifecycle arrays (beyond power): idle timestamps (NaN encodes
        # "no idle timestamp", mirroring the scalar None), bound-job
        # counts, and node ids for id-ordered candidate ranking.
        self.idle_since = np.full(n, np.nan)
        self.bound_jobs = np.zeros(n, dtype=np.int32)
        #: Execution-slot id per row, -1 when no execution occupies the
        #: node.  The owning simulation maps slots to JobExecution
        #: objects (``ClusterSimulation._exec_slots``): membership moves
        #: in one scatter per cohort instead of a Python loop.
        self.exec_slot = np.full(n, -1, dtype=np.int32)
        self.node_id = np.fromiter(
            (node.node_id for node in self._nodes), dtype=np.intp, count=n
        )
        self._ids_monotone = bool(
            n < 2 or np.all(np.diff(self.node_id) > 0)
        )
        #: Stronger than monotone: ids ARE row positions, so cohort
        #: row lookups reduce to an array conversion.
        self._rows_are_ids = bool(
            np.array_equal(self.node_id, np.arange(n, dtype=np.intp))
        )
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
    def rows_for(self, node_ids: Iterable[int]) -> np.ndarray:
        """Row indices for *node_ids* (machine.nodes positions)."""
        if self._rows_are_ids:
            if not isinstance(node_ids, (list, tuple, np.ndarray)):
                node_ids = list(node_ids)
            return np.asarray(node_ids, dtype=np.intp)
        row_of = self._row_of
        return np.fromiter(
            (row_of[nid] for nid in node_ids), dtype=np.intp
        )

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
        # Execution membership lives in exec_slot (the simulation does
        # not stamp ``running_job`` per node); rows touched outside a
        # simulation (bare mirror tests, node.assign) still derive
        # their binding from the node field.
        self.bound_jobs[row] = (
            1
            if self.exec_slot[row] >= 0 or node.running_job is not None
            else 0
        )

    def touch(self, node_id: int) -> None:
        """``Node.power_listener`` entry point: resync + mark dirty."""
        row = self._row_of[node_id]
        self.refresh_row(row)
        self._dirty.add(row)

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
        into ``exec_slot`` and mark the rows bound, replacing the
        owning simulation's per-node dict/attribute loops with one
        scatter per cohort."""
        self.exec_slot[rows] = slot
        self.bound_jobs[rows] = 1
        self.utilization[rows] = min(1.0, max(0.0, float(utilization)))
        self.sensitivity[rows] = min(1.0, max(0.0, float(sensitivity)))
        self._dirty.update(rows.tolist())

    def unbind_execution(self, rows: np.ndarray) -> None:
        """:meth:`unbind` plus membership teardown: clear ``exec_slot``
        and the bound-job counts in the same scatter."""
        self.exec_slot[rows] = -1
        self.bound_jobs[rows] = 0
        self.utilization[rows] = 1.0
        self.sensitivity[rows] = 1.0
        self._dirty.update(rows.tolist())

    def transition_rows(self, rows: np.ndarray, code: int, time: float) -> None:
        """Apply one lifecycle transition to *rows* in a single SoA pass.

        The bulk twin of per-row :meth:`touch` after
        ``Node.transition``: state codes, idle timestamps (NaN for
        non-idle targets, mirroring the scalar ``None``), bound-job
        counts and the incremental state-count buckets all move in one
        scatter, and the rows join the dirty set for the next
        ``machine_watts`` fold.  Power-relevant fields other than state
        never change during a transition, so nothing else is re-read.

        Precondition (holds at every bulk call site): the scalar nodes
        were already moved to the same target state.  Bound-job counts
        are derived from the target code (BUSY rows are exactly the
        execution cohorts being started), matching what
        :meth:`refresh_row` derives from ``exec_slot`` once
        ``bind_execution`` lands in the same event.
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
        self.bound_jobs[rows] = 1 if code == _BUSY else 0
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
    # Lifecycle kernels (batch policy helpers)
    # ------------------------------------------------------------------
    def lifecycle_view(self, now: float) -> LifecycleView:
        """SoA lifecycle snapshot handed to ``Policy.on_tick_batch``."""
        return LifecycleView(
            now=now,
            node_id=self.node_id,
            state_code=self.state_code,
            idle_since=self.idle_since,
            bound_jobs=self.bound_jobs,
            idle_power=self.idle_power,
            nodes=self._nodes,
            state_counts=tuple(self._state_counts),
            ids_monotone=self._ids_monotone,
        )

    def idle_candidate_rows(self, now: float, threshold: float) -> np.ndarray:
        """Rows idle for at least *threshold* seconds, ordered by
        ``(idle_since, node_id)``; see
        :meth:`LifecycleView.idle_candidate_rows`."""
        return self.lifecycle_view(now).idle_candidate_rows(threshold)

    def off_rows(self) -> np.ndarray:
        """Rows currently OFF, ordered by node id; see
        :meth:`LifecycleView.off_rows`."""
        return self.lifecycle_view(0.0).off_rows()

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
