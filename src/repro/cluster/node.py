"""Compute node model with explicit power states.

A node is the unit of allocation and of power control in every
surveyed production deployment: KAUST caps individual nodes at 270 W,
Tokyo Tech boots/shuts down whole nodes to track a facility cap, CEA
shuts nodes down manually to shift budget between systems, Trinity sets
node-level caps through CAPMC.  The state machine below models the
life-cycle those policies exercise, including the boot and shutdown
latencies that make dynamic provisioning a non-trivial control problem
(Tokyo Tech enforces its cap only over a ~30-minute window precisely
because node state changes are slow).

Node state is kept once, in columns: a :class:`NodeStore` holds one row
per node and a :class:`Node` is a view of one row.  A machine owns one
store for all its nodes; a ``Node`` built on its own owns a one-row
store.  The store's row methods are the only writers, and every writer
marks its rows dirty for the power fold
(:class:`~repro.power.vector.VectorPowerMirror`).
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ClusterError, NodeStateError, PowerCapError
from ..units import check_non_negative, check_positive


class NodeState(enum.Enum):
    """Power/availability state of a node."""

    #: Powered off; draws (almost) nothing; cannot run jobs.
    OFF = "off"
    #: Power-on sequence in progress; draws boot power; cannot run jobs.
    BOOTING = "booting"
    #: Powered on, no job assigned.
    IDLE = "idle"
    #: Powered on and executing (part of) a job.
    BUSY = "busy"
    #: Orderly power-off sequence in progress.
    SHUTTING_DOWN = "shutting_down"
    #: Administratively unavailable (maintenance/failure).
    DOWN = "down"


#: Legal state transitions.  Key: current state; value: allowed targets.
TRANSITIONS = {
    NodeState.OFF: {NodeState.BOOTING, NodeState.DOWN},
    NodeState.BOOTING: {NodeState.IDLE, NodeState.DOWN},
    NodeState.IDLE: {NodeState.BUSY, NodeState.SHUTTING_DOWN, NodeState.DOWN},
    NodeState.BUSY: {NodeState.IDLE, NodeState.DOWN},
    NodeState.SHUTTING_DOWN: {NodeState.OFF, NodeState.DOWN},
    NodeState.DOWN: {NodeState.OFF, NodeState.IDLE},
}

#: NodeState -> small-int code held in the ``state_code`` column.
STATE_CODES = {
    NodeState.OFF: 0,
    NodeState.DOWN: 1,
    NodeState.BOOTING: 2,
    NodeState.SHUTTING_DOWN: 3,
    NodeState.IDLE: 4,
    NodeState.BUSY: 5,
}
#: Code -> NodeState (the inverse of :data:`STATE_CODES`).
STATES = tuple(sorted(STATE_CODES, key=STATE_CODES.__getitem__))

_OFF = STATE_CODES[NodeState.OFF]
_DOWN = STATE_CODES[NodeState.DOWN]
_IDLE = STATE_CODES[NodeState.IDLE]

#: ``_LEGAL[code, target_code]``: the transition table as a code matrix.
_LEGAL = np.zeros((len(STATES), len(STATES)), dtype=bool)
for _state, _targets in TRANSITIONS.items():
    for _target in _targets:
        _LEGAL[STATE_CODES[_state], STATE_CODES[_target]] = True
#: Target code -> the source codes that may not move to it.
_ILLEGAL_FROM = tuple(
    tuple(np.flatnonzero(~_LEGAL[:, code]).tolist()) for code in range(len(STATES))
)

#: Every per-node column of a :class:`NodeStore`.
COLUMNS = (
    "state_code", "idle_power", "max_power", "off_power", "variability",
    "frequency", "min_frequency", "max_frequency", "power_cap",
    "idle_since", "last_state_change", "boot_time", "shutdown_time",
    "cores", "memory_gb",
)
_FLOAT_COLUMNS = tuple(c for c in COLUMNS if c not in ("state_code", "cores"))
#: Columns the nominal job price is read from.
_PRICED = ("idle_power", "max_power")


def _rows_list(rows) -> List[int]:
    return rows.tolist() if isinstance(rows, np.ndarray) else list(rows)


class NodeStore:
    """Per-row node columns: the one copy of every node's state.

    Rows are node ids within a machine.  ``power_cap`` is +inf for "no
    cap" and ``idle_since`` NaN for "no idle timestamp".  ``counts[c]``
    is the number of rows whose state code is *c*; ``dirty`` holds the
    rows written since the power fold last consumed them.  The row
    methods below are the only writers, and each marks its rows dirty.
    Error messages name node ``id_base + row``.

    ``nominal`` is the ``(idle, max - idle)`` watts pair every unplaced
    job is priced from (:meth:`~repro.power.vector.VectorPowerMirror.job_power`),
    taken from ``nominal_row``: the first row with the largest dynamic
    span, so a heterogeneous machine is priced from its hungriest spec.
    Both are Python numbers (numpy scalars would leak into state bytes)
    and are recomputed whenever ``idle_power`` or ``max_power`` is
    written.

    *columns* sets columns at construction: each value (a scalar or one
    value per row) is broadcast over the rows.  Unset columns describe
    a fresh idle node: uncapped, variability 1, timestamps 0.
    """

    __slots__ = COLUMNS + (
        "counts", "dirty", "id_base", "_idle", "nominal", "nominal_row",
    )

    def __init__(self, rows: int, id_base: int = 0, **columns) -> None:
        self.state_code = np.full(rows, _IDLE, dtype=np.int8)
        self.cores = np.zeros(rows, dtype=np.int64)
        for name in _FLOAT_COLUMNS:
            setattr(self, name, np.zeros(rows))
        self.variability[:] = 1.0
        self.power_cap[:] = np.inf
        for name, value in columns.items():
            getattr(self, name)[:] = value
        self.id_base = int(id_base)
        self.dirty: set = set()
        self.recount()
        self._price()

    def __len__(self) -> int:
        return len(self.state_code)

    def recount(self) -> None:
        """Rebuild :attr:`counts` from the state column."""
        self.counts: List[int] = np.bincount(
            self.state_code, minlength=len(STATES)
        ).tolist()
        self._idle = None

    def _price(self) -> None:
        """Recompute :attr:`nominal` and :attr:`nominal_row`."""
        span = self.max_power - self.idle_power
        row = int(np.argmax(span))
        self.nominal_row = row
        self.nominal = (self.idle_power.item(row), span.item(row))

    def idle_mask(self) -> np.ndarray:
        """``state_code == IDLE``: the rows that can take a job now.

        Computed on first use after a state write and shared until the
        next one, so callers must not write into it.
        """
        if self._idle is None:
            self._idle = self.state_code == _IDLE
        return self._idle

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def transition(self, rows: Sequence[int], target: NodeState, time: float) -> None:
        """Move every row to *target* at *time*.

        Legality is checked for the whole cohort before any write, so a
        mixed-state cohort fails cleanly; a cohort listing a row twice
        is refused with :class:`ClusterError`.  A move to IDLE stamps
        ``idle_since`` (idle-shutdown policies rank by it); any other
        target clears it.
        """
        ids = _rows_list(rows)
        if len(set(ids)) != len(ids):
            twice = next(i for i in ids if ids.count(i) > 1)
            raise ClusterError(
                f"transition to {target.value} lists node {self.id_base + twice} twice"
            )
        idx = np.array(ids, dtype=np.intp)
        old = self.state_code[idx]
        code = STATE_CODES[target]
        moved = np.bincount(old, minlength=len(STATES)).tolist()
        if any(moved[source] for source in _ILLEGAL_FROM[code]):
            bad = int(np.argmin(_LEGAL[old, code]))
            raise NodeStateError(
                f"node {self.id_base + ids[bad]}: illegal transition "
                f"{STATES[old[bad]].value} -> {target.value}"
            )
        counts = self.counts
        for source, k in enumerate(moved):
            counts[source] -= k
        counts[code] += len(ids)
        self._idle = None
        self.state_code[idx] = code
        self.last_state_change[idx] = time
        self.idle_since[idx] = time if code == _IDLE else np.nan
        self.dirty.update(ids)

    def set_caps(self, rows: Sequence[int], cap: Optional[float]) -> None:
        """Set (or clear, with ``None``) one power cap on every row.

        Mirrors the control range of real mechanisms (RAPL / CAPMC): a
        cap below a row's idle power cannot be enforced by frequency
        control alone, so the cap is checked against every row's floor
        before any row is written.
        """
        ids = _rows_list(rows)
        if cap is None:
            cap = np.inf
        else:
            cap = float(cap)
            floor = self.idle_power[ids]
            below = floor > cap
            if below.any():
                bad = int(np.argmax(below))
                raise PowerCapError(
                    f"node {self.id_base + ids[bad]}: cap {cap:.1f} W below "
                    f"enforceable floor {floor[bad]:.1f} W"
                )
        self.power_cap[ids] = cap
        self.dirty.update(ids)

    def set_frequency(self, rows: Sequence[int], frequency: float) -> None:
        """Set the operating frequency, clamped to each row's DVFS range."""
        ids = _rows_list(rows)
        self.frequency[ids] = np.minimum(
            self.max_frequency[ids], np.maximum(self.min_frequency[ids], frequency)
        )
        self.dirty.update(ids)

    def write(self, name: str, rows: Sequence[int], values) -> None:
        """Plain write of column *name* over *rows*, no checks."""
        ids = _rows_list(rows)
        getattr(self, name)[ids] = values
        if name == "state_code":
            self.recount()
        elif name in _PRICED:
            self._price()
        self.dirty.update(ids)

    def load(self, **columns) -> None:
        """Overwrite whole columns (checkpoint restore); marks every row
        dirty, so the caller then installs the dirty set it restores."""
        for name, values in columns.items():
            getattr(self, name)[:] = values
        self.recount()
        if not columns.keys().isdisjoint(_PRICED):
            self._price()
        self.dirty.update(range(len(self)))

    # ------------------------------------------------------------------
    # Row queries (policy tick helpers)
    # ------------------------------------------------------------------
    def powered_rows(self) -> np.ndarray:
        """Rows drawing operational power (``Node.is_on``: booting,
        shutting down, idle or busy), in row order."""
        state = self.state_code
        return np.flatnonzero((state != _OFF) & (state != _DOWN))

    def rows_in(self, state: NodeState) -> np.ndarray:
        """Rows currently in *state*, ascending."""
        return np.flatnonzero(self.state_code == STATE_CODES[state])

    def idle_candidate_rows(self, now: float, threshold: float) -> np.ndarray:
        """Rows idle for at least *threshold* seconds at *now*, ordered
        by ``(idle_since, row)`` — longest idle first.  Rows with no
        idle timestamp (NaN) never qualify."""
        idle_since = self.idle_since
        with np.errstate(invalid="ignore"):
            mask = (self.state_code == _IDLE) & (now - idle_since >= threshold)
        rows = np.flatnonzero(mask)
        # flatnonzero rows are already ascending; a stable sort on
        # idle_since alone yields the (idle_since, row) order.
        return rows[np.argsort(idle_since[rows], kind="stable")]


def _column(name: str, doc: str) -> property:
    """A view property over one plain numeric column (Python scalars
    out, plain writes in)."""
    column = attrgetter(name)

    def get(self):
        return column(self._store).item(self._row)

    def put(self, value) -> None:
        self._store.write(name, [self._row], value)

    return property(get, put, doc=doc)


class Node:
    """A single compute node: a view of one :class:`NodeStore` row.

    Built on its own, a node validates its parameters and owns a
    one-row store; a :class:`~repro.cluster.machine.Machine` copies it
    into the machine's store and rebinds it there (the object stays the
    same).  Every property returns a Python ``float``, ``int`` or
    :class:`NodeState`.

    Parameters
    ----------
    node_id:
        Zero-based index, unique within its machine.
    cores:
        Number of CPU cores (allocation granularity is whole nodes, but
        cores scale the power model and feed utilization metrics).
    memory_gb:
        Installed memory; checked against job requests by allocators.
    idle_power:
        Power draw in watts when powered on but idle.
    max_power:
        Power draw in watts at full utilization and maximum frequency,
        *before* manufacturing variability is applied.
    boot_time / shutdown_time:
        Latency of power-state changes, seconds.
    off_power:
        Residual draw when off (BMC etc.); defaults to 5 W.
    """

    __slots__ = ("node_id", "cabinet_id", "_store", "_row")

    def __init__(
        self,
        node_id: int,
        cores: int = 32,
        memory_gb: float = 128.0,
        idle_power: float = 100.0,
        max_power: float = 350.0,
        boot_time: float = 300.0,
        shutdown_time: float = 120.0,
        off_power: float = 5.0,
        max_frequency: float = 2.4e9,
        min_frequency: float = 1.2e9,
    ) -> None:
        if cores <= 0:
            raise NodeStateError(f"node needs >= 1 core, got {cores}")
        fields = dict(
            cores=int(cores),
            memory_gb=check_positive("memory_gb", memory_gb),
            idle_power=check_positive("idle_power", idle_power),
            max_power=check_positive("max_power", max_power),
        )
        if fields["max_power"] < fields["idle_power"]:
            raise NodeStateError(
                f"max_power {max_power} < idle_power {idle_power} on node {node_id}"
            )
        fields.update(
            boot_time=check_non_negative("boot_time", boot_time),
            shutdown_time=check_non_negative("shutdown_time", shutdown_time),
            off_power=check_non_negative("off_power", off_power),
            max_frequency=check_positive("max_frequency", max_frequency),
            min_frequency=check_positive("min_frequency", min_frequency),
        )
        if fields["min_frequency"] > fields["max_frequency"]:
            raise NodeStateError("min_frequency > max_frequency")
        fields["frequency"] = fields["max_frequency"]
        self.node_id = int(node_id)
        self.cabinet_id: Optional[int] = None
        self._store = NodeStore(1, id_base=self.node_id, **fields)
        self._row = 0

    @classmethod
    def view(cls, store: NodeStore, row: int) -> "Node":
        """The node of *row* in *store* (its id is the row)."""
        node = cls.__new__(cls)
        node.node_id = row
        node.cabinet_id = None
        node._store = store
        node._row = row
        return node

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    idle_power = _column("idle_power", "Power draw in watts when on but idle.")
    max_power = _column("max_power", "Full-load watts before variability.")
    off_power = _column("off_power", "Residual draw when off, watts.")
    variability = _column("variability", "Manufacturing power multiplier.")
    frequency = _column("frequency", "Operating frequency, Hz.")
    min_frequency = _column("min_frequency", "Lowest DVFS frequency, Hz.")
    max_frequency = _column("max_frequency", "Highest DVFS frequency, Hz.")
    last_state_change = _column("last_state_change", "Time of the last transition.")
    boot_time = _column("boot_time", "Power-on latency, seconds.")
    shutdown_time = _column("shutdown_time", "Power-off latency, seconds.")
    cores = _column("cores", "Number of CPU cores.")
    memory_gb = _column("memory_gb", "Installed memory, GB.")

    @property
    def state(self) -> NodeState:
        """Current power/availability state."""
        return STATES[self._store.state_code.item(self._row)]

    @state.setter
    def state(self, value: NodeState) -> None:
        self._store.write("state_code", [self._row], STATE_CODES[value])

    @property
    def power_cap(self) -> Optional[float]:
        """Power cap in watts, None when uncapped."""
        cap = self._store.power_cap.item(self._row)
        return None if cap == np.inf else cap

    @power_cap.setter
    def power_cap(self, value: Optional[float]) -> None:
        self._store.write("power_cap", [self._row], np.inf if value is None else value)

    @property
    def idle_since(self) -> Optional[float]:
        """Time the node last became IDLE, None when not idle."""
        since = self._store.idle_since.item(self._row)
        return None if since != since else since

    @idle_since.setter
    def idle_since(self, value: Optional[float]) -> None:
        self._store.write("idle_since", [self._row], np.nan if value is None else value)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def transition(self, target: NodeState, time: float) -> None:
        """Move to *target* state, validating legality.

        Tracks ``idle_since`` so idle-shutdown policies (Tokyo Tech,
        Mämmelä) can find long-idle nodes.
        """
        self._store.transition([self._row], target, time)

    @property
    def is_available(self) -> bool:
        """True when the node can accept a new job right now."""
        return self._store.state_code.item(self._row) == _IDLE

    @property
    def is_on(self) -> bool:
        """True when the node consumes operational power."""
        return self._store.state_code.item(self._row) not in (_OFF, _DOWN)

    # ------------------------------------------------------------------
    # Power control
    # ------------------------------------------------------------------
    @property
    def effective_max_power(self) -> float:
        """Max power including manufacturing variability."""
        return self.max_power * self.variability

    @property
    def cap_floor(self) -> float:
        """Lowest enforceable cap: idle power (caps below are rejected)."""
        return self.idle_power

    def set_power_cap(self, cap: Optional[float]) -> None:
        """Set (or clear, with ``None``) the node power cap in watts;
        a cap below idle power raises :class:`PowerCapError`."""
        self._store.set_caps([self._row], cap)

    def set_frequency(self, frequency: float) -> None:
        """Set the operating frequency, clamped to the DVFS range."""
        self._store.set_frequency([self._row], frequency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.node_id}, state={self.state.value}, "
            f"cap={self.power_cap})"
        )
