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
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import NodeStateError, PowerCapError
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

# Backwards-compatible alias (the table predates Machine.transition_bulk
# needing it from outside this module).
_TRANSITIONS = TRANSITIONS


class Node:
    """A single compute node.

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

    __slots__ = (
        "node_id",
        "cores",
        "memory_gb",
        "idle_power",
        "max_power",
        "boot_time",
        "shutdown_time",
        "off_power",
        "state",
        "frequency",
        "max_frequency",
        "min_frequency",
        "power_cap",
        "variability",
        "running_job",
        "cabinet_id",
        "pdu_id",
        "last_state_change",
        "idle_since",
        "power_listener",
    )

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
        self.node_id = int(node_id)
        self.cores = int(cores)
        self.memory_gb = check_positive("memory_gb", memory_gb)
        self.idle_power = check_positive("idle_power", idle_power)
        self.max_power = check_positive("max_power", max_power)
        if self.max_power < self.idle_power:
            raise NodeStateError(
                f"max_power {max_power} < idle_power {idle_power} on node {node_id}"
            )
        self.boot_time = check_non_negative("boot_time", boot_time)
        self.shutdown_time = check_non_negative("shutdown_time", shutdown_time)
        self.off_power = check_non_negative("off_power", off_power)
        self.max_frequency = check_positive("max_frequency", max_frequency)
        self.min_frequency = check_positive("min_frequency", min_frequency)
        if self.min_frequency > self.max_frequency:
            raise NodeStateError("min_frequency > max_frequency")

        self.state = NodeState.IDLE
        self.frequency = self.max_frequency
        self.power_cap: Optional[float] = None
        self.variability = 1.0
        self.running_job: Optional[str] = None
        self.cabinet_id: Optional[int] = None
        self.pdu_id: Optional[str] = None
        self.last_state_change = 0.0
        self.idle_since: Optional[float] = 0.0
        #: Power-accounting hook: called with ``node_id`` whenever a
        #: field that determines the node's power draw changes (state,
        #: cap, frequency).  Installed by the owning simulation so its
        #: running machine-watts sum can be updated by delta instead of
        #: re-summing every node; None outside a simulation.
        self.power_listener: Optional[callable] = None

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def transition(self, target: NodeState, time: float) -> None:
        """Move to *target* state, validating legality.

        Tracks ``idle_since`` so idle-shutdown policies (Tokyo Tech,
        Mämmelä) can find long-idle nodes.
        """
        allowed = TRANSITIONS[self.state]
        if target not in allowed:
            raise NodeStateError(
                f"node {self.node_id}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        self.state = target
        self.last_state_change = time
        self.idle_since = time if target is NodeState.IDLE else None
        if self.power_listener is not None:
            self.power_listener(self.node_id)

    @property
    def is_available(self) -> bool:
        """True when the node can accept a new job right now."""
        return self.state is NodeState.IDLE

    @property
    def is_on(self) -> bool:
        """True when the node consumes operational power."""
        return self.state in (NodeState.IDLE, NodeState.BUSY, NodeState.BOOTING,
                              NodeState.SHUTTING_DOWN)

    # ------------------------------------------------------------------
    # Job binding
    # ------------------------------------------------------------------
    def assign(self, job_id: str, time: float) -> None:
        """Bind a job to this node (IDLE -> BUSY)."""
        if self.state is not NodeState.IDLE:
            raise NodeStateError(
                f"node {self.node_id} cannot accept job {job_id}: "
                f"state={self.state.value}"
            )
        self.running_job = job_id
        self.transition(NodeState.BUSY, time)

    def release(self, time: float) -> None:
        """Unbind the running job (BUSY -> IDLE)."""
        if self.state is not NodeState.BUSY:
            raise NodeStateError(
                f"node {self.node_id} has no job to release (state={self.state.value})"
            )
        self.running_job = None
        self.transition(NodeState.IDLE, time)

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

    def check_power_cap(self, cap: float) -> None:
        """Raise :class:`PowerCapError` if *cap* is below :attr:`cap_floor`."""
        if cap < self.cap_floor:
            raise PowerCapError(
                f"node {self.node_id}: cap {cap:.1f} W below enforceable "
                f"floor {self.cap_floor:.1f} W"
            )

    def set_power_cap(self, cap: Optional[float]) -> None:
        """Set (or clear, with ``None``) the node power cap in watts.

        Mirrors the control range of real mechanisms (RAPL / CAPMC):
        a cap below idle power cannot be enforced by frequency control
        alone and is rejected.
        """
        if cap is None:
            self.power_cap = None
        else:
            self.check_power_cap(cap)
            self.power_cap = float(cap)
        if self.power_listener is not None:
            self.power_listener(self.node_id)

    def set_frequency(self, frequency: float) -> None:
        """Set the operating frequency, clamped to the DVFS range."""
        self.frequency = min(self.max_frequency, max(self.min_frequency, frequency))
        if self.power_listener is not None:
            self.power_listener(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.node_id}, state={self.state.value}, "
            f"cap={self.power_cap}, job={self.running_job})"
        )
