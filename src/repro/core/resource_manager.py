"""The resource manager: privileged control over the machine.

Section II-A: "A resource manager is a piece of system software that
has privileged ability to control various resources within a
datacenter" — including, "in some cases, ... pieces of the physical
plant".  This class is the only component allowed to mutate node
state: boot/shutdown (with realistic latencies), power caps, DVFS
frequencies, and draining for maintenance.  Policies act *through* it;
the simulation observes its notifications.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..cluster.machine import Machine
from ..cluster.node import Node, NodeState
from ..errors import NodeStateError
from ..simulator.engine import Simulator
from ..simulator.events import EventPriority
from ..simulator.trace import TraceRecorder


class ResourceManager:
    """Privileged actuator for one machine.

    Parameters
    ----------
    sim:
        Simulator for latency modelling (boots/shutdowns take time).
    machine:
        The machine under control.
    trace:
        Optional structured trace ("rm.*" categories).
    on_nodes_changed:
        Callback fired when node availability changes (boot completes,
        shutdown completes, drain/undrain) so the scheduler can react.
    on_speed_changed:
        Callback fired with the affected node ids whenever caps or
        frequencies change — running jobs must be re-evaluated.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        trace: Optional[TraceRecorder] = None,
        on_nodes_changed: Optional[Callable[[], None]] = None,
        on_speed_changed: Optional[Callable[[List[int]], None]] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.trace = trace
        self.on_nodes_changed = on_nodes_changed
        self.on_speed_changed = on_speed_changed
        self.boots_initiated = 0
        self.shutdowns_initiated = 0

    # ------------------------------------------------------------------
    def _emit(self, category: str, **data) -> None:
        if self.trace is not None:
            self.trace.emit(self.sim.now, category, **data)

    def _emit_nodes(self, category: str, nodes: List[Node]) -> None:
        # One batched append for a whole transition cohort.  Safe to
        # hoist ahead of the per-node notify/schedule loop: nothing in
        # that loop emits trace records, so the record stream is
        # byte-identical to the scalar interleaving.
        if self.trace is not None:
            self.trace.emit_batch(
                self.sim.now, category,
                [{"node": n.node_id} for n in nodes],
            )

    def _notify_nodes_changed(self) -> None:
        if self.on_nodes_changed is not None:
            self.on_nodes_changed()

    def _notify_power_changed(self, node_id: int) -> None:
        # Power-state transitions change machine power; the simulation
        # listens on the speed-change channel to invalidate caches.
        if self.on_speed_changed is not None:
            self.on_speed_changed([node_id])

    # ------------------------------------------------------------------
    # Power state control (Tokyo Tech dynamic provisioning, CEA manual
    # shutdown, Mämmelä idle shutdown)
    # ------------------------------------------------------------------
    def boot_node(self, node: Node) -> None:
        """Begin powering on an OFF node; IDLE after its boot time."""
        node.transition(NodeState.BOOTING, self.sim.now)
        self.boots_initiated += 1
        self._emit("rm.boot.start", node=node.node_id)
        self._notify_power_changed(node.node_id)
        self.sim.after(node.boot_time, self._finish_boot, node,
                       priority=EventPriority.STATE,
                       name=f"boot:{node.node_id}")

    def _finish_boot(self, node: Node) -> None:
        # Bound method (not a closure) so repro.state can capture and
        # re-plant pending boot-completion events.
        if node.state is NodeState.BOOTING:
            node.transition(NodeState.IDLE, self.sim.now)
            self._emit("rm.boot.done", node=node.node_id)
            self._notify_nodes_changed()

    def shutdown_node(self, node: Node) -> None:
        """Begin powering off an IDLE node; OFF after its shutdown time."""
        node.transition(NodeState.SHUTTING_DOWN, self.sim.now)
        self.shutdowns_initiated += 1
        self._emit("rm.shutdown.start", node=node.node_id)
        self._notify_power_changed(node.node_id)
        self.sim.after(node.shutdown_time, self._finish_shutdown, node,
                       priority=EventPriority.STATE,
                       name=f"shutdown:{node.node_id}")

    def _finish_shutdown(self, node: Node) -> None:
        if node.state is NodeState.SHUTTING_DOWN:
            node.transition(NodeState.OFF, self.sim.now)
            self._emit("rm.shutdown.done", node=node.node_id)
            self._notify_nodes_changed()

    def boot_nodes(self, nodes: Iterable[Node]) -> int:
        """Boot all OFF nodes in *nodes*; returns how many were started.

        The cohort moves in one store row call; trace records, counters
        and the per-node boot-completion events then follow in cohort
        order.
        """
        eligible = [n for n in nodes if n.state is NodeState.OFF]
        self.machine.store.transition(
            [n.node_id for n in eligible], NodeState.BOOTING, self.sim.now
        )
        self.boots_initiated += len(eligible)
        self._emit_nodes("rm.boot.start", eligible)
        for node in eligible:
            self._notify_power_changed(node.node_id)
            self.sim.after(node.boot_time, self._finish_boot, node,
                           priority=EventPriority.STATE,
                           name=f"boot:{node.node_id}")
        return len(eligible)

    def shutdown_nodes(self, nodes: Iterable[Node]) -> int:
        """Shut down all IDLE nodes in *nodes*; returns the count.

        One store row call per cohort, exactly like :meth:`boot_nodes`.
        """
        eligible = [n for n in nodes if n.state is NodeState.IDLE]
        self.machine.store.transition(
            [n.node_id for n in eligible], NodeState.SHUTTING_DOWN, self.sim.now
        )
        self.shutdowns_initiated += len(eligible)
        self._emit_nodes("rm.shutdown.start", eligible)
        for node in eligible:
            self._notify_power_changed(node.node_id)
            self.sim.after(node.shutdown_time, self._finish_shutdown, node,
                           priority=EventPriority.STATE,
                           name=f"shutdown:{node.node_id}")
        return len(eligible)

    # ------------------------------------------------------------------
    # Maintenance (CEA layout logic support)
    # ------------------------------------------------------------------
    def drain_node(self, node: Node) -> None:
        """Mark a non-busy node administratively DOWN."""
        if node.state is NodeState.BUSY:
            raise NodeStateError(
                f"node {node.node_id} is busy; cannot drain (wait for job end)"
            )
        node.transition(NodeState.DOWN, self.sim.now)
        self._emit("rm.drain", node=node.node_id)
        self._notify_nodes_changed()

    def undrain_node(self, node: Node) -> None:
        """Return a DOWN node to service (IDLE)."""
        node.transition(NodeState.IDLE, self.sim.now)
        self._emit("rm.undrain", node=node.node_id)
        self._notify_nodes_changed()

    # ------------------------------------------------------------------
    # Power control (caps and DVFS)
    # ------------------------------------------------------------------
    def set_power_cap(self, nodes: Iterable[Node], cap: Optional[float]) -> List[int]:
        """Set (or clear) per-node caps; returns affected node ids.

        The cohort is one store row call: validated whole against every
        node's cap floor before any cap is written.
        """
        affected = [n.node_id for n in nodes]
        self.machine.store.set_caps(affected, cap)
        self._emit("rm.cap", nodes=len(affected), cap=cap)
        if affected and self.on_speed_changed is not None:
            self.on_speed_changed(affected)
        return affected

    def set_frequency(self, nodes: Iterable[Node], frequency: float) -> List[int]:
        """Set the DVFS frequency on *nodes*; returns affected ids."""
        affected = [n.node_id for n in nodes]
        self.machine.store.set_frequency(affected, frequency)
        self._emit("rm.dvfs", nodes=len(affected), frequency=frequency)
        if affected and self.on_speed_changed is not None:
            self.on_speed_changed(affected)
        return affected

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def off_nodes(self) -> List[Node]:
        """Nodes currently OFF (candidates for booting)."""
        return self.machine.nodes_in_state(NodeState.OFF)
