"""Idle-node shutdown — Mämmelä et al. [33] and Tokyo Tech production.

Table I, Tokyo Tech: "Resource manager shuts down nodes that have been
idle for a long time."  The energy saving is the idle power of nodes
that would otherwise sit powered; the cost is the boot latency when
demand returns.  The policy therefore also boots nodes back when the
queue backlog exceeds what the powered pool can serve, keeping a
configurable spare margin to absorb arrivals.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.node import STATE_CODES, NodeState
from ..core.epa import FunctionalCategory
from ..units import check_non_negative, check_positive
from .base import Policy

_IDLE = STATE_CODES[NodeState.IDLE]
_BOOTING = STATE_CODES[NodeState.BOOTING]


class IdleShutdownPolicy(Policy):
    """Shut down long-idle nodes; boot them back on queue demand.

    Parameters
    ----------
    idle_threshold:
        Seconds a node must be idle before it may be shut down.
    min_spare:
        Number of idle nodes always kept powered as headroom.
    check_interval:
        Control-loop period, seconds.
    """

    name = "idle-shutdown"

    def __init__(
        self,
        idle_threshold: float = 1800.0,
        min_spare: int = 4,
        check_interval: float = 300.0,
    ) -> None:
        super().__init__()
        self.idle_threshold = check_positive("idle_threshold", idle_threshold)
        self.min_spare = int(check_non_negative("min_spare", min_spare))
        self.control_interval = check_positive("check_interval", check_interval)
        self.energy_saved_estimate = 0.0

    # ------------------------------------------------------------------
    def _queue_demand(self) -> int:
        """Nodes wanted by the head of the queue (bounded lookahead)."""
        pending = self.simulation.queue.pending()
        return sum(job.nodes for job in pending[:16])

    def on_tick(self, now: float) -> None:
        """Boot OFF nodes on a queue deficit, else shut down surplus
        long-idle nodes.

        Counts and candidates come off the machine's node store: state
        counts are O(1), boot picks are OFF rows in node-id order, and
        shutdown picks are idle rows ranked longest-idle
        first, node id breaking ties.  ``energy_saved_estimate``
        accumulates node by node in that order (it is captured in
        ``repro.state`` snapshots, so summation order matters).
        """
        simulation = self.simulation
        store = simulation.machine.store
        nodes = simulation.machine.nodes
        rm = simulation.rm
        demand = self._queue_demand()
        idle = store.counts[_IDLE]
        supply = idle + store.counts[_BOOTING]

        if demand > supply:
            deficit = demand - supply
            off = store.rows_in(NodeState.OFF)[:deficit]
            rm.boot_nodes([nodes[row] for row in off.tolist()])
            return

        # Shut down surplus long-idle nodes, preserving the spare margin.
        keep = demand + self.min_spare
        surplus = idle - keep
        if surplus <= 0:
            return
        rows = store.idle_candidate_rows(now, self.idle_threshold)[:surplus]
        to_stop = [nodes[row] for row in rows.tolist()]
        for node in to_stop:
            self.energy_saved_estimate += node.idle_power * self.control_interval
        rm.shutdown_nodes(to_stop)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "idle-shutdown",
                FunctionalCategory.RESOURCE_CONTROL,
                f"power off nodes idle > {self.idle_threshold:.0f}s, "
                f"boot on demand",
            )
        ]
