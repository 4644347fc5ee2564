"""Policy plugin interface.

A policy is the unit in which surveyed EPA techniques are packaged.
The hook set mirrors the touch points Figure 1 gives an EPA JSRM
solution:

* ``filter_rows`` — restrict which nodes the scheduler may use
  (layout/maintenance awareness, capped partitions);
* ``admit`` — veto a job start (power budget, prediction gate);
* ``configure_start`` — set frequencies/caps/moldable shape as a job
  starts (energy tags, DVFS budgeting);
* ``on_job_start`` / ``on_job_end`` — bookkeeping and reporting;
* ``on_tick`` — the periodic control loop (capping enforcement,
  provisioning, power sharing), scheduled at ``control_interval``;
* ``epa_components`` — self-description for the Figure-1 registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.node import Node
from ..core.epa import FunctionalCategory
from ..workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulation import ClusterSimulation


def _idle_rank(node: Node) -> Tuple[bool, float, int]:
    """Longest-idle-first candidate key shared by the shutdown-style
    policies: timestamped nodes first (oldest ``idle_since`` winning),
    nodes with no idle timestamp last, node id breaking ties.  Written
    out explicitly because ``idle_since or 0.0`` conflates a node idle
    since t=0 with one whose timestamp is ``None``.
    """
    idle_since = node.idle_since
    return (
        idle_since is None,
        idle_since if idle_since is not None else 0.0,
        node.node_id,
    )


class Policy:
    """Base class for all EPA policies.  All hooks are optional."""

    #: Human-readable policy name (subclasses override).
    name = "policy"
    #: Seconds between ``on_tick`` calls; None disables the loop.
    control_interval: Optional[float] = None

    def __init__(self) -> None:
        self.simulation: Optional["ClusterSimulation"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, simulation: "ClusterSimulation") -> None:
        """Called once when the policy is registered with a simulation."""
        self.simulation = simulation
        self.on_attach()

    def on_attach(self) -> None:
        """Subclass hook run after ``self.simulation`` is set."""

    @property
    def sim(self):
        """The discrete-event engine (convenience accessor)."""
        assert self.simulation is not None, f"policy {self.name} not attached"
        return self.simulation.sim

    # ------------------------------------------------------------------
    # Scheduling hooks
    # ------------------------------------------------------------------
    def filter_rows(self, mask: np.ndarray, now: float) -> np.ndarray:
        """Restrict the nodes the scheduler may allocate from.

        *mask* is a boolean array over ``machine.nodes`` rows (node
        ids) marking the nodes usable this pass.  It is one private
        copy of the node store's idle mask, taken before the first
        filter and passed through every filter in policy order.
        A filter may only *clear* rows — withhold nodes — never set
        one; it may write *mask* in place and returns the mask the
        next filter sees.  The pass's free count is the final mask's
        popcount.  Overriding this hook puts the policy on every
        scheduling pass, including passes with an empty queue.
        """
        return mask

    def admit(self, job: Job, now: float) -> bool:
        """Return False to veto starting *job* right now."""
        return True

    def configure_start(self, job: Job, nodes: Sequence[Node], now: float) -> None:
        """Adjust node settings (freq/caps) as *job* starts on *nodes*."""

    def select_configuration(self, job: Job, now: float) -> Job:
        """Optionally reshape a moldable job before fit checks.

        Returns the job to schedule (possibly the same object mutated,
        or the original).  Default: unchanged.
        """
        return job

    # ------------------------------------------------------------------
    # Life-cycle hooks
    # ------------------------------------------------------------------
    def on_job_start(self, job: Job, now: float) -> None:
        """Called after *job* has started."""

    def on_job_end(self, job: Job, now: float) -> None:
        """Called after *job* reached a terminal state."""

    def on_tick(self, now: float) -> None:
        """Periodic control loop (only if ``control_interval`` set)."""

    # ------------------------------------------------------------------
    # Shared actuation
    # ------------------------------------------------------------------
    def _cap_powered_nodes(self, limit_watts: float) -> bool:
        """Cap every powered node (``Node.is_on``) at an even share of
        *limit_watts*, raised to the highest cap floor (idle power)
        among them so the cohort cap stays enforceable.  The powered
        set and the floor are read from the machine's node store.
        Returns False, capping nothing, when no node is powered."""
        simulation = self.simulation
        store = simulation.machine.store
        rows = store.powered_rows()
        if rows.size == 0:
            return False
        per_node = limit_watts / rows.size
        floor = float(store.idle_power[rows].max())
        nodes = simulation.machine.nodes
        simulation.rm.set_power_cap(
            [nodes[row] for row in rows.tolist()], max(per_node, floor)
        )
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        """(name, category, description) triples for the EPA registry."""
        return []
