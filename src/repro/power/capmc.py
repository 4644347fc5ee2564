"""CAPMC-style out-of-band power control.

Cray's CAPMC (Cray Advanced Platform Monitoring and Control) is the
mechanism behind three surveyed production deployments: KAUST's static
270 W caps on 70 % of Shaheen's nodes, Trinity's "administrator ability
to set system-wide and node-level power caps (available on all Cray XC
systems)", and the SLURM Dynamic Power Management KAUST co-developed
with SchedMD.  The defining property is that it is *out-of-band*: a
privileged controller that can read power and set caps or power nodes
on/off without involving the jobs.

This class is the functional equivalent: it wraps a
:class:`~repro.cluster.machine.Machine` and exposes exactly the CAPMC
verbs the surveyed policies use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import NodeState
from ..errors import PowerCapError
from . import kernels
from .model import NodePowerModel
from .vector import store_columns


class Capmc:
    """Out-of-band monitoring and control facade over one machine."""

    def __init__(self, machine: Machine, power_model: Optional[NodePowerModel] = None) -> None:
        self.machine = machine
        self.power_model = power_model or NodePowerModel()
        self._system_cap: Optional[float] = None

    # ------------------------------------------------------------------
    # Caps
    # ------------------------------------------------------------------
    def set_node_cap(self, node_ids: Iterable[int], cap_watts: Optional[float]) -> int:
        """Set (or clear) a per-node cap on the given nodes.

        Returns the number of nodes changed.  Mirrors
        ``capmc set_power_cap --nids ... --node <watts>``.
        """
        count = 0
        for nid in node_ids:
            self.machine.node(nid).set_power_cap(cap_watts)
            count += 1
        return count

    def set_system_cap(self, cap_watts: Optional[float]) -> None:
        """Set a system-wide cap, spread uniformly over powered nodes.

        The uniform spread is what vanilla CAPMC system capping does;
        smarter redistribution is the job of policies like Ellsworth's
        dynamic power sharing (see
        :mod:`repro.policies.power_sharing`).
        """
        self._system_cap = cap_watts
        if cap_watts is None:
            for node in self.machine.nodes:
                node.set_power_cap(None)
            return
        on_nodes = [n for n in self.machine.nodes if n.is_on]
        if not on_nodes:
            return
        per_node = cap_watts / len(on_nodes)
        floor = max(n.cap_floor for n in on_nodes)
        if per_node < floor:
            raise PowerCapError(
                f"system cap {cap_watts:.0f} W implies {per_node:.1f} W/node, "
                f"below the {floor:.1f} W enforceable floor"
            )
        for node in on_nodes:
            node.set_power_cap(per_node)

    @property
    def system_cap(self) -> Optional[float]:
        """Currently configured system-wide cap, if any."""
        return self._system_cap

    # ------------------------------------------------------------------
    # Node power on/off (used by provisioning policies)
    # ------------------------------------------------------------------
    def node_status(self) -> Dict[str, List[int]]:
        """Node ids grouped by state name (capmc ``node_status``)."""
        groups: Dict[str, List[int]] = {}
        for node in self.machine.nodes:
            groups.setdefault(node.state.value, []).append(node.node_id)
        return groups

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _node_watts(self, utilization: float) -> list:
        """Every node's draw with BUSY nodes at *utilization*, one kernel
        call over the store columns."""
        store = self.machine.store
        util = np.full(len(store), min(1.0, max(0.0, float(utilization))))
        return kernels.node_watts_np(
            *store_columns(store, self.power_model, util)
        ).tolist()

    def get_power(self, utilization: float = 1.0) -> float:
        """Instantaneous machine power (watts), summed over nodes.

        *utilization* is the assumed intensity of BUSY nodes when the
        caller has no per-job information (out-of-band reads don't).
        """
        return sum(self._node_watts(utilization), 0.0)

    def get_node_energy_counters(self, utilization: float = 1.0) -> Dict[int, float]:
        """Per-node instantaneous power (watts) keyed by node id."""
        return dict(enumerate(self._node_watts(utilization)))

    def powered_on_count(self) -> int:
        """Number of nodes consuming operational power."""
        return sum(1 for n in self.machine.nodes if n.is_on)

    def idle_nodes(self) -> List[int]:
        """Ids of nodes currently IDLE (candidates for shutdown)."""
        return [n.node_id for n in self.machine.nodes if n.state is NodeState.IDLE]
