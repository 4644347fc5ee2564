"""Dynamic power sharing — Ellsworth et al. (SC'15, [17]).

Under a fixed machine budget, a *uniform* per-node cap wastes watts:
memory-bound jobs never reach their cap while compute-bound jobs are
throttled.  Ellsworth's scheme periodically re-divides the budget:
each node gets at least a floor, and the surplus is redistributed
proportionally to measured demand (what each node would draw
uncapped), optionally weighted by job priority ("give more power to
the nodes which run critical jobs").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cluster.node import STATE_CODES, NodeState
from ..core.epa import FunctionalCategory
from ..errors import PolicyError
from ..units import check_positive
from .base import Policy

_BUSY = STATE_CODES[NodeState.BUSY]


class DynamicPowerSharingPolicy(Policy):
    """Periodically redistribute a machine power budget across nodes.

    Parameters
    ----------
    budget_watts:
        Total budget to divide among powered nodes.
    check_interval:
        Redistribution period, seconds.
    priority_weight:
        Extra demand weight per unit of job priority (0 disables
        priority awareness).
    """

    name = "dynamic-power-sharing"

    def __init__(
        self,
        budget_watts: float,
        check_interval: float = 300.0,
        priority_weight: float = 0.0,
    ) -> None:
        super().__init__()
        self.budget_watts = check_positive("budget_watts", budget_watts)
        self.control_interval = check_positive("check_interval", check_interval)
        self.priority_weight = float(priority_weight)
        self.redistributions = 0

    def on_attach(self) -> None:
        machine = self.simulation.machine
        floor = sum(n.cap_floor for n in machine.nodes)
        if self.budget_watts < floor:
            raise PolicyError(
                f"budget {self.budget_watts:.0f} W below the machine's "
                f"idle floor {floor:.0f} W"
            )
        self.on_tick(self.sim.now)

    # ------------------------------------------------------------------
    def _node_terms(self) -> Dict[int, Tuple[float, float]]:
        """Per powered node: (guaranteed base watts, extra demand).

        The base is what the node draws that DVFS cannot remove: idle
        power for non-busy nodes, minimum-frequency power for busy
        ones.  The extra demand is the gap from the base to the
        uncapped draw, weighted by job priority.
        """
        store = self.simulation.machine.store
        mirror = self.simulation.power_vector
        rows = store.powered_rows()
        busy_rows = rows[store.state_code[rows] == _BUSY]
        # Min-frequency and uncapped draw of every busy node in one
        # kernel call each, at its bound job's intensity (full when
        # unbound).
        intensity = mirror.utilization[busy_rows]
        min_ratio = store.min_frequency[busy_rows] / store.max_frequency[busy_rows]
        bases = mirror.power_at_ratio(busy_rows, min_ratio, intensity).tolist()
        uncapped = mirror.power_at_ratio(busy_rows, 1.0, intensity).tolist()
        busy = dict(zip(busy_rows.tolist(), zip(bases, uncapped)))
        terms: Dict[int, Tuple[float, float]] = {}
        for nid, floor in zip(rows.tolist(), store.idle_power[rows].tolist()):
            if nid not in busy:
                terms[nid] = (floor, 0.0)
                continue
            base, full = busy[nid]
            weight = 1.0
            if self.priority_weight > 0.0:
                execution = self.simulation.execution_on(nid)
                if execution is not None:
                    weight += self.priority_weight * max(0, execution.job.priority)
            terms[nid] = (base, max(0.0, full - base) * weight)
        return terms

    def redistribute(self, now: float) -> None:
        """Re-divide the budget across powered nodes right now."""
        machine = self.simulation.machine
        rm = self.simulation.rm
        terms = self._node_terms()
        if not terms:
            return
        base_total = sum(base for base, _ in terms.values())
        surplus = max(0.0, self.budget_watts - base_total)
        total_demand = sum(demand for _, demand in terms.values())

        for nid, (base, demand) in terms.items():
            node = machine.node(nid)
            if total_demand > 0:
                share = surplus * demand / total_demand
            else:
                share = surplus / len(terms)
            cap = min(base + share, node.effective_max_power)
            cap = max(cap, node.cap_floor)
            rm.set_power_cap([node], cap)
        self.redistributions += 1

    def on_tick(self, now: float) -> None:
        self.redistribute(now)

    def on_job_start(self, job, now: float) -> None:
        # Scheduler-integrated redistribution: caps follow the running
        # set immediately, not only at the next periodic tick.
        self.redistribute(now)

    def on_job_end(self, job, now: float) -> None:
        self.redistribute(now)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "power-sharing",
                FunctionalCategory.POWER_CONTROL,
                f"redistribute {self.budget_watts / 1e3:.0f} kW budget "
                f"by demand every {self.control_interval:.0f}s",
            )
        ]
