"""Multi-system site simulation: inter-system power budget sharing.

Two surveyed behaviours are inherently *inter-system*:

* Tokyo Tech (tech development): "Inter-system power capping.
  TSUBAME2 and TSUBAME3 will need to share the facility power budget";
* CEA (production): "Manually shutting down nodes to shift power
  budget between systems".

A :class:`SiteSimulation` runs several :class:`ClusterSimulation`
instances on **one shared event engine**, and a
:class:`BudgetCoordinator` periodically re-divides the facility power
budget among them proportionally to demand (queue backlog + running
draw), resizing each machine's :class:`~repro.power.budget.PowerBudget`
slice and steering each machine's enforcement policy.

The per-machine enforcement hook is deliberately generic: the
coordinator calls ``set_budget(watts)`` on any attached policy that
has it (``DvfsBudgetPolicy``, ``PowerAwareAdmissionPolicy``,
``DynamicProvisioningPolicy``, ``DynamicPowerSharingPolicy`` all
expose a ``budget_watts``/``cap_watts`` attribute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..power.budget import PowerBudget
from ..simulator.engine import Simulator
from ..simulator.events import EventPriority
from ..units import check_positive
from .simulation import ClusterSimulation, SimulationResult


def _policy_budget_attr(policy) -> Optional[str]:
    """The attribute carrying a policy's steerable budget, if any."""
    for attr in ("budget_watts", "cap_watts", "limit_watts"):
        if hasattr(policy, attr):
            return attr
    return None


@dataclass
class MachineSlice:
    """One machine's share of the site budget."""

    simulation: ClusterSimulation
    budget: PowerBudget
    #: Minimum watts this machine must keep (its idle floor by default).
    floor_watts: float = 0.0


class BudgetCoordinator:
    """Demand-proportional division of a site budget among machines.

    Demand per machine = current draw + the nominal draw of its queue
    backlog (bounded lookahead).  Each machine keeps at least its
    floor; the surplus follows demand.  Every reallocation resizes the
    budget tree (validating the invariant) and pushes the new limit
    into each machine's steerable policies.
    """

    def __init__(
        self,
        site_budget: PowerBudget,
        slices: Sequence[MachineSlice],
        interval: float = 600.0,
    ) -> None:
        if not slices:
            raise ConfigurationError("coordinator needs at least one machine")
        self.site_budget = site_budget
        self.slices = list(slices)
        self.interval = check_positive("interval", interval)
        self.reallocations = 0

    # ------------------------------------------------------------------
    def _demand(self, sl: MachineSlice) -> float:
        simulation = sl.simulation
        draw = simulation.machine_power()
        backlog = sum(
            job.nodes for job in simulation.queue.pending()[:16]
        )
        return draw + simulation.power_vector.job_power(backlog, 1.0)

    def reallocate(self, now: float) -> Dict[str, float]:
        """Re-divide the site budget; returns machine -> new watts.

        The division is always feasible: with zero total demand (an
        all-idle site) the surplus splits evenly, and floors that no
        longer fit the envelope (e.g. the coordinator was built with
        floors exceeding the site budget) are scaled down
        proportionally — never below a slice's committed watts — so
        :meth:`PowerBudget.resize` cannot raise mid-simulation.
        """
        limit = self.site_budget.limit_watts
        committed = [sl.budget.committed for sl in self.slices]
        floors = [max(sl.floor_watts, c, 1.0)
                  for sl, c in zip(self.slices, committed)]
        total_floor = sum(floors)
        if total_floor > limit:
            # Infeasible floors: shrink the scalable part (floor minus
            # committed) of every slice by one common factor.
            scalable = [f - c for f, c in zip(floors, committed)]
            total_scalable = sum(scalable)
            avail = max(0.0, limit - sum(committed))
            scale = avail / total_scalable if total_scalable > 0 else 0.0
            floors = [c + s * scale for c, s in zip(committed, scalable)]
            total_floor = sum(floors)
        surplus = max(0.0, limit - total_floor)
        demands = [max(0.0, self._demand(sl) - floor)
                   for sl, floor in zip(self.slices, floors)]
        total_demand = sum(demands)

        targets = []
        for floor, demand in zip(floors, demands):
            share = (surplus * demand / total_demand
                     if total_demand > 0 else surplus / len(self.slices))
            targets.append(floor + share)

        # Apply shrinks first so grows have headroom in the tree.
        order = sorted(
            range(len(self.slices)),
            key=lambda i: targets[i] - self.slices[i].budget.limit_watts,
        )
        out: Dict[str, float] = {}
        for i in order:
            sl = self.slices[i]
            target = max(targets[i], 1e-6)
            # Clamp to what the tree can actually grant: float error in
            # the proportional division must not trip resize().
            grantable = sl.budget.limit_watts + self.site_budget.headroom
            target = max(min(target, grantable), sl.budget.committed)
            sl.budget.resize(target)
            out[sl.simulation.machine.name] = target
            for policy in sl.simulation.policies:
                attr = _policy_budget_attr(policy)
                if attr is not None:
                    setattr(policy, attr, target)
        self.site_budget.validate()
        self.reallocations += 1
        return out


class SiteSimulation:
    """Several machines, one event engine, one facility budget.

    Parameters
    ----------
    simulations:
        ClusterSimulations built with a **shared** ``sim`` (and
        optionally a shared trace).  Construction order defines the
        budget-tree order.
    site_budget_watts:
        The facility envelope to divide.
    coordinator_interval:
        Reallocation period, seconds (None disables coordination, for
        uncoordinated baselines).
    """

    def __init__(
        self,
        simulations: Sequence[ClusterSimulation],
        site_budget_watts: float,
        coordinator_interval: Optional[float] = 600.0,
    ) -> None:
        simulations = list(simulations)
        if len(simulations) < 1:
            raise ConfigurationError("need at least one simulation")
        engines = {id(s.sim) for s in simulations}
        if len(engines) != 1:
            raise ConfigurationError(
                "all simulations must share one Simulator (pass sim=...)"
            )
        names = [s.machine.name for s in simulations]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate machine names: {names}")
        self.simulations = simulations
        self.sim: Simulator = simulations[0].sim

        check_positive("site_budget_watts", site_budget_watts)
        floor_total = sum(s.machine.idle_floor_power for s in simulations)
        if site_budget_watts < floor_total:
            raise ConfigurationError(
                f"site budget {site_budget_watts:.0f} W below the combined "
                f"idle floor {floor_total:.0f} W"
            )

        self.site_budget = PowerBudget("site", site_budget_watts)
        self.slices: List[MachineSlice] = []
        equal = site_budget_watts / len(simulations)
        for simulation in simulations:
            child = self.site_budget.subdivide(
                simulation.machine.name, equal
            )
            self.slices.append(
                MachineSlice(
                    simulation,
                    child,
                    floor_watts=simulation.machine.idle_floor_power,
                )
            )

        self.coordinator: Optional[BudgetCoordinator] = None
        if coordinator_interval is not None:
            self.coordinator = BudgetCoordinator(
                self.site_budget, self.slices, coordinator_interval
            )

    # ------------------------------------------------------------------
    def site_power(self) -> float:
        """Combined instantaneous IT power of all machines."""
        return sum(s.machine_power() for s in self.simulations)

    def _push_budgets(self) -> None:
        """Install each slice's current limit into its machine's
        steerable policies (static splits are still enforced splits)."""
        for sl in self.slices:
            for policy in sl.simulation.policies:
                attr = _policy_budget_attr(policy)
                if attr is not None:
                    setattr(policy, attr, sl.budget.limit_watts)

    def run(
        self,
        until: Optional[float] = None,
        stall_timeout: float = 30.0 * 86400.0,
    ) -> List[SimulationResult]:
        """Drive the shared loop; returns one result per machine."""
        for simulation in self.simulations:
            simulation.prepare()
        self._push_budgets()
        if self.coordinator is not None:
            self.coordinator.reallocate(self.sim.now)
            self.sim.every(
                self.coordinator.interval,
                lambda: self.coordinator.reallocate(self.sim.now),
                priority=EventPriority.CONTROL,
                name="site-budget-coordinator",
            )
        if until is not None:
            self.sim.run(until=until)
        else:
            last_progress = -1
            last_progress_time = self.sim.now
            while not all(s.all_jobs_terminal for s in self.simulations):
                if not self.sim.step():
                    break
                progress = sum(s.progress_count for s in self.simulations)
                if progress != last_progress:
                    last_progress = progress
                    last_progress_time = self.sim.now
                elif self.sim.now - last_progress_time > stall_timeout:
                    break
        return [s.finalize() for s in self.simulations]
