"""Broker-steerable facility power budget for a federated site.

The federation's :class:`~repro.federation.broker.GlobalBroker` sends
each site a power-budget directive every coordination epoch; this
policy is the site-local enforcement half.  It follows the survey's
fine/coarse split: an admission gate vetoes starts that would exceed
the budget (coarse), and per-node caps squeeze the carried-over load
under it (fine).  The steerable attribute is named ``limit_watts`` so
the :mod:`repro.core.multi` budget-coordinator convention
(``_policy_budget_attr``) applies unchanged.

With an infinite limit the policy is inert — the broker-off baseline
runs the identical policy stack, so cost deltas measure coordination,
not configuration.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..core.epa import FunctionalCategory
from ..units import check_positive
from ..workload.job import Job
from .base import Policy


class SiteBudgetPolicy(Policy):
    """Hold the machine under an externally steered power budget.

    Parameters
    ----------
    limit_watts:
        The current budget (infinite = unconstrained).  Reassigned by
        the federation campaign between epochs.
    check_interval:
        Control-loop period, seconds.
    cap_nodes:
        Apply per-node power caps while a finite budget is in force
        (cleared when the budget lifts).
    """

    name = "site-budget"

    def __init__(
        self,
        limit_watts: float = float("inf"),
        check_interval: float = 300.0,
        cap_nodes: bool = True,
    ) -> None:
        super().__init__()
        if limit_watts <= 0:
            raise ValueError("limit_watts must be positive")
        self.limit_watts = limit_watts
        self.control_interval = check_positive("check_interval", check_interval)
        self.cap_nodes = cap_nodes
        self.vetoes = 0
        self._caps_applied = False

    # ------------------------------------------------------------------
    def admit(self, job: Job, now: float) -> bool:
        if math.isinf(self.limit_watts):
            return True
        simulation = self.simulation
        current = simulation.machine_power()
        delta = simulation.power_vector.job_power(job.nodes, job.mean_power_intensity)
        if current + delta > self.limit_watts:
            self.vetoes += 1
            return False
        return True

    def on_tick(self, now: float) -> None:
        if math.isinf(self.limit_watts):
            if self._caps_applied:
                machine = self.simulation.machine
                self.simulation.rm.set_power_cap(machine.nodes, None)
                self._caps_applied = False
            return
        if not self.cap_nodes:
            return
        if self._cap_powered_nodes(self.limit_watts):
            self._caps_applied = True

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "site-budget-gate",
                FunctionalCategory.RESOURCE_CONTROL,
                "veto job starts above the federated power budget",
            ),
            (
                "site-budget-caps",
                FunctionalCategory.POWER_CONTROL,
                "per-node caps enforcing the broker's epoch directive",
            ),
        ]
