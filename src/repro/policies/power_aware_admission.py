"""Generic power-aware admission control.

The simplest budget mechanism the related work describes ([9]-[11]):
"an orthogonal approach to achieving a system level power budget does
not limit the performance of the processing elements, but limits the
jobs concurrently running".  A job may start only if the machine's
predicted power including the new job stays under the budget; nothing
is ever slowed or killed.

The prediction can come from any estimator — nominal worst case by
default, or a learned per-job predictor from
:mod:`repro.prediction.power_predictor` (the CINECA line of work,
where prediction quality directly bounds how tight the budget can be
run).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.epa import FunctionalCategory
from ..units import check_positive
from ..workload.job import Job
from .base import Policy


class PowerAwareAdmissionPolicy(Policy):
    """Admit jobs only while predicted machine power fits a budget.

    Parameters
    ----------
    budget_watts:
        Machine power budget.
    estimator:
        ``f(job) -> watts`` predicting the job's *total* draw (its
        nodes at its intensity).  Defaults to the nominal worst case
        from the power model.
    safety_margin:
        Multiplier applied to estimates (>1 = conservative); CINECA's
        prediction-based scheduling runs with a small margin to absorb
        prediction error.
    """

    name = "power-admission"

    def __init__(
        self,
        budget_watts: float,
        estimator: Optional[Callable[[Job], float]] = None,
        safety_margin: float = 1.0,
    ) -> None:
        super().__init__()
        self.budget_watts = check_positive("budget_watts", budget_watts)
        self._estimator = estimator
        self.safety_margin = check_positive("safety_margin", safety_margin)
        self.vetoes = 0

    def estimate(self, job: Job) -> float:
        """The (margin-adjusted) power estimate used for admission."""
        if self._estimator:
            raw = self._estimator(job)
        else:
            raw = self.simulation.power_vector.job_power(
                job.nodes, job.mean_power_intensity, full=True
            )
        job.power_estimate = raw
        return raw * self.safety_margin

    def admit(self, job: Job, now: float) -> bool:
        current = self.simulation.machine_power()
        # The job's nodes already draw idle power; only the delta counts.
        idle_part = self.simulation.power_vector.job_power(job.nodes, 0.0, full=True)
        delta = max(0.0, self.estimate(job) - idle_part)
        if current + delta > self.budget_watts:
            self.vetoes += 1
            return False
        return True

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "power-admission",
                FunctionalCategory.RESOURCE_CONTROL,
                f"limit concurrent jobs to fit "
                f"{self.budget_watts / 1e3:.0f} kW (prediction-gated)",
            ),
            (
                "power-budget-enforcement",
                FunctionalCategory.POWER_CONTROL,
                "machine power held under budget by admission alone "
                "(no throttling)",
            ),
        ]
