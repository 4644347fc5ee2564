"""Emergency power enforcement — RIKEN's production deployment.

Table I, RIKEN production: "Automated emergency job killing if power
limit exceeded" and "Pre-run estimate of power usage of each job,
based on temperature".  The policy has two parts:

* an **admission gate**: before a job starts, its power is estimated
  (by default with a temperature-sensitive estimator — chips leak and
  fans spin harder when the machine room is hot) and the start is
  vetoed if the estimate would break the limit;
* an **emergency loop**: if measured power stays above the hard limit
  for longer than a grace period, running jobs are killed —
  highest-power first — until the machine is back under the limit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.epa import FunctionalCategory
from ..units import check_non_negative, check_positive
from ..workload.job import Job
from .base import Policy


def temperature_aware_estimator(policy: "EmergencyPowerPolicy") -> Callable[[Job, float], float]:
    """RIKEN-style estimator: nominal job power scaled by ambient.

    Power estimates grow ~0.5 %/°C above 20 °C (leakage + cooling
    fans), matching the survey's "based on temperature" phrasing.
    """

    def estimate(job: Job, now: float) -> float:
        nominal = policy.simulation.power_vector.job_power(
            job.nodes, job.mean_power_intensity, full=True
        )
        site = policy.simulation.site
        if site is not None:
            ambient = site.ambient.temperature(now)
            nominal *= 1.0 + 0.005 * max(0.0, ambient - 20.0)
        return nominal

    return estimate


class EmergencyPowerPolicy(Policy):
    """Hard power limit with prediction gate and emergency kills.

    Parameters
    ----------
    limit_watts:
        The hard machine power limit.
    grace_period:
        Seconds the limit may be exceeded before kills begin (real
        contracts meter over minutes, not instants).
    check_interval:
        Control-loop period.
    estimator:
        ``f(job, now) -> watts`` pre-run estimate; defaults to the
        temperature-aware estimator.
    gate_enabled:
        Set False to disable the admission gate (ablation: kills only).
    """

    name = "emergency-power"

    def __init__(
        self,
        limit_watts: float,
        grace_period: float = 300.0,
        check_interval: float = 60.0,
        estimator: Optional[Callable[[Job, float], float]] = None,
        gate_enabled: bool = True,
    ) -> None:
        super().__init__()
        self.limit_watts = check_positive("limit_watts", limit_watts)
        self.grace_period = check_non_negative("grace_period", grace_period)
        self.control_interval = check_positive("check_interval", check_interval)
        self._estimator = estimator
        self.gate_enabled = gate_enabled
        self.kills = 0
        self.vetoes = 0
        self._over_since: Optional[float] = None

    def on_attach(self) -> None:
        if self._estimator is None:
            self._estimator = temperature_aware_estimator(self)

    # ------------------------------------------------------------------
    def estimate_job_power(self, job: Job, now: float) -> float:
        """The pre-run power estimate recorded on the job."""
        watts = self._estimator(job, now)
        job.power_estimate = watts
        return watts

    def admit(self, job: Job, now: float) -> bool:
        if not self.gate_enabled:
            return True
        current = self.simulation.machine_power()
        estimate = self.estimate_job_power(job, now)
        # The job's nodes currently draw idle power; count the delta.
        idle_already = self.simulation.power_vector.job_power(job.nodes, 0.0, full=True)
        if current + max(0.0, estimate - idle_already) > self.limit_watts:
            self.vetoes += 1
            return False
        return True

    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        power = self.simulation.machine_power()
        if power <= self.limit_watts:
            self._over_since = None
            return
        if self._over_since is None:
            self._over_since = now
        if now - self._over_since < self.grace_period:
            return
        # Emergency: kill the hungriest jobs until under the limit.
        running = self.simulation.running_jobs()
        running.sort(
            key=lambda j: self.simulation.job_power(j.job_id), reverse=True
        )
        for job in running:
            if power <= self.limit_watts:
                break
            job_watts = self.simulation.job_power(job.job_id)
            if self.simulation.kill_job(job.job_id, "emergency power limit"):
                self.kills += 1
                power -= job_watts
        self._over_since = None

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "power-limit-monitor",
                FunctionalCategory.POWER_MONITORING,
                f"watch machine power vs {self.limit_watts / 1e3:.0f} kW limit",
            ),
            (
                "emergency-kill",
                FunctionalCategory.POWER_CONTROL,
                "automated job killing on sustained limit excess",
            ),
            (
                "pre-run-estimate",
                FunctionalCategory.RESOURCE_CONTROL,
                "temperature-based per-job power estimate gating starts",
            ),
        ]
