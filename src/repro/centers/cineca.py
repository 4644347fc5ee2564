"""CINECA (Eurora / Marconi) scenario — Table II row 3.

Production: EPA job scheduling on Eurora with PBSPro (Altair
collaboration).  Research: scalable power monitoring feeding per-job
power prediction and node power/temperature models (University of
Bologna — the [9], [10] line).  The scenario runs prediction-gated
power-aware admission: a tag-history predictor learns each
application's draw and the admission policy holds the machine under a
budget using those predictions.
"""

from __future__ import annotations

from ..core.backfill import EasyBackfillScheduler
from ..core.simulation import ClusterSimulation
from ..policies.power_aware_admission import PowerAwareAdmissionPolicy
from ..policies.reporting import EnergyReportingPolicy
from ..prediction.power_predictor import TagHistoryPredictor
from ..units import DAY
from .base import CenterBuild, center_workload, standard_machine, standard_site


def build_simulation(
    seed: int = 0,
    duration: float = 2.0 * DAY,
    nodes: int = 128,
    budget_fraction: float = 0.8,
    with_thermal_research: bool = False,
) -> CenterBuild:
    """Assemble the CINECA scenario with learned-prediction admission.

    ``with_thermal_research`` additionally enables the University-of-
    Bologna research line from Table II: per-node temperature-evolution
    models driving predictive throttling
    (:class:`~repro.policies.thermal_aware.ThermalAwarePolicy`).
    """
    # Eurora: hybrid low-power prototype; modest node power.
    machine = standard_machine(
        "eurora", nodes=nodes, idle_power=70.0, max_power=260.0, seed=seed,
    )
    site = standard_site("cineca", machine, region="Europe")
    budget = machine.peak_power * budget_fraction
    predictor = TagHistoryPredictor(
        default_per_node_watts=machine.spec.max_power, ewma=0.3
    )
    admission = PowerAwareAdmissionPolicy(
        budget_watts=budget,
        estimator=predictor.predict,
        safety_margin=1.05,
    )
    # The estimator above is a bound method, invisible to repro.state's
    # attribute walk; exposing the predictor as a plain attribute lets
    # checkpoints capture its learned per-tag history and patch it back
    # in place on restore (the reporter closure below shares the same
    # object, so both sides see the restored state).
    admission.predictor = predictor

    class _LearningReporter(EnergyReportingPolicy):
        """Feed finished jobs' measured power back into the predictor."""

        name = "energy-reporting+learning"

        def on_job_end(self, job, now):  # noqa: D102 - see base
            super().on_job_end(job, now)
            run = job.run_time
            if run and run > 0:
                predictor.observe(job, job.energy_joules / run)

    policies = [admission, _LearningReporter()]
    notes = [
        f"prediction-gated admission under {budget / 1e3:.0f} kW "
        f"({budget_fraction:.0%} of peak), tag-history predictor",
    ]
    if with_thermal_research:
        from ..policies.thermal_aware import ThermalAwarePolicy

        policies.append(ThermalAwarePolicy(
            r_thermal=0.15, tau=300.0, t_max=85.0,
            throttle_frequency=machine.nodes[0].min_frequency,
        ))
        notes.append("UniBo research line: per-node thermal models "
                     "with predictive throttling")
    workload = center_workload("cineca", machine, duration=duration, seed=seed)
    simulation = ClusterSimulation(
        machine,
        EasyBackfillScheduler(),
        workload,
        policies=policies,
        site=site,
        seed=seed,
        cap_watts_for_metrics=budget,
    )
    build = CenterBuild("cineca", simulation, notes=notes)
    build.simulation.extra_predictor = predictor  # for tests/examples
    return build
