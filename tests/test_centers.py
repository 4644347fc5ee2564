"""Tests for the executable center scenarios.

Each scenario must run and exhibit its Table-I/II signature behaviour.
Runs are kept short (small machines, few hours) so the whole module
stays fast.
"""

import pytest

from repro.centers import build_center_simulation, center_slugs
from repro.errors import SurveyError
from repro.survey.data import all_center_slugs
from repro.units import HOUR


@pytest.fixture(scope="module")
def center_results():
    """Run every center once (module-scoped: they are not cheap)."""
    results = {}
    for slug in center_slugs():
        build = build_center_simulation(slug, seed=3, duration=4 * HOUR,
                                        nodes=48)
        results[slug] = (build, build.simulation.run())
    return results


class TestRegistry:
    def test_registry_matches_survey(self):
        assert center_slugs() == all_center_slugs()

    def test_unknown_center(self):
        with pytest.raises(SurveyError):
            build_center_simulation("olympus")


class TestAllCentersRun:
    @pytest.mark.parametrize("slug", [
        "riken", "tokyotech", "cea", "kaust", "lrz",
        "stfc", "trinity", "cineca", "jcahpc",
    ])
    def test_center_completes_work(self, center_results, slug):
        build, result = center_results[slug]
        metrics = result.metrics
        assert metrics.jobs_submitted > 0
        # The vast majority of work finishes in every scenario.
        assert metrics.jobs_completed >= 0.5 * metrics.jobs_submitted
        assert metrics.total_energy_joules > 0
        assert build.notes  # every scenario documents itself

    @pytest.mark.parametrize("slug", [
        "riken", "tokyotech", "cea", "kaust", "lrz",
        "trinity", "cineca", "jcahpc",
    ])
    def test_epa_registry_complete(self, center_results, slug):
        build, _ = center_results[slug]
        # Figure 1: every deployed solution covers monitor+control of
        # both resources and power (the baseline registers monitoring;
        # policies add control).
        assert build.simulation.epa.is_complete

    def test_stfc_registry_lacks_power_control(self, center_results):
        # STFC's production row is monitoring-only (Table II): its EPA
        # registry accurately shows the power-control gap.
        build, _ = center_results["stfc"]
        from repro.core.epa import FunctionalCategory

        coverage = build.simulation.epa.coverage()
        assert not coverage[FunctionalCategory.POWER_CONTROL]
        assert coverage[FunctionalCategory.POWER_MONITORING]


class TestSignatures:
    def test_kaust_partition(self, center_results):
        build, result = center_results["kaust"]
        machine = build.simulation.machine
        capped = [n for n in machine.nodes if n.power_cap == 270.0]
        assert len(capped) == round(0.7 * len(machine))

    def test_tokyotech_runs_summer_provisioning(self, center_results):
        build, result = center_results["tokyotech"]
        # The scenario starts mid-summer: the seasonal policy is live.
        policy = build.simulation.policies[0]
        assert policy.summer_only
        assert policy._active(build.simulation.sim.now)
        # No job was ever killed (the cooperative guarantee).
        assert result.metrics.jobs_killed == 0

    def test_cea_maintenance_respected(self, center_results):
        build, result = center_results["cea"]
        site = build.simulation.site
        affected = site.facility.nodes_of_component("chiller0")
        # Jobs that ran during the maintenance window avoided the
        # dependent nodes.
        window = site.facility.maintenance[0]
        for job in result.jobs:
            if job.start_time is None:
                continue
            if window.start <= job.start_time < window.end:
                assert not (set(job.assigned_nodes) & affected), job.job_id

    def test_riken_emergency_policy_armed(self, center_results):
        build, result = center_results["riken"]
        policy = build.simulation.policies[0]
        assert policy.limit_watts < build.simulation.machine.peak_power
        # Pre-run estimates recorded on started jobs.
        started = [j for j in result.jobs if j.start_time is not None]
        assert any(j.power_estimate is not None for j in started)

    def test_lrz_characterizes_tags(self, center_results):
        build, result = center_results["lrz"]
        policy = build.simulation.policies[0]
        assert len(policy.characterized_tags) > 0

    def test_stfc_monitoring_only(self, center_results):
        build, result = center_results["stfc"]
        machine = build.simulation.machine
        # No caps, no DVFS, no shutdowns: pure monitoring.
        assert all(n.power_cap is None for n in machine.nodes)
        assert build.simulation.rm.shutdowns_initiated == 0
        assert result.meter.num_samples > 100

    def test_trinity_admin_cap_applied(self, center_results):
        build, result = center_results["trinity"]
        machine = build.simulation.machine
        # After the run the admin cap is in force on every node.
        assert all(n.power_cap is not None for n in machine.nodes)

    def test_cineca_predictor_learned(self, center_results):
        build, result = center_results["cineca"]
        predictor = build.simulation.extra_predictor
        assert predictor.observations > 0

    def test_jcahpc_groups_capped(self, center_results):
        build, result = center_results["jcahpc"]
        machine = build.simulation.machine
        assert all(n.power_cap is not None for n in machine.nodes)
        group_policy = build.simulation.policies[0]
        assert group_policy.cap_changes >= len(group_policy.groups)

    def test_energy_reports_delivered(self, center_results):
        # Tokyo Tech and JCAHPC deliver post-job reports.
        for slug in ("tokyotech", "jcahpc"):
            build, result = center_results[slug]
            reporting = [p for p in build.simulation.policies
                         if p.name.startswith("energy-reporting")]
            assert reporting
            assert len(reporting[0].reports) > 0


class TestResearchLines:
    """The optional research-line flags from Tables I/II."""

    def test_cineca_thermal_research_flag(self):
        build = build_center_simulation(
            "cineca", seed=3, duration=2 * HOUR, nodes=32,
            with_thermal_research=True,
        )
        result = build.simulation.run()
        thermal = [p for p in build.simulation.policies
                   if p.name == "thermal-aware"]
        assert thermal
        assert thermal[0].models  # per-node models exist
        assert result.metrics.jobs_completed > 0

    def test_lrz_cooling_research_flag(self):
        build = build_center_simulation(
            "lrz", seed=3, duration=2 * HOUR, nodes=32,
            with_cooling_research=True,
        )
        result = build.simulation.run()
        cooling = [p for p in build.simulation.policies
                   if p.name == "cooling-aware"]
        assert cooling
        assert result.metrics.jobs_completed > 0


class TestLayoutFilterPin:
    """CEA's layout logic is the stock node filter: every CEA pass
    withholds the nodes behind the chiller that goes into maintenance.
    A seed-1 run to 4 h is pinned to the number of available nodes the
    filter withheld, summed over passes, and to the literal result
    fingerprint."""

    def test_cea_seed1_4h_pinned(self):
        from repro.centers import cea
        from repro.policies.layout_aware import LayoutAwarePolicy
        from repro.state.fingerprint import result_fingerprint

        build = cea.build_simulation(seed=1)
        result = build.simulation.run(until=4 * HOUR)
        (layout,) = [
            p for p in build.simulation.policies
            if isinstance(p, LayoutAwarePolicy)
        ]
        assert layout.withheld_node_passes == 2486
        assert result_fingerprint(result) == (
            "749a44191c09b23cf10218a0f2583bb54ecea4fa2ad4f276533e2d1b6fc3480a"
        )
