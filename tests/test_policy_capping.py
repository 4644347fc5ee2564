"""Tests for static capping, group caps and overprovisioning policies."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.core import ClusterSimulation, EasyBackfillScheduler, FcfsScheduler
from repro.errors import PolicyError
from repro.policies import (
    GroupCapPolicy,
    OverprovisioningPolicy,
    StaticCappingPolicy,
)
from tests.conftest import make_job

from . import power_oracles as oracle


def machine16():
    return Machine(MachineSpec(name="m", nodes=16,
                               idle_power=100.0, max_power=400.0))


class TestStaticCapping:
    def test_partition_sizes(self):
        machine = machine16()
        policy = StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.75)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        assert len(policy.capped_node_ids) == 12
        capped = [machine.node(i) for i in policy.capped_node_ids]
        assert all(n.power_cap == 270.0 for n in capped)
        uncapped = [n for n in machine.nodes if n.node_id not in policy.capped_node_ids]
        assert all(n.power_cap is None for n in uncapped)

    def test_kaust_numbers(self):
        machine = machine16()
        policy = StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.7)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        assert len(policy.capped_node_ids) == round(0.7 * 16)

    def test_worst_case_power_bound(self):
        machine = machine16()
        policy = StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.5)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        bound = policy.worst_case_power()
        assert bound == pytest.approx(8 * 270.0 + 8 * 400.0)
        assert bound < machine.peak_power

    def test_hungriest_nodes_capped_first(self):
        machine = machine16()
        machine.node(7).variability = 1.2  # hungriest
        policy = StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.1)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        assert 7 in policy.capped_node_ids

    def test_cap_below_floor_rejected(self):
        machine = machine16()
        policy = StaticCappingPolicy(cap_watts=50.0, capped_fraction=0.5)
        with pytest.raises(PolicyError):
            ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])

    def test_capped_jobs_run_slower(self):
        from repro.workload.phases import COMPUTE_BOUND

        def run(fraction):
            machine = machine16()
            job = make_job(work=100.0, walltime=10_000.0, profile=COMPUTE_BOUND)
            sim = ClusterSimulation(
                machine, FcfsScheduler(), [job],
                policies=[StaticCappingPolicy(cap_watts=250.0,
                                              capped_fraction=fraction)],
            )
            sim.run()
            return job.run_time

        assert run(1.0) > run(0.0)

    def test_zero_fraction_noop(self):
        machine = machine16()
        policy = StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.0)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        assert policy.capped_node_ids == []


class TestGroupCaps:
    def _policy(self):
        return GroupCapPolicy(
            {"a": range(0, 8), "b": range(8, 16)},
            caps_watts={"a": 8 * 300.0},
        )

    def test_caps_applied_at_attach(self):
        machine = machine16()
        policy = self._policy()
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        assert machine.node(0).power_cap == pytest.approx(300.0)
        assert machine.node(8).power_cap is None

    def test_set_and_clear_group_cap(self):
        machine = machine16()
        policy = self._policy()
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        policy.set_group_cap("b", 8 * 200.0)
        assert machine.node(8).power_cap == pytest.approx(200.0)
        policy.set_group_cap("a", None)
        assert machine.node(0).power_cap is None

    def test_overlapping_groups_rejected(self):
        with pytest.raises(PolicyError):
            GroupCapPolicy({"a": [0, 1], "b": [1, 2]})

    def test_empty_group_rejected(self):
        with pytest.raises(PolicyError):
            GroupCapPolicy({"a": []})

    def test_unknown_group(self):
        machine = machine16()
        policy = self._policy()
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        with pytest.raises(PolicyError):
            policy.set_group_cap("z", 100.0)

    def test_cap_below_floor_rejected(self):
        machine = machine16()
        policy = self._policy()
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        with pytest.raises(PolicyError):
            policy.set_group_cap("a", 8 * 50.0)

    def test_group_power_measured(self):
        machine = machine16()
        policy = self._policy()
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        # Idle machine: each group draws 8 x idle.
        assert policy.group_power("b") == pytest.approx(8 * 100.0)


class TestOverprovisioning:
    def test_operating_point_tradeoff(self):
        machine = machine16()
        policy = OverprovisioningPolicy(budget_watts=8 * 400.0, sensitivity=0.9)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        n, cap, score = policy.solve_operating_point()
        # With speed ~ f and power ~ f^2, running more nodes at lower
        # power beats 8 nodes at full power.
        assert n > 8
        assert cap < 400.0
        assert score > 8.0

    def test_scan_matches_the_scalar_spec(self):
        # The one-call kernel scan against the seed's per-n loop over
        # the scalar spec.
        machine = machine16()
        policy = OverprovisioningPolicy(budget_watts=7 * 400.0, sensitivity=0.8)
        sim = ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        model, node = sim.power_model, machine.nodes[0]
        p_min = oracle.power_at_ratio(model, node, 0.0)
        best = (1, node.effective_max_power, 0.0)
        for n in range(1, 17):
            cap = (policy.budget_watts - node.off_power * (16 - n)) / n
            if cap < p_min:
                break
            cap = min(cap, node.effective_max_power)
            ratio = oracle.frequency_for_cap(model, node, cap) / node.max_frequency
            score = n * model.speed_at_ratio(ratio, policy.sensitivity)
            if score > best[2]:
                best = (n, cap, score)
        n, cap, score = policy.solve_operating_point()
        assert n == best[0]
        assert cap == pytest.approx(best[1])
        assert score == pytest.approx(best[2])

    def test_generous_budget_uses_all_nodes(self):
        machine = machine16()
        policy = OverprovisioningPolicy(budget_watts=16 * 400.0)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        n, cap, _ = policy.solve_operating_point()
        assert n == 16
        assert cap == pytest.approx(400.0)

    def test_filter_limits_active_set(self):
        machine = machine16()
        policy = OverprovisioningPolicy(budget_watts=6 * 400.0, sensitivity=1.0)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        mask = policy.filter_rows(np.ones(len(machine.nodes), dtype=bool), 0.0)
        assert np.flatnonzero(mask).tolist() == list(range(policy.active_count))

    def test_throughput_beats_naive_under_budget(self):
        # Same budget, workload of parallel single-node jobs:
        # overprovisioning completes more work per unit time than
        # running fewer uncapped nodes.
        budget = 6 * 400.0

        def run(policies, allowed_nodes):
            machine = machine16()
            jobs = [
                make_job(job_id=f"j{i}", nodes=1, work=600.0, walltime=30_000.0)
                for i in range(32)
            ]
            sim = ClusterSimulation(
                machine, EasyBackfillScheduler(), jobs, policies=policies
            )
            result = sim.run()
            return result.metrics.makespan

        class NaiveLimit(OverprovisioningPolicy):
            """Budget honoured by limiting to 6 uncapped nodes."""

            def solve_operating_point(self):
                return 6, 400.0, 6.0

        over = run([OverprovisioningPolicy(budget_watts=budget,
                                           sensitivity=0.9)], None)
        naive = run([NaiveLimit(budget_watts=budget, sensitivity=0.9)], 6)
        assert over < naive
