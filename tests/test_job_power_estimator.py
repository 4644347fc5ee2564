"""One job-power estimator prices every unplaced job.

``VectorPowerMirror.job_power`` reads the store's nominal ``(idle,
dyn)`` pair: the first row with the largest ``max_power -
idle_power``.  On a homogeneous machine that is row 0 and both forms
equal the node-0 expressions float for float, so every stock
fingerprint holds.  On a machine with unequal nodes the price follows
the hungriest spec wherever it sits, not whichever node is row 0.
"""

from __future__ import annotations

import pytest

from repro.centers.base import standard_machine
from repro.cluster import Machine, MachineSpec, Node
from repro.core import ClusterSimulation, FcfsScheduler
from repro.policies import PowerAwareAdmissionPolicy, SiteBudgetPolicy
from repro.workload.phases import COMPUTE_BOUND, MEMORY_BOUND
from tests.conftest import make_job

CHEAP = dict(idle_power=50.0, max_power=150.0)
HUNGRY = dict(idle_power=100.0, max_power=400.0)


def two_spec_machine() -> Machine:
    """Four cheap nodes at rows 0-3, four hungry ones at rows 4-7."""
    nodes = [Node(i, **(CHEAP if i < 4 else HUNGRY)) for i in range(8)]
    return Machine(MachineSpec(name="mixed", nodes=8, nodes_per_cabinet=4), nodes=nodes)


def attach(machine: Machine, policy) -> ClusterSimulation:
    return ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])


class TestHomogeneousPricesUnchanged:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_both_forms_equal_the_row0_expressions(self, seed):
        machine = standard_machine("m", nodes=32, idle_power=95.0, max_power=340.0,
                                   seed=seed)
        mirror = attach(machine, SiteBudgetPolicy()).power_vector
        node = machine.nodes[0]
        assert machine.store.nominal_row == 0
        for nodes in (1, 3, 17, 32):
            for intensity in (0.0, 0.37, 0.6180339887, 1.0):
                delta = nodes * (node.max_power - node.idle_power) * intensity
                full = nodes * (
                    node.idle_power + (node.max_power - node.idle_power) * intensity
                )
                assert mirror.job_power(nodes, intensity) == delta
                assert mirror.job_power(nodes, intensity, full=True) == full
                assert type(mirror.job_power(nodes, intensity)) is float
        # The idle part the admission gates credit back.
        assert mirror.job_power(7, 0.0, full=True) == 7 * node.idle_power


class TestHeterogeneousPricing:
    def test_nominal_pair_comes_from_the_hungriest_spec(self):
        machine = two_spec_machine()
        assert machine.store.nominal_row == 4
        assert machine.store.nominal == (100.0, 300.0)
        # A plain column write re-prices the machine.
        machine.nodes[6].max_power = 600.0
        assert machine.store.nominal_row == 6
        assert machine.store.nominal == (100.0, 500.0)

    def test_site_budget_prices_from_the_hungry_spec(self):
        machine = two_spec_machine()
        policy = SiteBudgetPolicy(limit_watts=1e9)
        simulation = attach(machine, policy)
        job = make_job(nodes=2, profile=COMPUTE_BOUND)
        intensity = job.mean_power_intensity
        idle_draw = simulation.machine_power()
        assert idle_draw == 4 * 50.0 + 4 * 100.0
        # Room for two cheap nodes' delta, not for two hungry ones'.
        policy.limit_watts = idle_draw + 2 * 200.0 * intensity
        assert not policy.admit(job, 0.0)
        policy.limit_watts = idle_draw + 2 * 300.0 * intensity
        assert policy.admit(job, 0.0)

    def test_power_admission_prices_from_the_hungry_spec(self):
        machine = two_spec_machine()
        policy = PowerAwareAdmissionPolicy(budget_watts=1e9)
        simulation = attach(machine, policy)
        job = make_job(nodes=2, profile=MEMORY_BOUND)
        intensity = job.mean_power_intensity
        idle_draw = simulation.machine_power()
        delta = 2 * 300.0 * intensity
        policy.budget_watts = idle_draw + delta - 1.0
        assert not policy.admit(job, 0.0)
        # The estimate is the hungry spec's full draw, idle included,
        # and only its delta over the hungry idle counts against the
        # budget.
        assert job.power_estimate == 2 * (100.0 + 300.0 * intensity)
        policy.budget_watts = idle_draw + delta + 1e-6
        assert policy.admit(job, 0.0)
