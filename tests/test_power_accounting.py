"""Incremental machine power accounting vs the ground-truth full sum.

``ClusterSimulation.machine_power()`` maintains a running watts total
updated by per-row deltas: every writer of the machine's node store
(transitions, caps, frequencies, plain field writes) and every job
(un)binding marks its rows dirty, and the fold consumes them.  Every
test here mutates the machine through a different control surface and
asserts the accumulator equals a freshly computed all-nodes sum.
"""

from __future__ import annotations

import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import ClusterSimulation, FcfsScheduler
from repro.policies.dvfs_budget import DvfsBudgetPolicy
from repro.power.capmc import Capmc
from tests.conftest import make_job
from tests.power_oracles import simulation_watts


def full_sum(csim: ClusterSimulation) -> float:
    """Ground truth: re-derive the machine draw node by node."""
    return simulation_watts(csim)


def fresh(jobs=(), nodes=16, **kwargs):
    machine = Machine(MachineSpec(name="acc", nodes=nodes, nodes_per_cabinet=4))
    return ClusterSimulation(machine, FcfsScheduler(), list(jobs), **kwargs)


class TestIncrementalPowerAccounting:
    def test_initial_sum_matches(self):
        csim = fresh()
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_rm_power_caps_tracked(self):
        csim = fresh()
        csim.machine_power()  # seed the accumulator
        csim.rm.set_power_cap(csim.machine.nodes[:5], 120.0)
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.rm.set_power_cap(csim.machine.nodes[:5], None)
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_rm_frequency_tracked(self):
        csim = fresh()
        csim.machine_power()
        node = csim.machine.nodes[0]
        csim.rm.set_frequency(csim.machine.nodes[:3], node.min_frequency)
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_boot_and_shutdown_cycle_tracked(self, sim=None):
        csim = fresh()
        csim.machine_power()
        nodes = csim.machine.nodes[:4]
        csim.rm.shutdown_nodes(nodes)
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.sim.run(until=1000.0)  # let the shutdowns complete
        assert nodes[0].state is NodeState.OFF
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.rm.boot_nodes(nodes)
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.sim.run(until=2000.0)
        assert nodes[0].state is NodeState.IDLE
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_drain_undrain_tracked(self):
        csim = fresh()
        csim.machine_power()
        node = csim.machine.nodes[7]
        csim.rm.drain_node(node)
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.rm.undrain_node(node)
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_out_of_band_capmc_tracked(self):
        # Capmc writes node caps directly, bypassing the RM — the store
        # still marks the rows dirty.
        csim = fresh()
        csim.machine_power()
        capmc = Capmc(csim.machine, csim.power_model)
        capmc.set_node_cap(range(6), 150.0)
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        capmc.set_system_cap(16 * 200.0)
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_job_lifecycle_tracked(self):
        job = make_job(job_id="a", nodes=4, work=100.0, walltime=200.0)
        csim = fresh([job])
        csim.prepare()
        csim.sim.run(until=50.0)  # job running
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        csim.sim.run(until=500.0)  # job finished, nodes idle again
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_accumulator_consistent_through_full_run(self):
        jobs = [
            make_job(job_id=f"j{i}", nodes=1 + i % 4, work=50.0 + 10 * i,
                     walltime=400.0, submit=float(5 * i))
            for i in range(12)
        ]
        csim = fresh(jobs, policies=[DvfsBudgetPolicy(budget_watts=2500.0)])
        csim.run()
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_out_of_band_field_writes_tracked(self):
        csim = fresh()
        before = csim.machine_power()
        # A plain write of a power-model input through a node view is a
        # store write: it marks its row dirty, so no invalidation step
        # exists or is needed.
        for node in csim.machine.nodes:
            node.idle_power = node.idle_power * 1.5
        assert csim.machine_power() == pytest.approx(full_sum(csim))
        assert csim.machine_power() == pytest.approx(before * 1.5)
        csim.machine.nodes[3].variability = 1.2
        csim.machine.nodes[4].state = NodeState.DOWN
        assert csim.machine_power() == pytest.approx(full_sum(csim))

    def test_dirty_order_independence(self):
        # Same mutations in different orders must converge to the same
        # total (dirty nodes are folded in sorted id order).
        def run(order):
            csim = fresh()
            csim.machine_power()
            for nid in order:
                csim.rm.set_power_cap([csim.machine.nodes[nid]], 130.0 + nid)
            return csim.machine_power()

        assert run([1, 5, 3]) == pytest.approx(run([3, 1, 5]))
