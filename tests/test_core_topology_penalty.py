"""Tests for the Q6 placement-to-performance coupling."""

import pytest

from repro.cluster import Machine, MachineSpec
from repro.cluster.topology import build_fat_tree
from repro.core import ClusterSimulation, EasyBackfillScheduler, FcfsScheduler
from repro.core.allocator import TopologyAwareAllocator
from repro.workload.phases import COMM_BOUND, COMPUTE_BOUND
from tests.conftest import make_job


def topo_machine(nodes=32):
    spec = MachineSpec(name="m", nodes=nodes, nodes_per_cabinet=8)
    return Machine(spec, topology=build_fat_tree(nodes, arity=8))


class TestPlacementPenalty:
    def test_disabled_by_default(self):
        machine = topo_machine()
        job = make_job(nodes=8, work=100.0, walltime=500.0,
                       profile=COMM_BOUND)
        sim = ClusterSimulation(machine, FcfsScheduler(), [job])
        sim.run()
        assert job.run_time == pytest.approx(100.0)

    def test_compact_placement_no_penalty(self):
        machine = topo_machine()
        # First-fit on an empty machine gives nodes 0..7: one switch
        # away at most (cost ~2-4 on the two-level tree).
        job = make_job(nodes=4, work=100.0, walltime=500.0,
                       profile=COMM_BOUND)
        sim = ClusterSimulation(machine, FcfsScheduler(), [job],
                                comm_penalty=0.5)
        sim.run()
        # Intra-switch placement: cost 2, zero excess, zero penalty.
        assert job.run_time == pytest.approx(100.0)

    def test_spread_placement_slows_comm_job(self):
        machine = topo_machine()

        class ScatterAllocator(TopologyAwareAllocator):
            """Worst-case: pick nodes one per switch."""

            def select(self, pool, count):
                rows = pool.rows
                return rows[::8][:count] if len(rows[::8]) >= count \
                    else rows[:count]

        job = make_job(nodes=4, work=100.0, walltime=500.0,
                       profile=COMM_BOUND)
        sim = ClusterSimulation(
            machine, FcfsScheduler(allocator=ScatterAllocator()), [job],
            comm_penalty=0.5,
        )
        sim.run()
        # All pairs 4 hops: excess = 1, comm fraction 1.0 -> 1.5x.
        assert job.run_time == pytest.approx(150.0)

    def test_compute_bound_immune_to_placement(self):
        machine = topo_machine()

        class ScatterAllocator(TopologyAwareAllocator):
            def select(self, pool, count):
                return pool.rows[::8][:count]

        job = make_job(nodes=4, work=100.0, walltime=500.0,
                       profile=COMPUTE_BOUND)
        sim = ClusterSimulation(
            machine, FcfsScheduler(allocator=ScatterAllocator()), [job],
            comm_penalty=0.5,
        )
        sim.run()
        assert job.run_time == pytest.approx(100.0)

    def test_single_node_job_immune(self):
        machine = topo_machine()
        job = make_job(nodes=1, work=100.0, walltime=500.0,
                       profile=COMM_BOUND)
        sim = ClusterSimulation(machine, FcfsScheduler(), [job],
                                comm_penalty=0.5)
        sim.run()
        assert job.run_time == pytest.approx(100.0)

    def test_topology_aware_allocator_beats_scatter_end_to_end(self):
        # The Q6 claim quantified: same workload, same machine, only
        # the allocator differs.
        import copy

        jobs = [
            make_job(job_id=f"j{i}", nodes=4, work=300.0, walltime=2000.0,
                     profile=COMM_BOUND, submit=float(i))
            for i in range(12)
        ]

        def run(allocator):
            machine = topo_machine()
            sim = ClusterSimulation(
                machine, EasyBackfillScheduler(allocator=allocator),
                copy.deepcopy(jobs), comm_penalty=0.5,
            )
            return sim.run().metrics

        class ScatterAllocator(TopologyAwareAllocator):
            def select(self, pool, count):
                rows = pool.rows
                step = max(1, len(rows) // count)
                picked = rows[::step][:count]
                return picked if len(picked) == count else rows[:count]

        aware = run(TopologyAwareAllocator())
        scattered = run(ScatterAllocator())
        assert aware.makespan < scattered.makespan
        # Energy-to-solution also improves (shorter runtimes).
        assert aware.total_energy_joules < scattered.total_energy_joules
