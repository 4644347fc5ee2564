"""Per-node spec vs vectorized power mirror.

``NodePowerModel.operating_point`` is the executable spec;
``VectorPowerMirror`` re-implements it as array kernels.  The sweeps
here randomize node state (all six states), caps — including caps
below idle power, which the scalar model flags as violations —
DVFS settings, manufacturing variability and job intensities, and
assert the kernel matches the spec field for field to 1e-9.  The
end-to-end tests check, event by event through whole runs, that the
simulation's incrementally folded ``machine_power()`` equals the
spec summed over every node with its bound job's intensity.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec, Node, NodeState
from repro.core import ClusterSimulation, EasyBackfillScheduler, FcfsScheduler
from repro.policies.dvfs_budget import DvfsBudgetPolicy
from repro.power import NodePowerModel, VectorPowerMirror
from repro.simulator import RngStreams
from repro.state import result_fingerprint
from repro.units import HOUR
from repro.workload import WorkloadGenerator, WorkloadSpec
from tests.conftest import make_job

from .state_scenarios import build_rich

ALL_STATES = list(NodeState)


def random_machine(rnd: random.Random, n: int = 48) -> Machine:
    machine = Machine(MachineSpec(name="rand", nodes=n, nodes_per_cabinet=16))
    for node in machine.nodes:
        node.idle_power = rnd.uniform(40.0, 180.0)
        node.max_power = node.idle_power + rnd.uniform(0.0, 400.0)
        node.off_power = rnd.uniform(0.0, 10.0)
        node.variability = rnd.uniform(0.75, 1.25)
        node.min_frequency = rnd.uniform(0.8e9, 1.6e9)
        node.max_frequency = node.min_frequency + rnd.uniform(0.1e9, 1.4e9)
        node.frequency = rnd.uniform(node.min_frequency, node.max_frequency)
        node.state = rnd.choice(ALL_STATES)
        # Caps below idle power are legal model inputs (hardware can be
        # handed an unenforceable cap) even though set_power_cap rejects
        # them — write the field directly to exercise the violation path.
        roll = rnd.random()
        if roll < 0.25:
            node.power_cap = None
        elif roll < 0.50:
            node.power_cap = rnd.uniform(0.3 * node.idle_power, node.idle_power)
        else:
            node.power_cap = rnd.uniform(
                node.idle_power, node.effective_max_power * 1.1
            )
    return machine


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_operating_points_match_scalar_model(self, seed):
        rnd = random.Random(seed)
        machine = random_machine(rnd)
        model = NodePowerModel(
            alpha=rnd.choice([1.5, 2.0, 2.7]),
            boot_power_fraction=rnd.uniform(0.2, 0.9),
            shutdown_power_fraction=rnd.uniform(0.5, 1.5),
        )
        mirror = VectorPowerMirror(machine, model)
        utils = [rnd.random() for _ in machine.nodes]
        senss = [rnd.random() for _ in machine.nodes]
        mirror.utilization[:] = utils
        mirror.sensitivity[:] = senss

        op = mirror.operating_points()
        for row, node in enumerate(machine.nodes):
            sample = model.operating_point(node, utils[row], senss[row])
            assert op.watts[row] == pytest.approx(sample.watts, abs=1e-9)
            assert op.frequency_ratio[row] == pytest.approx(
                sample.frequency_ratio, abs=1e-9
            )
            assert op.speed[row] == pytest.approx(sample.speed, abs=1e-9)
            assert bool(op.cap_violated[row]) is sample.cap_violated

    @pytest.mark.parametrize("seed", range(4))
    def test_subset_rows_match_full_kernel(self, seed):
        rnd = random.Random(100 + seed)
        machine = random_machine(rnd)
        mirror = VectorPowerMirror(machine, NodePowerModel())
        rows = np.asarray(sorted(rnd.sample(range(len(machine.nodes)), 17)))
        full = mirror.operating_points()
        sub = mirror.operating_points(rows)
        np.testing.assert_array_equal(sub.watts, full.watts[rows])
        np.testing.assert_array_equal(sub.speed, full.speed[rows])
        np.testing.assert_array_equal(sub.cap_violated, full.cap_violated[rows])

    @given(
        idle=st.floats(min_value=10.0, max_value=500.0),
        dyn_span=st.floats(min_value=0.0, max_value=1000.0),
        cap_frac=st.floats(min_value=0.1, max_value=1.5),
        util=st.floats(min_value=0.0, max_value=1.0),
        sens=st.floats(min_value=0.0, max_value=1.0),
        freq_frac=st.floats(min_value=0.0, max_value=1.0),
        state=st.sampled_from(ALL_STATES),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_node_property(
        self, idle, dyn_span, cap_frac, util, sens, freq_frac, state
    ):
        node = Node(0, idle_power=idle, max_power=idle + dyn_span)
        node.state = state
        node.frequency = node.min_frequency + freq_frac * (
            node.max_frequency - node.min_frequency
        )
        node.power_cap = cap_frac * idle  # spans below and above idle
        machine = Machine(
            MachineSpec(name="one", nodes=1, idle_power=idle,
                        max_power=idle + dyn_span),
            nodes=[node],
        )
        model = NodePowerModel()
        mirror = VectorPowerMirror(machine, model)
        mirror.utilization[0] = util
        mirror.sensitivity[0] = sens
        op = mirror.operating_points()
        sample = model.operating_point(node, util, sens)
        assert op.watts[0] == pytest.approx(sample.watts, abs=1e-9)
        assert op.frequency_ratio[0] == pytest.approx(
            sample.frequency_ratio, abs=1e-9
        )
        assert op.speed[0] == pytest.approx(sample.speed, abs=1e-9)
        assert bool(op.cap_violated[0]) is sample.cap_violated

    @pytest.mark.parametrize("seed", range(4))
    def test_frequencies_for_cap_match_scalar(self, seed):
        rnd = random.Random(200 + seed)
        machine = random_machine(rnd)
        model = NodePowerModel(alpha=rnd.choice([1.7, 2.0]))
        mirror = VectorPowerMirror(machine, model)
        rows = np.arange(len(machine.nodes))
        util = rnd.random()
        caps = np.asarray(
            [rnd.uniform(0.2 * n.idle_power, 1.2 * n.effective_max_power)
             for n in machine.nodes]
        )
        freqs = mirror.frequencies_for_cap(rows, caps, util)
        for row, node in enumerate(machine.nodes):
            expected = model.frequency_for_cap(node, caps[row], util)
            assert freqs[row] == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_power_at_ratio_matches_scalar(self, seed):
        rnd = random.Random(300 + seed)
        machine = random_machine(rnd)
        model = NodePowerModel()
        mirror = VectorPowerMirror(machine, model)
        rows = np.arange(len(machine.nodes))
        ratios = np.asarray([rnd.uniform(0.0, 1.3) for _ in machine.nodes])
        util = rnd.random()
        watts = mirror.power_at_ratio(rows, ratios, util)
        for row, node in enumerate(machine.nodes):
            expected = model.power_at_ratio(node, ratios[row], util)
            assert watts[row] == pytest.approx(expected, abs=1e-9)

    def test_bind_clamps_out_of_range_intensities(self):
        machine = Machine(MachineSpec(name="m", nodes=4))
        mirror = VectorPowerMirror(machine, NodePowerModel())
        rows = np.asarray([0, 2])
        mirror.bind(rows, utilization=1.7, sensitivity=-0.3)
        assert mirror.utilization[0] == 1.0
        assert mirror.sensitivity[2] == 0.0
        mirror.unbind(rows)
        assert mirror.utilization[0] == 1.0
        assert mirror.sensitivity[2] == 1.0


def full_scalar_sum(csim: ClusterSimulation) -> float:
    """``NodePowerModel.operating_point`` summed over every node, each
    with its bound job's intensity/sensitivity."""
    return sum(
        csim._node_operating_point(n).watts for n in csim.machine.nodes
    )


class TestMirrorAccounting:
    def test_incremental_total_tracks_mutations(self):
        machine = Machine(MachineSpec(name="m", nodes=24, nodes_per_cabinet=8))
        csim = ClusterSimulation(machine, FcfsScheduler(), [])
        assert csim.power_vector is not None
        assert csim.machine_power() == pytest.approx(full_scalar_sum(csim))
        csim.rm.set_power_cap(machine.nodes[:5], 140.0)
        csim.rm.set_frequency(machine.nodes[3:9], machine.nodes[0].min_frequency)
        csim.rm.shutdown_nodes(machine.nodes[20:])
        assert csim.machine_power() == pytest.approx(full_scalar_sum(csim))

    def test_node_watts_matches_reference_loop(self):
        machine = Machine(MachineSpec(name="m", nodes=12, nodes_per_cabinet=4))
        job = make_job(job_id="a", nodes=5, work=500.0, walltime=900.0)
        csim = ClusterSimulation(machine, FcfsScheduler(), [job])
        csim.prepare()
        csim.sim.run(until=100.0)
        per_node = csim.node_watts()
        for row, node in enumerate(machine.nodes):
            assert per_node[row] == pytest.approx(
                csim._node_operating_point(node).watts, abs=1e-9
            )

    def test_force_resum_matches_incremental_total(self):
        machine = Machine(MachineSpec(name="m", nodes=16, nodes_per_cabinet=4))
        csim = ClusterSimulation(machine, FcfsScheduler(), [])
        csim.rm.set_power_cap(machine.nodes[:4], 150.0)
        incremental = csim.machine_power()
        csim.power_vector.force_resum()
        assert csim.machine_power() == pytest.approx(incremental)

    def test_peek_reads_the_fold_without_writing_it(self):
        machine = Machine(MachineSpec(name="m", nodes=16, nodes_per_cabinet=4))
        csim = ClusterSimulation(machine, FcfsScheduler(), [])
        mirror = csim.power_vector

        def cache():
            return (mirror._watts.copy(), mirror._total,
                    set(mirror._dirty), mirror._all_dirty)

        def same(a, b):
            return (np.array_equal(a[0], b[0]) and a[1:] == b[1:])

        # Full re-sum, clean, a dirty subset, then half the rows dirty.
        steps = [
            lambda: None,
            lambda: None,
            lambda: csim.rm.set_power_cap(machine.nodes[:3], 150.0),
            lambda: csim.rm.shutdown_nodes(machine.nodes[4:12]),
        ]
        for step in steps:
            step()
            before = cache()
            peeked = mirror.peek_watts()
            assert same(cache(), before)
            assert mirror.machine_watts() == peeked  # bitwise


def seeded_workload(count: int = 60):
    spec = WorkloadSpec(
        arrival_rate=30.0 / HOUR,
        duration=8.0 * HOUR,
        min_nodes=1,
        max_nodes=12,
        mean_work=HOUR / 3,
    )
    return WorkloadGenerator(spec, RngStreams(7).stream("wl")).generate(count=count)


def dvfs_sim(scheduler_cls) -> ClusterSimulation:
    machine = Machine(MachineSpec(name="m", nodes=24, nodes_per_cabinet=8))
    return ClusterSimulation(
        machine,
        scheduler_cls(),
        seeded_workload(),
        policies=[DvfsBudgetPolicy(budget_watts=24 * 320.0)],
        seed=3,
    )


def assert_power_matches_spec_throughout(csim: ClusterSimulation) -> int:
    """Step *csim* to completion, checking after every event that the
    folded ``machine_power()`` equals the per-node spec sum.  Returns
    the number of events checked."""
    csim.prepare()
    checked = 0
    while not csim.all_jobs_terminal and csim.sim.step():
        assert csim.machine_power() == pytest.approx(
            full_scalar_sum(csim), rel=1e-9
        ), csim.sim.now
        checked += 1
    return checked


class TestEndToEndEquivalence:
    """The mirror reproduces the per-node spec over whole runs."""

    #: ``result_fingerprint`` of each seeded DVFS-budget run.
    PINNED = {
        FcfsScheduler:
            "ff868ebba55241dd873b47226a8cbef9ccb1ea4ae0d74fa08f993560bb1617fe",
        EasyBackfillScheduler:
            "3948e4ac4f6552b9f53c035323fd8cbe7a5c6ed20e47f01cf7131011651c9857",
    }

    @pytest.mark.parametrize("scheduler_cls", [FcfsScheduler, EasyBackfillScheduler])
    def test_seeded_workload_result_pinned(self, scheduler_cls):
        result = dvfs_sim(scheduler_cls).run()
        assert result_fingerprint(result) == self.PINNED[scheduler_cls]

    @pytest.mark.parametrize("scheduler_cls", [FcfsScheduler, EasyBackfillScheduler])
    def test_machine_power_matches_spec_on_seeded_workload(self, scheduler_cls):
        assert assert_power_matches_spec_throughout(dvfs_sim(scheduler_cls)) > 0

    def test_machine_power_matches_spec_on_rich_scenario(self):
        # Per-node caps, idle shutdown cycling nodes through
        # OFF/BOOTING/SHUTTING_DOWN, and backfill: the lifecycle paths
        # that dirty the mirror.
        csim = build_rich()
        assert assert_power_matches_spec_throughout(csim) > 0
        assert csim.rm.shutdowns_initiated > 0


class TestLifecycleArrays:
    """The mirror's lifecycle arrays track the node lifecycle push-sync."""

    def _sim(self, n=16):
        machine = Machine(MachineSpec(name="m", nodes=n, nodes_per_cabinet=8))
        return ClusterSimulation(machine, FcfsScheduler(), []), machine

    def test_arrays_track_transitions_and_bindings(self):
        machine = Machine(MachineSpec(name="m", nodes=12, nodes_per_cabinet=4))
        job = make_job(job_id="a", nodes=5, work=500.0, walltime=900.0)
        csim = ClusterSimulation(machine, FcfsScheduler(), [job])
        csim.prepare()
        csim.sim.run(until=100.0)
        mirror = csim.power_vector
        from repro.power.vector import STATE_CODES
        for row, node in enumerate(machine.nodes):
            assert mirror.state_code[row] == STATE_CODES[node.state]
            if node.idle_since is None:
                assert np.isnan(mirror.idle_since[row])
            else:
                assert mirror.idle_since[row] == node.idle_since
            # Execution membership is SoA on this backend: bound_jobs
            # and exec_slot derive from the simulation's execution
            # table, not from per-node running_job stamps.
            execution = csim.execution_on(node.node_id)
            assert mirror.bound_jobs[row] == (execution is not None)
            if execution is not None:
                assert mirror.exec_slot[row] == execution.slot
                assert node.node_id in execution.node_ids
            else:
                assert mirror.exec_slot[row] == -1
            assert mirror.node_id[row] == node.node_id

    def test_idle_candidate_rows_match_scalar_selection(self):
        csim, machine = self._sim()
        csim.sim.run(until=50.0)
        # Stagger idle_since: re-idle some nodes at distinct times.
        for i, node in enumerate(machine.nodes[:6]):
            node.assign("tmp", csim.sim.now)
            node.release(csim.sim.now + 0.0)
        mirror = csim.power_vector
        now = csim.sim.now + 500.0
        rows = mirror.idle_candidate_rows(now, 100.0)
        scalar = sorted(
            (n for n in machine.nodes
             if n.state is NodeState.IDLE and n.idle_since is not None
             and now - n.idle_since >= 100.0),
            key=lambda n: (n.idle_since, n.node_id),
        )
        assert [machine.nodes[r].node_id for r in rows] == [
            n.node_id for n in scalar
        ]

    def test_idle_candidates_exclude_nan_rows(self):
        csim, machine = self._sim()
        rm = csim.rm
        rm.shutdown_nodes(machine.nodes[:4])
        mirror = csim.power_vector
        rows = mirror.idle_candidate_rows(1e9, 0.0)
        assert all(machine.nodes[r].state is NodeState.IDLE for r in rows)
        assert not np.isnan(mirror.idle_since[rows]).any()

    def test_t0_idle_node_is_a_candidate(self):
        # Regression companion to the `idle_since or 0.0` fix: a node
        # idle since t=0 has a real timestamp and must rank *first*
        # (longest idle), not be confused with "no timestamp".
        csim, machine = self._sim(n=4)
        mirror = csim.power_vector
        rows = mirror.idle_candidate_rows(10.0, 5.0)
        assert list(rows) == [0, 1, 2, 3]

    def test_off_rows_sorted_by_node_id(self):
        csim, machine = self._sim()
        csim.rm.shutdown_nodes([machine.nodes[9], machine.nodes[2],
                                machine.nodes[5]])
        # Complete the shutdowns.
        csim.sim.run(until=1e4)
        rows = csim.power_vector.off_rows()
        assert [machine.nodes[r].node_id for r in rows] == sorted(
            machine.nodes[r].node_id for r in rows
        )
        assert all(
            machine.nodes[r].state is NodeState.OFF for r in rows
        )
        assert len(rows) == 3

    def test_lifecycle_view_counts(self):
        from repro.cluster import NodeState as NS
        from repro.power.vector import STATE_CODES
        csim, machine = self._sim()
        csim.rm.shutdown_nodes(machine.nodes[:3])
        csim.sim.run(until=1e4)
        view = csim.lifecycle_view()
        assert view is not None
        assert view.now == csim.sim.now
        assert view.count_in_state(STATE_CODES[NS.OFF]) == 3
        assert view.count_in_state(STATE_CODES[NS.IDLE]) == 13
