"""Integration tests for ClusterSimulation: execution semantics."""

import gc
import weakref

import numpy as np
import pytest

from repro.centers import build_center_simulation
from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import (
    ClusterSimulation,
    EasyBackfillScheduler,
    FcfsScheduler,
    Scheduler,
    StartDecision,
)
from repro.errors import SchedulingError
from repro.policies.base import Policy
from repro.units import HOUR
from repro.workload import JobState
from tests.conftest import make_job


def run_sim(machine, jobs, scheduler=None, policies=(), **kwargs):
    sim = ClusterSimulation(
        machine, scheduler or FcfsScheduler(), jobs, policies=policies, **kwargs
    )
    return sim, sim.run()


class TestBasicExecution:
    def test_single_job_runs_to_completion(self, small_machine):
        job = make_job(work=100.0, walltime=200.0)
        _, result = run_sim(small_machine, [job])
        assert job.state is JobState.COMPLETED
        assert job.start_time == 0.0
        assert job.end_time == pytest.approx(100.0)

    def test_jobs_wait_for_nodes(self, small_machine):
        a = make_job(job_id="a", nodes=16, work=100.0, walltime=150.0)
        b = make_job(job_id="b", nodes=16, work=100.0, walltime=150.0)
        _, result = run_sim(small_machine, [a, b])
        assert a.end_time == pytest.approx(100.0)
        assert b.start_time == pytest.approx(100.0)
        assert b.wait_time == pytest.approx(100.0)

    def test_submit_times_honoured(self, small_machine):
        job = make_job(submit=500.0, work=50.0)
        _, result = run_sim(small_machine, [job])
        assert job.start_time == pytest.approx(500.0)

    def test_walltime_timeout(self, small_machine):
        # Work exceeds walltime: the job is cut off.
        job = make_job(work=1000.0, walltime=100.0)
        _, result = run_sim(small_machine, [job])
        assert job.state is JobState.TIMEOUT
        assert job.end_time == pytest.approx(100.0)

    def test_nodes_released_after_job(self, small_machine):
        job = make_job(nodes=4, work=10.0)
        _, result = run_sim(small_machine, [job])
        assert all(n.state is NodeState.IDLE for n in small_machine.nodes)

    def test_energy_accounted_per_job(self, small_machine):
        job = make_job(nodes=2, work=100.0, walltime=200.0)
        _, result = run_sim(small_machine, [job])
        # 2 nodes at 350 W (balanced profile intensity < 1 lowers this)
        assert job.energy_joules > 0.0
        spec = small_machine.spec
        upper = 2 * spec.max_power * 100.0
        assert job.energy_joules <= upper * 1.01

    def test_metrics_populated(self, small_machine, small_workload):
        _, result = run_sim(small_machine, small_workload,
                            scheduler=EasyBackfillScheduler())
        m = result.metrics
        assert m.jobs_submitted == len(small_workload)
        assert m.jobs_completed + m.jobs_timed_out + m.jobs_killed == m.jobs_submitted
        assert m.total_energy_joules > 0
        assert 0.0 <= m.utilization <= 1.0

    def test_deterministic_given_seed(self, small_workload):
        import copy

        def once():
            machine = Machine(MachineSpec(name="m", nodes=16))
            jobs = copy.deepcopy(small_workload)
            _, result = run_sim(machine, jobs, scheduler=EasyBackfillScheduler(),
                                seed=5)
            return (
                result.metrics.total_energy_joules,
                result.metrics.mean_wait,
                result.final_time,
            )

        assert once() == once()

    def test_run_until_leaves_unfinished(self, small_machine):
        job = make_job(work=1000.0, walltime=2000.0)
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [job])
        result = sim.run(until=500.0)
        assert job.state is JobState.RUNNING
        assert result.metrics.jobs_unfinished == 1

    def test_stall_detection_stops_unstartable(self, small_machine):
        job = make_job(nodes=999, work=10.0)  # can never run
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [job])
        result = sim.run(stall_timeout=3600.0)
        assert job.state is JobState.PENDING
        assert result.metrics.jobs_unfinished == 1


class TestSpeedChanges:
    def test_frequency_drop_extends_runtime(self, small_machine):
        from repro.workload.phases import COMPUTE_BOUND

        job = make_job(work=100.0, walltime=10_000.0, profile=COMPUTE_BOUND)

        class HalveAtFifty(Policy):
            name = "halver"

            def on_attach(self):
                self.sim.at(50.0, self._halve)

            def _halve(self):
                nodes = [
                    self.simulation.machine.node(nid)
                    for nid in job.assigned_nodes
                ]
                node = nodes[0]
                self.simulation.rm.set_frequency(nodes, node.max_frequency / 2)

        _, result = run_sim(small_machine, [job], policies=[HalveAtFifty()])
        assert job.state is JobState.COMPLETED
        # 50 s at full speed + 50 work left at speed (1-0.95*0.5)=0.525.
        expected = 50.0 + 50.0 / 0.525
        assert job.end_time == pytest.approx(expected, rel=1e-6)

    def test_cap_violation_traced(self, small_machine):
        from repro.workload.phases import COMPUTE_BOUND

        job = make_job(work=50.0, walltime=10_000.0, profile=COMPUTE_BOUND)

        class TightCap(Policy):
            name = "tight"

            def configure_start(self, job, nodes, now):
                # Cap at the floor: unreachable under load.
                self.simulation.rm.set_power_cap(nodes, nodes[0].cap_floor)

        sim, result = run_sim(small_machine, [job], policies=[TightCap()])
        assert result.trace.count("power.cap_violation") >= 1


class TestKill:
    def test_kill_running_job(self, small_machine):
        job = make_job(work=1000.0, walltime=2000.0)

        class KillAt100(Policy):
            name = "killer"

            def on_attach(self):
                self.sim.at(100.0, lambda: self.simulation.kill_job(
                    job.job_id, "test"))

        _, result = run_sim(small_machine, [job], policies=[KillAt100()])
        assert job.state is JobState.KILLED
        assert job.end_time == pytest.approx(100.0)
        assert all(n.state is NodeState.IDLE for n in small_machine.nodes)

    def test_kill_unknown_job_returns_false(self, small_machine):
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [])
        assert sim.kill_job("nope", "reason") is False


def available_ids(ctx):
    """Node ids the context offers the scheduler, ascending."""
    return np.flatnonzero(ctx.selection.avail_mask).tolist()


class TestSchedulingContext:
    def test_expected_end_honours_zero_start_time(self, small_machine):
        # A job that started at exactly t=0.0 must report
        # expected_end == walltime, not now + walltime: 0.0 is a real
        # start time, not a missing value.
        job = make_job(work=1000.0, walltime=300.0)
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [job])
        sim.run(until=100.0)
        assert job.start_time == 0.0
        ctx = sim.build_context()
        (info,) = ctx.running
        assert info.expected_end == pytest.approx(300.0)

    def test_available_tracks_state_transitions(self, small_machine):
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [])
        nodes = small_machine.nodes
        assert available_ids(sim.build_context()) == list(range(16))
        sim.rm.shutdown_nodes(nodes[4:8])
        ctx = sim.build_context()
        assert available_ids(ctx) == list(range(4)) + list(range(8, 16))
        assert ctx.usable_node_count == 16  # shutting down, not failed
        sim.rm.drain_node(nodes[0])
        ctx = sim.build_context()
        assert 0 not in available_ids(ctx)
        assert ctx.usable_node_count == 15
        sim.rm.undrain_node(nodes[0])
        ctx = sim.build_context()
        assert 0 in available_ids(ctx)
        assert ctx.usable_node_count == 16

    def test_boot_cycle_restores_availability(self, small_machine):
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [])
        nodes = small_machine.nodes
        sim.rm.shutdown_nodes(nodes[:2])
        sim.sim.run(until=1_000.0)  # complete the shutdown
        assert nodes[0].state is NodeState.OFF
        assert len(available_ids(sim.build_context())) == 14
        sim.rm.boot_nodes(nodes[:2])
        assert len(available_ids(sim.build_context())) == 14  # still booting
        sim.sim.run(until=2_000.0)
        assert nodes[0].state is NodeState.IDLE
        ctx = sim.build_context()
        assert available_ids(ctx) == list(range(16))
        assert ctx.usable_node_count == 16

    def test_busy_nodes_leave_available_set(self, small_machine):
        job = make_job(nodes=6, work=500.0, walltime=1_000.0)
        sim = ClusterSimulation(small_machine, FcfsScheduler(), [job])
        sim.run(until=100.0)
        ctx = sim.build_context()
        assert len(available_ids(ctx)) == ctx.free_count() == 10
        assert all(
            small_machine.nodes[i].state is NodeState.IDLE
            for i in available_ids(ctx)
        )


class _FixedPicks(Scheduler):
    """Stub scheduler: starts the i-th pending job on the nodes with
    the ids in ``picks[i]``, unchecked."""

    name = "fixed-picks"

    def __init__(self, picks):
        super().__init__()
        self.picks = picks

    def schedule(self, ctx):
        nodes = ctx.machine.nodes
        return [
            StartDecision(job, tuple(nodes[i] for i in ids))
            for job, ids in zip(ctx.pending, self.picks)
        ]


class TestApplyGuard:
    """The apply-time guard: one read of the live availability mask per
    decision rejects a node that is not idle, including one an earlier
    decision of the same pass took."""

    def _run(self, machine, picks, setup=None):
        jobs = [
            make_job(job_id=f"j{i}", nodes=len(ids), work=100.0)
            for i, ids in enumerate(picks)
        ]
        sim = ClusterSimulation(machine, _FixedPicks(picks), jobs)
        if setup is not None:
            setup(sim)
        sim.run(until=10.0)

    def test_two_one_node_decisions_on_one_node(self, small_machine):
        with pytest.raises(SchedulingError, match="unavailable node 3 for j1"):
            self._run(small_machine, [(3,), (3,)])

    def test_multi_node_decision_overlapping_an_earlier_one(self, small_machine):
        with pytest.raises(SchedulingError, match="unavailable node 5 for j1"):
            self._run(small_machine, [(4, 5), (6, 5, 7)])

    @pytest.mark.parametrize("picks", [[(2,)], [(1, 2, 3)]])
    def test_node_that_is_not_idle(self, small_machine, picks):
        def shut_down_node_2(sim):
            sim.rm.shutdown_nodes([small_machine.nodes[2]])

        with pytest.raises(SchedulingError, match="unavailable node 2 for j0"):
            self._run(small_machine, picks, setup=shut_down_node_2)

    @pytest.mark.parametrize("picks", [[(3, 3)], [(1,), (4, 2, 4)]])
    def test_node_listed_twice_in_one_decision(self, small_machine, picks):
        job = f"j{len(picks) - 1}"
        with pytest.raises(SchedulingError, match=f"node . twice for {job}"):
            self._run(small_machine, picks)
        # Refused before the start: the doubled node is still idle.
        assert small_machine.nodes[picks[-1][-1]].state is NodeState.IDLE

    def test_disjoint_decisions_start(self, small_machine):
        self._run(small_machine, [(0,), (1, 2), (3,)])
        assert [n.state for n in small_machine.nodes[:5]] == (
            [NodeState.BUSY] * 4 + [NodeState.IDLE]
        )


class TestPolicyHooks:
    def test_hook_order_and_calls(self, small_machine):
        calls = []

        class Recorder(Policy):
            name = "recorder"
            control_interval = 50.0

            def filter_rows(self, mask, now):
                calls.append("filter")
                return mask

            def admit(self, job, now):
                calls.append("admit")
                return True

            def configure_start(self, job, nodes, now):
                calls.append("configure")

            def on_job_start(self, job, now):
                calls.append("start")

            def on_job_end(self, job, now):
                calls.append("end")

            def on_tick(self, now):
                calls.append("tick")

        job = make_job(work=100.0, walltime=200.0)
        run_sim(small_machine, [job], policies=[Recorder()])
        assert "filter" in calls
        assert "admit" in calls
        assert calls.index("configure") < calls.index("start")
        assert "end" in calls
        assert "tick" in calls

    def test_filter_restricts_allocation(self, small_machine):
        class OnlyHighIds(Policy):
            name = "high-only"

            def filter_rows(self, mask, now):
                mask[:8] = False
                return mask

        job = make_job(nodes=4, work=10.0)
        run_sim(small_machine, [job], policies=[OnlyHighIds()])
        assert all(nid >= 8 for nid in job.assigned_nodes)

    def test_admission_veto_delays(self, small_machine):
        class VetoUntil100(Policy):
            name = "veto"
            control_interval = 10.0

            def admit(self, job, now):
                return now >= 100.0

            def on_tick(self, now):
                self.simulation.request_schedule_pass()

        job = make_job(work=10.0, walltime=100.0)
        run_sim(small_machine, [job], policies=[VetoUntil100()])
        assert job.start_time >= 100.0

    def test_epa_registry_populated(self, small_machine):
        from repro.policies import StaticCappingPolicy

        sim = ClusterSimulation(
            small_machine,
            FcfsScheduler(),
            [],
            policies=[StaticCappingPolicy(cap_watts=250.0)],
        )
        assert sim.epa.is_complete
        names = [c.name for c in sim.epa.components]
        assert "static-capping" in names
        assert "power-meter" in names


class TestCollectable:
    """A dropped simulation must be reclaimable by the cyclic GC.

    The simulation holds reference cycles of its own (policies point
    back at it, pending events hold its bound methods).  That is fine
    as long as every link is visible to the collector; an object held
    in a numpy object array is not, and would pin the whole simulation
    (and its machine, node store, mirror and event heap) for the life
    of the process.
    """

    @pytest.mark.parametrize("slug", ["kaust", "riken"])
    def test_center_simulation_is_collected(self, slug):
        build = build_center_simulation(slug, seed=3, duration=2 * HOUR,
                                        nodes=32)
        build.simulation.run(until=HOUR)
        ref = weakref.ref(build.simulation)
        del build
        gc.collect()
        assert ref() is None
