"""Property-based tests: workload generation, SWF roundtrip and
whole-simulation conservation invariants."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import (
    ClusterSimulation,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    PredictiveEasyScheduler,
)
from repro.policies import PowerAwareAdmissionPolicy
from repro.simulator import RngStreams
from repro.workload.job import JobState
from repro.units import HOUR
from repro.workload import (
    WorkloadGenerator,
    WorkloadSpec,
    read_swf,
)
from repro.workload.swf import roundtrip_string

spec_strategy = st.builds(
    WorkloadSpec,
    arrival_rate=st.floats(min_value=1e-4, max_value=0.1),
    duration=st.floats(min_value=3600.0, max_value=48 * 3600.0),
    min_nodes=st.just(1),
    max_nodes=st.sampled_from([4, 16, 64, 256]),
    capability_fraction=st.floats(min_value=0.0, max_value=1.0),
    mean_work=st.floats(min_value=60.0, max_value=8 * 3600.0),
    work_sigma=st.floats(min_value=0.1, max_value=2.0),
    overestimate_mean=st.floats(min_value=1.0, max_value=5.0),
    moldable_fraction=st.floats(min_value=0.0, max_value=1.0),
)


class TestWorkloadProperties:
    @given(spec_strategy, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_generated_jobs_satisfy_invariants(self, spec, seed):
        rng = RngStreams(seed).stream("wl")
        jobs = WorkloadGenerator(spec, rng).generate(count=30)
        assert len(jobs) == 30
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == 30
        for job in jobs:
            assert spec.min_nodes <= job.nodes <= spec.max_nodes
            assert job.work_seconds > 0
            assert job.walltime_request >= job.work_seconds
            for cfg in job.moldable:
                assert cfg.nodes >= 1
                assert cfg.work_seconds > 0

    @given(spec_strategy, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_swf_roundtrip_preserves_submission_fields(self, spec, seed):
        rng = RngStreams(seed).stream("wl")
        jobs = WorkloadGenerator(spec, rng).generate(count=10)
        # Complete them so SWF has run fields.
        for job in jobs:
            job.start(job.submit_time, list(range(job.nodes)))
            job.complete(job.start_time + job.work_seconds)
        text = roundtrip_string(jobs)
        back = read_swf(io.StringIO(text))
        assert len(back) == len(jobs)
        for original, parsed in zip(jobs, back):
            assert parsed.nodes == original.nodes
            assert parsed.submit_time == float(int(original.submit_time))
            assert abs(parsed.work_seconds - original.work_seconds) <= 1.0


_SCHEDULERS = (
    FcfsScheduler,
    EasyBackfillScheduler,
    ConservativeBackfillScheduler,
    PredictiveEasyScheduler,
)


_SPEC = MachineSpec(name="m", nodes=8)


def _stacks(jobs):
    """Every (scheduler, policies) stack under test: each scheduler
    bare and behind a power-aware admission gate.  The budget lets any
    one of *jobs* start on an otherwise idle machine, so admission
    delays jobs but never strands one."""
    node = Machine(_SPEC).nodes[0]
    widest = max(
        j.nodes * (node.max_power - node.idle_power) * j.mean_power_intensity
        for j in jobs
    )
    budget = _SPEC.nodes * node.idle_power + widest + 1.0
    for cls in _SCHEDULERS:
        yield cls.__name__, cls(), []
        yield (f"{cls.__name__}+admission", cls(),
               [PowerAwareAdmissionPolicy(budget_watts=budget)])


def _conservation_jobs(seed, count=25):
    spec = WorkloadSpec(arrival_rate=20.0 / HOUR, duration=4 * HOUR,
                        max_nodes=8, mean_work=HOUR / 4)
    return WorkloadGenerator(spec, RngStreams(seed).stream("wl")).generate(
        count=count
    )


class TestSimulationConservation:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_job_reaches_terminal_state(self, seed):
        for label, scheduler, policies in _stacks(_conservation_jobs(seed)):
            machine = Machine(_SPEC)
            jobs = _conservation_jobs(seed)
            sim = ClusterSimulation(machine, scheduler, jobs,
                                    policies=policies, seed=seed)
            result = sim.run()
            assert all(j.is_terminal for j in jobs), label
            m = result.metrics
            assert (m.jobs_completed + m.jobs_killed + m.jobs_timed_out
                    == m.jobs_submitted), label
            # All nodes returned to idle.
            assert all(n.state is NodeState.IDLE for n in machine.nodes), label
            # Energy is positive and utilization within physical bounds.
            assert m.total_energy_joules > 0, label
            assert 0.0 <= m.utilization <= 1.0, label

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=8, deadline=None)
    def test_jobs_conserved_when_stopped_mid_run(self, seed, cut):
        """submitted = completed + timed-out + killed + running +
        queued + not yet submitted, at an arbitrary stop time."""
        for label, scheduler, policies in _stacks(_conservation_jobs(seed)):
            machine = Machine(_SPEC)
            jobs = _conservation_jobs(seed)
            until = cut * max(j.submit_time for j in jobs)
            sim = ClusterSimulation(machine, scheduler, jobs,
                                    policies=policies, seed=seed)
            m = sim.run(until=until).metrics
            running = len(sim.running_jobs())
            queued = len(sim.queue)
            future = sum(1 for j in jobs if j.submit_time > until)
            assert not any(j.state is JobState.CANCELLED for j in jobs)
            assert m.jobs_submitted == len(jobs), label
            assert (m.jobs_completed + m.jobs_timed_out + m.jobs_killed
                    + running + queued + future == m.jobs_submitted), (
                label, m.jobs_completed, m.jobs_timed_out, m.jobs_killed,
                running, queued, future)
            # The unfinished tally agrees with the live split.
            assert m.jobs_unfinished == running + queued + future, label

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_no_node_ever_double_booked(self, seed):
        machine = Machine(MachineSpec(name="m", nodes=8))
        spec = WorkloadSpec(arrival_rate=40.0 / HOUR, duration=2 * HOUR,
                            max_nodes=4, mean_work=HOUR / 6)
        jobs = WorkloadGenerator(spec, RngStreams(seed).stream("wl")).generate(
            count=20
        )
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                seed=seed)
        sim.run()
        # Reconstruct per-node occupancy intervals from job records.
        intervals = {}
        for job in jobs:
            if job.start_time is None:
                continue
            for nid in job.assigned_nodes:
                intervals.setdefault(nid, []).append(
                    (job.start_time, job.end_time)
                )
        for nid, spans in intervals.items():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-9, f"node {nid} double-booked"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_energy_consistent_with_meter(self, seed):
        machine = Machine(MachineSpec(name="m", nodes=8))
        spec = WorkloadSpec(arrival_rate=20.0 / HOUR, duration=2 * HOUR,
                            max_nodes=8, mean_work=HOUR / 4)
        jobs = WorkloadGenerator(spec, RngStreams(seed).stream("wl")).generate(
            count=15
        )
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                seed=seed, sample_interval=30.0)
        result = sim.run()
        # Job-accounted energy can never exceed machine-metered energy
        # (the meter also sees idle draw).
        job_energy = sum(j.energy_joules for j in jobs)
        assert job_energy <= result.meter.energy_joules * 1.02
