"""Cap changes: one operating-point kernel per change, one store row
call per cap cohort.

``ClusterSimulation._operating`` evaluates every affected execution
from one kernel over their concatenated rows.  The per-execution loop
it replaced — one ``operating_points(execution.rows)`` call and one
reduction per execution — stays here as the reference, and every
``(speed, power, violated)`` triple must equal it exactly (``==``,
never approximately).  ``ResourceManager.set_power_cap`` writes a cap
cohort through ``NodeStore.set_caps``: validated whole, then written in
one scatter that marks the cohort's rows dirty for the power fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import ClusterSimulation, FcfsScheduler
from repro.core.simulation import JobExecution
from repro.errors import PowerCapError
from repro.grid.events import DemandResponseEvent, GridEventSchedule
from repro.policies import DemandResponsePolicy, SiteBudgetPolicy
from repro.cluster.node import STATE_CODES
from repro.workload.phases import COMM_BOUND, COMPUTE_BOUND, MEMORY_BOUND

from tests.conftest import make_job

#: Widths reaching every branch of numpy's summation: the short
#: sequential loop (< 8), the unrolled 8-way loop, and pairwise
#: splitting past 128 elements.
WIDTHS = (1, 7, 9, 130, 300)

def reference_operating(mirror, execution):
    """The per-execution reduction the batched kernel replaced."""
    op = mirror.operating_points(execution.rows)
    speed = min(1.0, float(op.speed.min()))
    power = float(op.watts.sum())
    violated = bool(op.cap_violated.any())
    speed /= execution.placement_penalty
    return max(speed, 1e-9), power, violated


def reference_on_speed_changed(sim, node_ids):
    """The per-execution re-evaluation loop: first-occurrence order of
    *node_ids*, one kernel per execution."""
    mirror = sim.power_vector
    order = []
    for slot in mirror.exec_slot[node_ids].tolist():
        if slot >= 0 and slot not in order:
            order.append(slot)
    for slot in order:
        execution = sim._exec_slots[slot]
        sim._update_execution(execution)
        speed, power, violated = reference_operating(mirror, execution)
        execution.speed = speed
        execution.power_watts = power
        if violated and not execution.cap_violated:
            execution.cap_violated = True
            sim.trace.emit(sim.sim.now, "power.cap_violation",
                           job=execution.job.job_id)
        sim._schedule_end(execution)


# ----------------------------------------------------------------------
# Batched operating points == per-execution loop
# ----------------------------------------------------------------------
def random_simulation(seed: int, n: int = 900):
    """A simulation whose mirror covers every kernel branch — all six
    node states, uncapped, binding and below-idle caps, DVFS clamping
    to ``f_min``, zero-intensity jobs — with executions of every
    width in :data:`WIDTHS` plus random ones bound to disjoint rows."""
    rng = np.random.default_rng(seed)
    machine = Machine(MachineSpec(name="oracle", nodes=n, nodes_per_cabinet=30))
    states = list(STATE_CODES)
    for node in machine.nodes:
        node.state = states[int(rng.integers(len(states)))]
        node.idle_power = float(rng.uniform(80.0, 120.0))
        node.max_power = float(rng.uniform(300.0, 400.0))
        node.variability = float(rng.uniform(0.9, 1.1))
        node.frequency = float(
            rng.choice([node.min_frequency, node.max_frequency,
                        rng.uniform(node.min_frequency, node.max_frequency)])
        )
        kind = rng.integers(3)
        if kind == 1:  # binding: between idle and peak draw
            node.power_cap = float(
                rng.uniform(node.idle_power, node.max_power)
            )
        elif kind == 2:  # below idle (set past the setter's guard)
            node.power_cap = float(rng.uniform(0.8, 1.0) * node.idle_power)
    sim = ClusterSimulation(machine, FcfsScheduler(), [])
    mirror = sim.power_vector

    widths = list(WIDTHS) + rng.integers(1, 40, size=8).tolist()
    perm = rng.permutation(n)
    executions = []
    start = 0
    for i, width in enumerate(widths):
        rows = perm[start:start + width]
        if i % 2:
            rows = np.sort(rows)
        start += width
        job = make_job(job_id=f"x{i}", nodes=width)
        execution = JobExecution(job, [machine.nodes[r] for r in rows.tolist()])
        execution.rows = rows.astype(np.intp)
        execution.placement_penalty = float(
            rng.choice([1.0, rng.uniform(1.0, 2.0)])
        )
        utilization = 0.0 if i % 5 == 4 else float(rng.uniform(0.2, 1.0))
        mirror.bind_execution(
            execution.rows, i, utilization, float(rng.uniform(0.0, 1.0))
        )
        executions.append(execution)
    return sim, executions, rng


class TestBatchedOperatingOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_each_execution_matches_its_own_kernel(self, seed):
        sim, executions, rng = random_simulation(seed)
        mirror = sim.power_vector
        store = sim.machine.store
        # Every branch the triple depends on is actually reached.
        codes = set(store.state_code.tolist())
        assert codes == set(STATE_CODES.values())
        caps = store.power_cap
        assert np.isinf(caps).any()
        assert (caps < store.idle_power).any()
        assert (np.isfinite(caps) & (caps >= store.idle_power)).any()

        for order in (executions, list(reversed(executions)),
                      [executions[i] for i in rng.permutation(len(executions))]):
            got = sim._operating(order)
            want = [reference_operating(mirror, e) for e in order]
            assert got == want
            for (speed, power, violated) in got:
                assert type(speed) is float and type(power) is float
                assert type(violated) is bool

    def test_single_execution_matches(self):
        sim, executions, _ = random_simulation(99)
        for execution in executions:
            assert sim._operating([execution]) == [
                reference_operating(sim.power_vector, execution)
            ]

    def test_violations_and_clamping_reached(self):
        # Across the seeds both violated and clean executions occur,
        # and some busy row is clamped to f_min by its cap.
        violated = set()
        clamped = False
        for seed in range(12):
            sim, executions, _ = random_simulation(seed)
            store = sim.machine.store
            violated.update(v for _, _, v in sim._operating(executions))
            op = sim.power_vector.operating_points()
            busy = store.state_code == STATE_CODES[NodeState.BUSY]
            f_min = store.min_frequency / store.max_frequency
            clamped |= bool(
                (busy & np.isfinite(store.power_cap)
                 & (op.frequency_ratio == f_min)
                 & (store.frequency > store.min_frequency)).any()
            )
        assert violated == {True, False}
        assert clamped


# ----------------------------------------------------------------------
# Visit order and trace order of a cap change
# ----------------------------------------------------------------------
PROFILES = (COMPUTE_BOUND, MEMORY_BOUND, COMM_BOUND)


def running_simulation() -> ClusterSimulation:
    """Jobs of every width in :data:`WIDTHS` (and a few more) running
    side by side on one machine, a minute into the run."""
    widths = list(WIDTHS) + [2, 3, 5, 11, 24]
    machine = Machine(
        MachineSpec(name="caps", nodes=sum(widths) + 20, nodes_per_cabinet=16)
    )
    for node in machine.nodes:
        node.variability = 0.92 + 0.01 * (node.node_id % 16)
    jobs = [
        make_job(job_id=f"j{i}", nodes=w, work=7200.0, walltime=14400.0,
                 profile=PROFILES[i % 3])
        for i, w in enumerate(widths)
    ]
    sim = ClusterSimulation(machine, FcfsScheduler(), jobs)
    sim.prepare()
    sim.sim.run(until=60.0)
    assert len(sim._executions) == len(jobs)
    return sim


def record_visits(sim):
    visits = []
    schedule_end = sim._schedule_end

    def recording(execution):
        visits.append(execution.job.job_id)
        schedule_end(execution)

    sim._schedule_end = recording
    return visits


def execution_state(sim):
    return {
        job_id: (e.speed, e.power_watts, e.cap_violated, e.work_done,
                 e.end_handle.time)
        for job_id, e in sim._executions.items()
    }


class TestCapChangeOrder:
    def test_visit_and_trace_order_match_per_execution_loop(self):
        batched, reference = running_simulation(), running_simulation()
        # The reference re-evaluates one execution at a time.
        reference.rm.on_speed_changed = (
            lambda ids: reference_on_speed_changed(reference, ids)
        )
        visits = {id(batched): record_visits(batched),
                  id(reference): record_visits(reference)}
        rng = np.random.default_rng(3)
        order = rng.permutation(len(batched.machine.nodes)).tolist()
        steps = [
            (order, 260.0),                  # binding for some jobs
            (order[::2], 100.0),             # at the floor: violations
            (order[::-1], 180.0),
            (order[5:400], None),            # partial clear
            (order, 120.0),
        ]
        for step, (ids, cap) in enumerate(steps):
            for sim in (batched, reference):
                sim.sim.run(until=120.0 + 60.0 * step)
                nodes = [sim.machine.nodes[i] for i in ids]
                sim.rm.set_power_cap(nodes, cap)
            assert visits[id(batched)] == visits[id(reference)]
            assert execution_state(batched) == execution_state(reference)
            assert batched.machine_power() == reference.machine_power()
        # Every execution was visited, and cap violations were traced.
        assert set(visits[id(batched)]) == set(batched._executions)
        got = [(r.time, r.data["job"])
               for r in batched.trace.records("power.cap_violation")]
        want = [(r.time, r.data["job"])
                for r in reference.trace.records("power.cap_violation")]
        assert got and got == want
        batched.run()
        reference.run()
        assert [(j.job_id, j.end_time, j.energy_joules) for j in batched.jobs] == [
            (j.job_id, j.end_time, j.energy_joules) for j in reference.jobs
        ]


# ----------------------------------------------------------------------
# Cap cohorts: one store, dirty rows and atomic validation
# ----------------------------------------------------------------------
def assert_mirror_in_sync(sim):
    """The incremental fold equals a full re-sum, and the state counts
    equal a recount of the state column."""
    store = sim.machine.store
    assert store.counts == np.bincount(
        store.state_code, minlength=len(STATE_CODES)
    ).tolist()
    incremental = sim.machine_power()
    sim.power_vector.force_resum()
    assert incremental == sim.machine_power()


class TestCapCohortSync:
    def test_cohort_caps_keep_mirror_in_sync(self):
        sim = running_simulation()
        machine = sim.machine
        sim.machine_power()
        cohort = [machine.nodes[i] for i in range(len(machine.nodes) - 1, 0, -3)]
        affected = sim.rm.set_power_cap(cohort, 200.0)
        assert affected == [n.node_id for n in cohort]
        assert all(n.power_cap == 200.0 for n in cohort)
        assert_mirror_in_sync(sim)
        sim.sim.run(until=600.0)
        sim.rm.set_power_cap(machine.nodes, None)
        assert all(n.power_cap is None for n in machine.nodes)
        assert_mirror_in_sync(sim)

    def test_cohort_below_one_floor_writes_nothing(self):
        sim = running_simulation()
        machine = sim.machine
        sim.rm.set_power_cap(machine.nodes[:10], 250.0)
        before = [n.power_cap for n in machine.nodes]
        watts = sim.machine_power()
        machine.nodes[7].idle_power = 180.0  # floor above the new cap
        with pytest.raises(PowerCapError):
            sim.rm.set_power_cap(machine.nodes[:20], 150.0)
        assert [n.power_cap for n in machine.nodes] == before
        machine.nodes[7].idle_power = 100.0
        assert sim.machine_power() == watts
        assert_mirror_in_sync(sim)

    def test_bare_machine_falls_back_to_node_listeners(self):
        # A machine with no simulation: the store marks the capped rows
        # dirty, and a cap below one floor writes nothing.
        machine = Machine(MachineSpec(name="bare", nodes=8, nodes_per_cabinet=4))
        store = machine.store
        store.dirty.clear()
        store.set_caps([5, 2], 150)
        assert store.dirty == {2, 5}
        assert machine.nodes[5].power_cap == 150.0
        assert machine.nodes[2].power_cap == 150.0
        with pytest.raises(PowerCapError):
            store.set_caps([0, 1], 50.0)
        assert machine.nodes[0].power_cap is None
        assert store.dirty == {2, 5}

    def test_cap_listener_fires_once_instead(self):
        # One row call lifts the caps of the whole cohort and marks exactly
        # its rows.
        machine = Machine(MachineSpec(name="bare", nodes=8, nodes_per_cabinet=4))
        store = machine.store
        store.set_caps([1, 6], 150.0)
        store.dirty.clear()
        store.set_caps(range(3), None)
        assert store.dirty == {0, 1, 2}
        assert [n.power_cap for n in machine.nodes[:3]] == [None, None, None]
        assert machine.nodes[6].power_cap == 150.0


# ----------------------------------------------------------------------
# Powered-set helper shared by the capping policies
# ----------------------------------------------------------------------
class TestPoweredCapCohort:
    def _sim(self, policy):
        machine = Machine(MachineSpec(name="p", nodes=12, nodes_per_cabinet=4))
        machine.nodes[0].idle_power = 130.0
        sim = ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        for row, state in ((1, NodeState.OFF), (2, NodeState.DOWN)):
            machine.nodes[row].state = state
        machine.nodes[3].state = NodeState.BOOTING
        return sim

    def test_caps_exactly_the_powered_nodes(self):
        policy = SiteBudgetPolicy(limit_watts=900.0)
        sim = self._sim(policy)
        policy.on_tick(0.0)
        nodes = sim.machine.nodes
        powered = [n for n in nodes if n.is_on]
        assert len(powered) == 10
        # 900 W / 10 nodes = 90 W, raised to the highest floor (130 W).
        assert all(n.power_cap == 130.0 for n in powered)
        assert nodes[1].power_cap is None and nodes[2].power_cap is None

    def test_even_share_above_floor(self):
        policy = SiteBudgetPolicy(limit_watts=2000.0)
        sim = self._sim(policy)
        policy.on_tick(0.0)
        assert {n.power_cap for n in sim.machine.nodes if n.is_on} == {200.0}

    def test_nothing_powered_caps_nothing(self):
        machine = Machine(MachineSpec(name="p", nodes=4, nodes_per_cabinet=4))
        for node in machine.nodes:
            node.state = NodeState.OFF
        policy = SiteBudgetPolicy(limit_watts=500.0)
        ClusterSimulation(machine, FcfsScheduler(), [], policies=[policy])
        policy.on_tick(0.0)
        assert not policy._caps_applied
        assert all(n.power_cap is None for n in machine.nodes)

    def test_demand_response_uses_the_same_rule(self):
        schedule = GridEventSchedule([
            DemandResponseEvent(start=0.0, end=3600.0, limit_watts=900.0)
        ])
        policy = DemandResponsePolicy(schedule)
        sim = self._sim(policy)
        policy.on_tick(10.0)
        assert policy._caps_applied
        assert {n.power_cap for n in sim.machine.nodes if n.is_on} == {130.0}
