"""Cohort node transitions: unit contract + pinned end-to-end results.

``NodeStore.transition`` over a cohort must be *decision-identical* to
a loop of per-node ``Node.transition`` calls — same columns, same state
counts, same dirty rows.  The scalar state machine stays the executable
spec for that unit contract.  End to end, the simulation is pinned to
literal result and snapshot fingerprints; each pinned value was
recorded while the engine still carried a per-node lifecycle path and
was asserted equal to it, so a drift here means the cohort engine no
longer matches that spec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import (
    ClusterSimulation,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FirstFitAllocator,
    LowPowerAllocator,
)
from repro.errors import ClusterError, NodeStateError
from repro.cluster.node import COLUMNS, STATE_CODES
from repro.power.vector import VectorPowerMirror
from repro.power.model import NodePowerModel
from repro.policies import DynamicProvisioningPolicy, IdleShutdownPolicy
from repro.simulator.rng import RngStreams
from repro.state import (
    restore,
    result_fingerprint,
    run_checkpointed,
    sim_fingerprint,
    snapshot,
)
from repro.workload import WorkloadGenerator, WorkloadSpec

from .power_oracles import simulation_watts
from .state_scenarios import step_until


def small_machine(n: int = 16) -> Machine:
    return Machine(MachineSpec(name="m", nodes=n, nodes_per_cabinet=4))


# ----------------------------------------------------------------------
# NodeStore.transition contract
# ----------------------------------------------------------------------
class TestTransitionBulk:
    def test_matches_scalar_loop(self):
        bulk, scalar = small_machine(), small_machine()
        ids = [3, 1, 7]
        bulk.store.transition(ids, NodeState.SHUTTING_DOWN, 50.0)
        for nid in ids:
            scalar.node(nid).transition(NodeState.SHUTTING_DOWN, 50.0)
        for m in (bulk, scalar):
            for nid in ids:
                node = m.node(nid)
                assert node.state is NodeState.SHUTTING_DOWN
                assert node.last_state_change == 50.0
                assert node.idle_since is None
        assert_same_store(bulk, scalar)

    def test_idle_target_stamps_idle_since(self):
        machine = small_machine()
        machine.store.transition([0, 1], NodeState.BUSY, 10.0)
        machine.store.transition([0, 1], NodeState.IDLE, 25.0)
        assert all(machine.node(i).idle_since == 25.0 for i in (0, 1))

    def test_atomic_on_illegal_member(self):
        machine = small_machine()
        machine.node(2).transition(NodeState.SHUTTING_DOWN, 5.0)
        # Node 2 cannot go BUSY: the whole cohort must fail untouched.
        with pytest.raises(NodeStateError):
            machine.store.transition([0, 1, 2], NodeState.BUSY, 10.0)
        assert machine.node(0).state is NodeState.IDLE
        assert machine.node(1).state is NodeState.IDLE
        assert machine.node(2).state is NodeState.SHUTTING_DOWN

    def test_unknown_id_fails_before_mutating(self):
        machine = small_machine()
        with pytest.raises(Exception):
            machine.store.transition([0, 999], NodeState.BUSY, 1.0)
        assert machine.node(0).state is NodeState.IDLE

    def test_duplicate_id_fails_before_mutating(self):
        machine = small_machine()
        machine.store.dirty.clear()
        with pytest.raises(ClusterError, match="lists node 3 twice"):
            machine.store.transition([1, 3, 3], NodeState.BUSY, 1.0)
        assert machine.node(1).state is NodeState.IDLE
        assert machine.node(3).state is NodeState.IDLE
        assert machine.store.dirty == set()

    def test_fallback_fires_per_node_listeners_in_order(self):
        # The per-node path is the spec: a cohort row call leaves the same
        # columns, counts and dirty rows as per-node transitions in order.
        bulk, scalar = small_machine(), small_machine()
        for m in (bulk, scalar):
            m.store.dirty.clear()
        bulk.store.transition([5, 2, 9], NodeState.BUSY, 1.0)
        for nid in (5, 2, 9):
            scalar.node(nid).transition(NodeState.BUSY, 1.0)
        assert bulk.store.dirty == {2, 5, 9}
        assert_same_store(bulk, scalar)

    def test_bulk_listener_fires_once_instead(self):
        # One row call marks exactly its own rows; an empty cohort writes
        # nothing.
        machine = small_machine()
        machine.store.dirty.clear()
        machine.store.transition([4, 6], NodeState.BUSY, 2.0)
        assert machine.store.dirty == {4, 6}
        assert machine.node(4).last_state_change == 2.0
        machine.store.transition([], NodeState.IDLE, 3.0)
        assert machine.store.dirty == {4, 6}
        busy = STATE_CODES[NodeState.BUSY]
        assert machine.store.counts[busy] == 2


def assert_same_store(a: Machine, b: Machine) -> None:
    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(a.store, column), getattr(b.store, column), err_msg=column
        )
    assert a.store.dirty == b.store.dirty
    assert a.store.counts == b.store.counts
    assert a.store.counts == np.bincount(
        a.store.state_code, minlength=len(STATE_CODES)
    ).tolist()


# ----------------------------------------------------------------------
# One cohort row call == per-row transitions, fold included
# ----------------------------------------------------------------------
class TestTransitionRows:
    def test_matches_per_row_transitions(self):
        rng = np.random.default_rng(9)
        bulk_m, scalar_m = small_machine(), small_machine()
        bulk = VectorPowerMirror(bulk_m, NodePowerModel())
        scalar = VectorPowerMirror(scalar_m, NodePowerModel())
        bulk.machine_watts()
        scalar.machine_watts()

        legal = {
            NodeState.IDLE: [NodeState.BUSY, NodeState.SHUTTING_DOWN],
            NodeState.BUSY: [NodeState.IDLE],
            NodeState.SHUTTING_DOWN: [NodeState.OFF],
            NodeState.OFF: [NodeState.BOOTING],
            NodeState.BOOTING: [NodeState.IDLE],
        }
        for step in range(40):
            time = float(step)
            state = bulk_m.node(0).state  # cohorts share one state here
            pool = [
                n.node_id for n in bulk_m.nodes if n.state is state
            ]
            k = int(rng.integers(1, max(2, len(pool))))
            ids = rng.choice(pool, size=min(k, len(pool)), replace=False).tolist()
            target = legal[state][int(rng.integers(len(legal[state])))]

            bulk_m.store.transition(np.asarray(ids), target, time)
            for nid in ids:
                scalar_m.node(nid).transition(target, time)

            assert_same_store(bulk_m, scalar_m)
            assert bulk.machine_watts() == scalar.machine_watts()

            # Keep every node in lockstep so cohorts stay same-state.
            for m in (bulk_m, scalar_m):
                rest = [n.node_id for n in m.nodes if n.node_id not in ids]
                m.store.transition(rest, target, time)


# ----------------------------------------------------------------------
# End-to-end: the cohort engine against pinned spec fingerprints
# ----------------------------------------------------------------------
#: ``result_fingerprint`` of each scheduler x allocator churn run.
PINNED_RESULTS = {
    ("easy", "first-fit"):
        "40e3e7c225abf7a3ea4c7d468844ff2319d7aa25f2e7f54cc13444005ebd4f28",
    ("easy", "low-power"):
        "9677ae4ef3d98a402d9921a88e4a02db9b7d3ec46131f49016958828cc24397c",
    ("conservative", "first-fit"):
        "2002eb9c80a38b46ba3813985028a4b6c40f54205efa6f5c2ae7c09fe0db0b91",
    ("conservative", "low-power"):
        "52c3c3409dc48903146fb50bcafe9a086c6771f23344bbb494638be74f4ab6a4",
}
#: ``sim_fingerprint`` of the default churn run at each mid-run cut.
PINNED_CUTS = {
    3600.0: "6e99f129057dc39d1347cb033ebdd3d3253ba6f663a3be67520a7426e6066225",
    10800.0: "58f4b55d191762f3839d53384587629d1403526e61acc21dab90828f80d07bbd",
    21600.0: "590dfc189e139e2a8fdd9e3b586a0dd16ccb2cf9b8a74b8ea908422895471530",
}
PINNED_SNAPSHOT_7200 = (
    "5e3d6e48c10cffa0dda6deb439752934332054a6ade46e1d63e83a7d30296003"
)
PINNED_PROVISIONING = (
    "d7ec276a57b9a89b80c674ad0d445acf854ab41b237801557f7a86b00e6fe130"
)


def churn_sim(
    scheduler: str = "easy",
    allocator: str = "low-power",
    seed: int = 13,
) -> ClusterSimulation:
    """64-node machine under wide-job churn with lifecycle policies:
    job starts/teardowns, cohort shutdowns and boots all exercised."""
    sched_cls = {
        "easy": EasyBackfillScheduler,
        "conservative": ConservativeBackfillScheduler,
    }[scheduler]
    alloc_cls = {
        "first-fit": FirstFitAllocator,
        "low-power": LowPowerAllocator,
    }[allocator]
    machine = Machine(MachineSpec(name="churn", nodes=64, nodes_per_cabinet=8))
    # Variability with deliberate ties: the low-power tie-break by id
    # must agree between the scalar sort and the argpartition path.
    rng = np.random.default_rng(seed + 1)
    for node, v in zip(
        machine.nodes,
        rng.choice([0.94, 0.97, 1.0, 1.03], size=len(machine.nodes)),
    ):
        node.variability = float(v)
    spec = WorkloadSpec(
        arrival_rate=80.0 / 3600.0,
        duration=8 * 3600.0,
        min_nodes=4,
        max_nodes=32,
        mean_work=1800.0,
    )
    jobs = WorkloadGenerator(spec, RngStreams(seed).stream("wl")).generate(
        count=60
    )
    return ClusterSimulation(
        machine,
        sched_cls(alloc_cls()),
        jobs,
        policies=[
            IdleShutdownPolicy(
                idle_threshold=300.0, min_spare=4, check_interval=120.0
            ),
        ],
        seed=seed,
    )


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("scheduler", ["easy", "conservative"])
    @pytest.mark.parametrize("allocator", ["first-fit", "low-power"])
    def test_results_identical(self, scheduler, allocator):
        got = result_fingerprint(
            churn_sim(scheduler=scheduler, allocator=allocator).run()
        )
        assert got == PINNED_RESULTS[scheduler, allocator]

    # The vector mirror is the only power backend; its folded total
    # must agree with the per-node spec after every cohort event.
    @pytest.mark.parametrize("backend", ["vector"])
    def test_backends_agree_under_bulk(self, backend):
        bulk = churn_sim()
        assert bulk.power_vector is not None, backend
        bulk.prepare()
        checked = 0
        while not bulk.all_jobs_terminal and bulk.sim.step():
            spec = simulation_watts(bulk)
            assert bulk.machine_power() == pytest.approx(spec, rel=1e-9), (
                bulk.sim.now
            )
            checked += 1
        assert checked > 0
        assert bulk.rm.shutdowns_initiated > 0

    def test_midrun_state_fingerprints_match(self):
        # Listener-order-sensitive power cache state: the canonical
        # snapshot includes the mirror's per-row watts cache, cached
        # total and dirty set, so any drift in how bulk events fold
        # into the cache shows up here, not just in end results.
        bulk = churn_sim()
        bulk.prepare()
        for cut, expected in PINNED_CUTS.items():
            step_until(bulk, cut)
            assert sim_fingerprint(bulk) == expected, cut

    def test_provisioning_policy_equivalent(self):
        sim_obj = churn_sim(seed=29)
        sim_obj.add_policy(
            DynamicProvisioningPolicy(cap_watts=12000.0, check_interval=240.0)
        )
        assert result_fingerprint(sim_obj.run()) == PINNED_PROVISIONING


class TestSnapshotRoundTrip:
    def test_bulk_run_restores_bit_identical(self):
        ref = result_fingerprint(churn_sim().run())
        donor = step_until(churn_sim(), 7200.0)
        st = snapshot(donor)
        restored = restore(st, churn_sim)
        assert result_fingerprint(run_checkpointed(restored)) == ref
        assert result_fingerprint(run_checkpointed(donor)) == ref

    def test_bulk_snapshot_equals_scalar_snapshot(self):
        # The pinned digest is the per-node spec's snapshot at the cut.
        bulk = step_until(churn_sim(), 7200.0)
        assert sim_fingerprint(bulk) == PINNED_SNAPSHOT_7200
