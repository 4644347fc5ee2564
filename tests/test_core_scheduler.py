"""Tests for FCFS and backfilling schedulers (decision logic only)."""

import pytest

from repro.cluster import NodeState
from repro.core import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FairShareScheduler,
    FcfsScheduler,
    FirstFitAllocator,
    PredictiveEasyScheduler,
    SchedulingContext,
)
from repro.core.scheduler import RunningJobInfo
from tests.conftest import make_job, make_selection


def ctx(machine, pending, running=(), admit=None, now=0.0):
    """Build a SchedulingContext from terse inputs."""
    return SchedulingContext(
        now=now,
        machine=machine,
        pending=list(pending),
        selection=make_selection(machine),
        running=list(running),
        admit=admit or (lambda job: True),
        usable_node_count=len(machine.nodes),
    )


def occupy(machine, node_ids, job_id="running", end=1000.0):
    """Mark nodes busy and return the RunningJobInfo."""
    job = make_job(job_id=job_id, nodes=len(node_ids), work=end, walltime=end)
    job.start(0.0, list(node_ids))
    for nid in node_ids:
        machine.node(nid).transition(NodeState.BUSY, 0.0)
    return RunningJobInfo(job, tuple(node_ids), end)


class TestFcfs:
    def test_starts_in_order(self, small_machine):
        jobs = [make_job(job_id=f"j{i}", nodes=4, submit=i) for i in range(3)]
        decisions = FcfsScheduler().schedule(ctx(small_machine, jobs))
        assert [d.job.job_id for d in decisions] == ["j0", "j1", "j2"]

    def test_blocks_behind_big_job(self, small_machine):
        jobs = [
            make_job(job_id="big", nodes=32),  # larger than the machine
            make_job(job_id="small", nodes=1),
        ]
        decisions = FcfsScheduler().schedule(ctx(small_machine, jobs))
        assert decisions == []

    def test_admission_veto_blocks(self, small_machine):
        jobs = [make_job(job_id="a", nodes=1), make_job(job_id="b", nodes=1)]
        decisions = FcfsScheduler().schedule(
            ctx(small_machine, jobs, admit=lambda j: j.job_id != "a")
        )
        assert decisions == []

    def test_no_double_allocation(self, small_machine):
        jobs = [make_job(job_id=f"j{i}", nodes=8) for i in range(3)]
        decisions = FcfsScheduler().schedule(ctx(small_machine, jobs))
        assert len(decisions) == 2  # 16 nodes hold two 8-node jobs
        used = [n.node_id for d in decisions for n in d.nodes]
        assert len(used) == len(set(used))


class TestEasyBackfill:
    def test_backfills_around_blocked_head(self, small_machine):
        running = occupy(small_machine, list(range(12)), end=1000.0)
        jobs = [
            make_job(job_id="head", nodes=8, walltime=500.0),   # needs 8, only 4 free
            make_job(job_id="filler", nodes=2, walltime=400.0),  # ends before shadow
        ]
        decisions = EasyBackfillScheduler().schedule(
            ctx(small_machine, jobs, running=[running])
        )
        assert [d.job.job_id for d in decisions] == ["filler"]

    def test_does_not_delay_head_reservation(self, small_machine):
        # Head needs all 16 nodes at t=1000 (when the runner ends).
        running = occupy(small_machine, list(range(12)), end=1000.0)
        jobs = [
            make_job(job_id="head", nodes=16, walltime=500.0),
            make_job(job_id="long", nodes=4, walltime=5000.0),  # would straddle
        ]
        decisions = EasyBackfillScheduler().schedule(
            ctx(small_machine, jobs, running=[running])
        )
        # 'long' uses the 4 free nodes, but they are needed at shadow:
        # spare = 16(free at shadow) - 16(head) = 0, and it ends after
        # the shadow, so it must NOT start.
        assert decisions == []

    def test_spare_nodes_allow_long_backfill(self, small_machine):
        # Head needs only 12 at shadow; 4 spare nodes exist.
        running = occupy(small_machine, list(range(12)), end=1000.0)
        jobs = [
            make_job(job_id="head", nodes=12, walltime=500.0),
            make_job(job_id="long", nodes=4, walltime=5000.0),
        ]
        decisions = EasyBackfillScheduler().schedule(
            ctx(small_machine, jobs, running=[running])
        )
        assert [d.job.job_id for d in decisions] == ["long"]

    def test_starts_everything_when_it_fits(self, small_machine):
        jobs = [make_job(job_id=f"j{i}", nodes=4) for i in range(4)]
        decisions = EasyBackfillScheduler().schedule(ctx(small_machine, jobs))
        assert len(decisions) == 4

    def test_impossible_head_does_not_block_others(self, small_machine):
        jobs = [
            make_job(job_id="impossible", nodes=99),
            make_job(job_id="ok", nodes=2, walltime=100.0),
        ]
        decisions = EasyBackfillScheduler().schedule(ctx(small_machine, jobs))
        assert [d.job.job_id for d in decisions] == ["ok"]

    def test_admission_blocked_head_conservative_backfill(self, small_machine):
        # Head vetoed by admission with plenty of nodes: backfill may
        # use only currently spare nodes.
        jobs = [
            make_job(job_id="head", nodes=4),
            make_job(job_id="ok", nodes=2, walltime=100.0),
        ]
        decisions = EasyBackfillScheduler().schedule(
            ctx(small_machine, jobs, admit=lambda j: j.job_id != "head")
        )
        assert [d.job.job_id for d in decisions] == ["ok"]


class TestConservativeBackfill:
    def test_starts_when_fits(self, small_machine):
        jobs = [make_job(job_id="a", nodes=8), make_job(job_id="b", nodes=8)]
        decisions = ConservativeBackfillScheduler().schedule(
            ctx(small_machine, jobs)
        )
        assert len(decisions) == 2

    def test_reservations_protect_every_job(self, small_machine):
        running = occupy(small_machine, list(range(12)), end=1000.0)
        jobs = [
            make_job(job_id="first", nodes=16, walltime=500.0),
            make_job(job_id="second", nodes=8, walltime=500.0),
            # This one would delay 'second' if started (4 free nodes,
            # ends after second's reserved start).
            make_job(job_id="greedy", nodes=4, walltime=50_000.0),
        ]
        decisions = ConservativeBackfillScheduler().schedule(
            ctx(small_machine, jobs, running=[running])
        )
        assert decisions == []

    def test_harmless_backfill_allowed(self, small_machine):
        running = occupy(small_machine, list(range(12)), end=1000.0)
        jobs = [
            make_job(job_id="head", nodes=16, walltime=500.0),
            make_job(job_id="short", nodes=2, walltime=300.0),
        ]
        decisions = ConservativeBackfillScheduler().schedule(
            ctx(small_machine, jobs, running=[running])
        )
        assert [d.job.job_id for d in decisions] == ["short"]

    def test_oversized_job_skipped(self, small_machine):
        jobs = [make_job(job_id="huge", nodes=999), make_job(job_id="ok", nodes=1)]
        decisions = ConservativeBackfillScheduler().schedule(
            ctx(small_machine, jobs)
        )
        assert [d.job.job_id for d in decisions] == ["ok"]

    def test_infeasible_reservation_does_not_delay_later_jobs(
        self, small_machine
    ):
        # Regression: a job that fits nowhere on the free-node profile
        # (8 of 16 nodes shutting down, so only 8 can free up) used to
        # be reserved at the profile end anyway, driving the profile
        # negative and pushing the 4-node job behind it into a future
        # reservation even though 8 nodes are idle right now.
        from repro.cluster.node import NodeState

        for node in small_machine.nodes[:8]:
            node.transition(NodeState.SHUTTING_DOWN, 0.0)
        jobs = [
            make_job(job_id="big", nodes=12, walltime=500.0),
            make_job(job_id="small", nodes=4, walltime=500.0),
        ]
        decisions = ConservativeBackfillScheduler().schedule(
            ctx(small_machine, jobs)
        )
        assert [d.job.job_id for d in decisions] == ["small"]


class _PassCountingAllocator(FirstFitAllocator):
    def __init__(self):
        self.passes = []

    def begin_pass(self, now):
        self.passes.append(now)


@pytest.mark.parametrize(
    "scheduler_cls",
    [
        FcfsScheduler,
        EasyBackfillScheduler,
        ConservativeBackfillScheduler,
        FairShareScheduler,
        PredictiveEasyScheduler,
    ],
)
@pytest.mark.parametrize("vetoing", [False, True])
def test_begin_pass_once_per_schedule(small_machine, scheduler_cls, vetoing):
    # The Allocator contract: begin_pass runs once at the top of every
    # pass, before any select, whatever the pass ends up deciding.
    allocator = _PassCountingAllocator()
    scheduler = scheduler_cls(allocator=allocator)
    running = [occupy(small_machine, list(range(8)), end=500.0)]
    jobs = [
        make_job(job_id="a", nodes=4, walltime=100.0),
        make_job(job_id="head", nodes=16, walltime=100.0),
        make_job(job_id="b", nodes=2, walltime=100.0),
    ]
    admit = (lambda job: job.job_id != "b") if vetoing else None
    for now in (0.0, 50.0):
        scheduler.schedule(
            SchedulingContext(
                now=now,
                machine=small_machine,
                pending=list(jobs),
                selection=make_selection(small_machine),
                running=running,
                admit=admit,
                usable_node_count=len(small_machine.nodes),
            )
        )
    assert allocator.passes == [0.0, 50.0]
