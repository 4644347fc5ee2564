"""FreeNodeProfile unit tests + scheduler equivalence property tests.

The profile-based EASY/conservative schedulers must return exactly the
decisions of the seed implementations preserved in
``tests/backfill_oracles.py`` — same jobs, same nodes, same order,
and the same admission-predicate call sequence.  The property tests
below drive both through hundreds of randomized scheduling contexts
(mixed running/pending jobs, stale release estimates, duplicate
release times, admission vetoes, boot-limited capacity) and compare
decision for decision.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    SchedulingContext,
)
from repro.core.profile import FreeNodeProfile
from repro.core.scheduler import RunningJobInfo
from repro.cluster import Machine, MachineSpec
from repro.errors import SchedulingError
from tests.backfill_oracles import (
    ReferenceConservativeBackfillScheduler,
    ReferenceEasyBackfillScheduler,
)
from tests.conftest import make_job


# ----------------------------------------------------------------------
# FreeNodeProfile unit tests
# ----------------------------------------------------------------------
class TestFreeNodeProfile:
    def test_empty_profile_is_flat(self):
        p = FreeNodeProfile.from_releases(0.0, 7, [])
        assert p.free_at(0.0) == 7
        assert p.free_at(1e9) == 7
        assert p.tail_time == 0.0
        assert len(p) == 1
        assert p.earliest_fit(7, 100.0) == 0.0
        assert p.earliest_fit(8, 100.0) is None

    def test_releases_fold_at_or_before_origin(self):
        # Stale estimates (time <= origin) raise the base count, like
        # the seed's free_at() summing every delta with time <= t.
        p = FreeNodeProfile.from_releases(100.0, 2, [(50.0, 3), (100.0, 1), (200.0, 4)])
        assert p.free_at(100.0) == 6
        assert p.free_at(199.9) == 6
        assert p.free_at(200.0) == 10
        assert len(p) == 2

    def test_duplicate_release_times_consolidate(self):
        p = FreeNodeProfile.from_releases(0.0, 0, [(10.0, 2), (10.0, 3), (20.0, 1)])
        assert len(p) == 3  # origin, 10, 20
        assert p.free_at(10.0) == 5
        assert p.free_at(20.0) == 6

    def test_negative_release_guard(self):
        with pytest.raises(SchedulingError):
            FreeNodeProfile.from_releases(0.0, 4, [(10.0, -2)])
        p = FreeNodeProfile(0.0, 4)
        with pytest.raises(SchedulingError):
            p.add_release(10.0, -1)

    def test_reserve_count_guard(self):
        p = FreeNodeProfile(0.0, 4)
        with pytest.raises(SchedulingError):
            p.reserve(0.0, 10.0, 0)
        with pytest.raises(SchedulingError):
            p.reserve(0.0, 10.0, -3)
        with pytest.raises(SchedulingError):
            p.reserve(-5.0, 10.0, 1)  # before origin

    def test_reserve_subtracts_over_window_only(self):
        p = FreeNodeProfile.from_releases(0.0, 4, [(100.0, 4)])
        p.reserve(10.0, 50.0, 3)
        assert p.free_at(0.0) == 4
        assert p.free_at(10.0) == 1
        assert p.free_at(49.9) == 1
        assert p.free_at(50.0) == 4
        assert p.free_at(100.0) == 8

    def test_tail_reservation_extends_profile(self):
        # Reserving past the last breakpoint splits the constant tail.
        p = FreeNodeProfile.from_releases(0.0, 2, [(10.0, 6)])
        p.reserve(500.0, 900.0, 5)
        assert p.free_at(499.0) == 8
        assert p.free_at(500.0) == 3
        assert p.free_at(899.0) == 3
        assert p.free_at(900.0) == 8
        assert p.tail_time == 900.0

    def test_earliest_fit_monotone_binary_search(self):
        p = FreeNodeProfile.from_releases(0.0, 1, [(10.0, 2), (30.0, 4)])
        assert p.earliest_fit(1, 100.0) == 0.0
        assert p.earliest_fit(3, 100.0) == 10.0
        assert p.earliest_fit(7, 100.0) == 30.0
        assert p.earliest_fit(8, 100.0) is None

    def test_earliest_fit_skips_too_short_gaps(self):
        # 5 free only during [10, 40): a 50s job must wait until the
        # reservation ends, a 20s job fits in the gap.
        p = FreeNodeProfile(0.0, 5)
        p.reserve(0.0, 10.0, 3)
        p.reserve(40.0, 90.0, 2)
        assert p.earliest_fit(5, 20.0) == 10.0
        assert p.earliest_fit(5, 50.0) == 90.0
        assert p.earliest_fit(4, 1000.0) == 90.0

    def test_earliest_at_least_requires_monotone(self):
        p = FreeNodeProfile(0.0, 5)
        p.reserve(10.0, 20.0, 2)
        with pytest.raises(SchedulingError):
            p.earliest_at_least(5, 0.0)

    def test_earliest_at_least_reports_stale_breakpoints(self):
        # With origin -inf, a release before "now" stays an explicit
        # breakpoint and earliest_at_least may return a past time —
        # the EASY shadow computation compares against it verbatim.
        p = FreeNodeProfile.from_releases(float("-inf"), 2, [(50.0, 4)])
        assert p.earliest_at_least(6, 100.0) == 50.0
        assert p.earliest_at_least(2, 100.0) == 100.0
        assert p.earliest_at_least(7, 100.0) is None


# ----------------------------------------------------------------------
# EASY phase-2 merged-profile regression (duplicate release times)
# ----------------------------------------------------------------------
class TestEasyMergedProfileShadow:
    """Pin the shadow time when a phase-1 grant's release coincides
    with a running job's release: both deltas must merge into one
    breakpoint, giving shadow = that time exactly."""

    def _machine(self):
        return Machine(MachineSpec(name="tiny", nodes=16, nodes_per_cabinet=4))

    def _ctx(self, machine, pending, running):
        available = [n for n in machine.nodes if n.is_available]
        return SchedulingContext(
            now=0.0,
            machine=machine,
            pending=pending,
            available=available,
            running=running,
            admit=lambda job: True,
            usable_node_count=len(machine.nodes),
        )

    def _running(self, machine, node_ids, end):
        job = make_job(job_id="r0", nodes=len(node_ids), work=end, walltime=end)
        job.start(0.0, list(node_ids))
        for nid in node_ids:
            machine.node(nid).assign("r0", 0.0)
        return RunningJobInfo(job, tuple(node_ids), end)

    def test_filler_ending_at_merged_shadow_starts(self):
        machine = self._machine()
        running = self._running(machine, list(range(10)), end=1000.0)
        pending = [
            # Starts in phase 1; its release (t=1000) duplicates the
            # running job's release time in the merged profile.
            make_job(job_id="j0", nodes=2, walltime=1000.0),
            # Head needs the whole machine: shadow is the single merged
            # breakpoint t=1000 where 4 + 10 + 2 = 16 nodes free.
            make_job(job_id="head", nodes=16, walltime=500.0),
            # Ends exactly at the shadow: allowed.
            make_job(job_id="filler", nodes=4, walltime=1000.0),
        ]
        decisions = EasyBackfillScheduler().schedule(
            self._ctx(machine, pending, [running])
        )
        assert [d.job.job_id for d in decisions] == ["j0", "filler"]

    def test_filler_straddling_merged_shadow_blocked(self):
        machine = self._machine()
        running = self._running(machine, list(range(10)), end=1000.0)
        pending = [
            make_job(job_id="j0", nodes=2, walltime=1000.0),
            make_job(job_id="head", nodes=16, walltime=500.0),
            # One second past the shadow, and spare is 16-16=0: blocked.
            make_job(job_id="straddler", nodes=4, walltime=1001.0),
        ]
        decisions = EasyBackfillScheduler().schedule(
            self._ctx(machine, pending, [running])
        )
        assert [d.job.job_id for d in decisions] == ["j0"]


# ----------------------------------------------------------------------
# Property-based equivalence: profile schedulers vs seed references
# ----------------------------------------------------------------------
def _random_context(rng: random.Random, machine: Machine, veto_log: list):
    """Randomized SchedulingContext exercising the documented hazards:
    stale release estimates (< now), duplicate release times, admission
    vetoes, oversized jobs, and boot-limited capacity where
    usable_node_count exceeds len(available)."""
    n_nodes = len(machine.nodes)
    now = rng.choice([0.0, 100.0, 1234.5])

    n_busy = rng.randint(0, n_nodes - 1)
    busy_ids = rng.sample(range(n_nodes), n_busy)
    running = []
    i = 0
    while i < len(busy_ids):
        k = min(rng.randint(1, 6), len(busy_ids) - i)
        ids = tuple(busy_ids[i : i + k])
        i += k
        # Small offset palette to force duplicate release times; a
        # negative offset models a stale walltime estimate already
        # exceeded (job still running past its expected end).
        end = now + rng.choice([-50.0, 10.0, 60.0, 60.0, 120.0, 300.0, 900.0])
        job = make_job(job_id=f"r{i}", nodes=k, work=100.0, walltime=1000.0)
        running.append(RunningJobInfo(job, ids, end))

    busy = set(busy_ids)
    available = [n for n in machine.nodes if n.node_id not in busy]

    pending = []
    for j in range(rng.randint(1, 20)):
        nodes = rng.randint(1, n_nodes + 2)  # occasionally impossible
        wall = rng.choice([30.0, 60.0, 60.0, 110.0, 240.0, 600.0])
        pending.append(
            make_job(job_id=f"p{j}", nodes=nodes, work=wall, walltime=wall)
        )

    vetoed = set(
        rng.sample([j.job_id for j in pending], rng.randint(0, len(pending) // 2))
    )

    def admit(job):
        veto_log.append(job.job_id)
        return job.job_id not in vetoed

    usable = rng.choice(
        [n_nodes, n_nodes, n_nodes + 4, max(len(available) - 2, 1)]
    )
    return SchedulingContext(
        now=now,
        machine=machine,
        pending=pending,
        available=available,
        running=running,
        admit=admit,
        usable_node_count=usable,
    )


def _decision_key(decisions):
    return [
        (d.job.job_id, tuple(n.node_id for n in d.nodes)) for d in decisions
    ]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "fast_cls,ref_cls",
    [
        (EasyBackfillScheduler, ReferenceEasyBackfillScheduler),
        (ConservativeBackfillScheduler, ReferenceConservativeBackfillScheduler),
    ],
    ids=["easy", "conservative"],
)
def test_profile_scheduler_matches_reference(seed, fast_cls, ref_cls):
    rng = random.Random(9000 + seed)
    for trial in range(25):
        machine = Machine(
            MachineSpec(
                name="prop",
                nodes=rng.choice([8, 16, 24, 48]),
                nodes_per_cabinet=4,
            )
        )
        admit_log: list = []
        ctx = _random_context(rng, machine, admit_log)
        fast = _decision_key(fast_cls().schedule(ctx))
        split = len(admit_log)
        ref = _decision_key(ref_cls().schedule(ctx))
        assert fast == ref, f"seed={seed} trial={trial}: {fast} != {ref}"
        # Admission predicate consulted for the same jobs in the same
        # order by both implementations.
        assert admit_log[:split] == admit_log[split:], (
            f"seed={seed} trial={trial}: admit() call sequences differ"
        )
