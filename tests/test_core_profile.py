"""Free-node release curve unit tests + scheduler equivalence property
tests.

Both backfill schedulers plan on the curve built by
:func:`repro.core.backfill.release_curve`.  The EASY/conservative
schedulers must return exactly the decisions of the seed
implementations preserved in ``tests/backfill_oracles.py`` — same
jobs, same nodes, same order, and the same admission-predicate call
sequence.  The property tests below drive both through hundreds of
randomized scheduling contexts (mixed running/pending jobs, stale
release estimates, duplicate release times, admission vetoes,
boot-limited capacity) and compare decision for decision.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    SchedulingContext,
)
from repro.core.backfill import release_curve
from repro.core.scheduler import RunningJobInfo
from repro.cluster import Machine, MachineSpec, NodeState
from repro.errors import SchedulingError
from repro.power import kernels
from tests.backfill_oracles import (
    ReferenceConservativeBackfillScheduler,
    ReferenceEasyBackfillScheduler,
)
from tests.conftest import make_job, make_selection


# ----------------------------------------------------------------------
# Free-node curve unit tests
# ----------------------------------------------------------------------
class TestFreeNodeProfile:
    """The free-node profile both schedulers start from: the release
    curve, and the earliest-fit scan the conservative planner runs
    over it once reservations are subtracted."""

    def test_empty_profile_is_flat(self):
        assert release_curve(0.0, 7, []) == ([0.0], [7])

    def test_releases_fold_at_or_before_origin(self):
        # Stale estimates (time <= origin) raise the base count, like
        # the seed's free_at() summing every delta with time <= t.
        times, free = release_curve(
            100.0, 2, [(50.0, 3), (100.0, 1), (200.0, 4)]
        )
        assert times == [100.0, 200.0]
        assert free == [6, 10]

    def test_duplicate_release_times_consolidate(self):
        times, free = release_curve(0.0, 0, [(20.0, 1), (10.0, 2), (10.0, 3)])
        assert times == [0.0, 10.0, 20.0]
        assert free == [0, 5, 6]

    def test_negative_release_guard(self):
        with pytest.raises(SchedulingError):
            release_curve(0.0, 4, [(10.0, -2)])
        # Also when the negative release would fold into the base.
        with pytest.raises(SchedulingError):
            release_curve(100.0, 4, [(10.0, -2)])

    def test_earliest_fit_monotone_binary_search(self):
        # On a bare release curve (never decreasing) the earliest fit
        # is the first breakpoint at the level, whatever the duration:
        # the planner's monotone shortcut is a binary search.
        times, free = release_curve(0.0, 1, [(10.0, 2), (30.0, 4)])
        t, f = np.array(times), np.array(free)
        for needed, want in ((1, 0), (3, 1), (7, 2), (8, -1)):
            assert kernels.earliest_fit_index_np(t, f, needed, 100.0) == want
            lo = int(f.searchsorted(needed, side="left"))
            assert (lo if lo < len(f) else -1) == want

    def test_earliest_fit_skips_too_short_gaps(self):
        # 5 free only during [10, 40): a 50s job must wait until the
        # reservation ends, a 20s job fits in the gap.
        times = np.array([0.0, 10.0, 40.0, 90.0])
        free = np.array([2, 5, 3, 5])
        fit = kernels.earliest_fit_index_np
        assert times[fit(times, free, 5, 20.0)] == 10.0
        assert times[fit(times, free, 5, 50.0)] == 90.0
        assert times[fit(times, free, 4, 1000.0)] == 90.0
        assert fit(times, free, 6, 1.0) == -1


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
        return SchedulingContext(
            now=0.0,
            machine=machine,
            pending=pending,
            selection=make_selection(machine),
            running=running,
            admit=lambda job: True,
            usable_node_count=len(machine.nodes),
        )

    def _running(self, machine, node_ids, end):
        job = make_job(job_id="r0", nodes=len(node_ids), work=end, walltime=end)
        job.start(0.0, list(node_ids))
        for nid in node_ids:
            machine.node(nid).transition(NodeState.BUSY, 0.0)
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

    def test_stale_release_sets_shadow_and_spare(self):
        # A running job past its expected end (t=-50 < now=0) stays a
        # breakpoint of its own: the head reaches its level there, so
        # the shadow is that stale time and the spare count includes
        # the stale release (6 + 10 - 12 = 4).
        machine = self._machine()
        job = make_job(job_id="r0", nodes=10, walltime=1000.0)
        job.start(0.0, list(range(10)))
        for nid in range(10):
            machine.node(nid).transition(NodeState.BUSY, 0.0)
        stale = RunningJobInfo(job, tuple(range(10)), -50.0)
        pending = [
            make_job(job_id="head", nodes=12, walltime=500.0),
            # Cannot end before a past shadow; fits the 4 spare nodes.
            make_job(job_id="wide", nodes=4, walltime=1000.0),
            # Spare is used up by "wide".
            make_job(job_id="narrow", nodes=2, walltime=1000.0),
        ]
        decisions = EasyBackfillScheduler().schedule(
            self._ctx(machine, pending, [stale])
        )
        assert [d.job.job_id for d in decisions] == ["wide"]


# ----------------------------------------------------------------------
# Property-based equivalence: curve schedulers vs seed references
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
    avail_ids = [i for i in range(n_nodes) if i not in busy]

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
        [n_nodes, n_nodes, n_nodes + 4, max(len(avail_ids) - 2, 1)]
    )
    return SchedulingContext(
        now=now,
        machine=machine,
        pending=pending,
        selection=make_selection(machine, avail_ids),
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
