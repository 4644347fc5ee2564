"""Equivalence sweeps for the array-backed free-node profile and the
SoA execution-membership arrays.

The array :class:`repro.core.profile.FreeNodeProfile` (numpy backing
and kernels) must be decision-for-decision identical to the
list-based ``ReferenceFreeNodeProfile`` of ``tests/backfill_oracles.py``
— the PR-2 implementation preserved verbatim as an executable spec.
Hypothesis drives randomized release/reserve/query sequences through
both and compares every observable: step points, free counts, query
answers, raised errors.

The second half pins the SoA execution membership
(``exec_slot`` rows + slot table) across snapshot/restore taken
mid-run, with executions in flight.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec
from repro.core import ClusterSimulation, EasyBackfillScheduler
from repro.core.profile import FreeNodeProfile
from repro.errors import SchedulingError
from repro.power import kernels
from repro.state import (
    restore,
    result_fingerprint,
    run_checkpointed,
    snapshot,
    state_fingerprint,
)
from repro.workload import Job
from tests.backfill_oracles import (
    ReferenceFreeNodeProfile,
    earliest_fit_index_py,
)

# ----------------------------------------------------------------------
# Strategies: randomized build + operation sequences
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e5,
                   allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=64)

# Release lists crossing the vectorized from_releases threshold (16)
# in both directions, with duplicate timestamps and at/before-origin
# folds all reachable.
_releases = st.lists(st.tuples(_times, _counts), min_size=0, max_size=40)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _times, _counts),
        st.tuples(st.just("reserve"), _times,
                  st.floats(min_value=0.0, max_value=5e4,
                            allow_nan=False, allow_infinity=False),
                  st.integers(min_value=1, max_value=32)),
        st.tuples(st.just("fit"), st.integers(min_value=0, max_value=128),
                  st.floats(min_value=0.0, max_value=5e4,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("at_least"), st.integers(min_value=0, max_value=128),
                  _times),
        st.tuples(st.just("free_at"), _times),
    ),
    min_size=0, max_size=30,
)


def _assert_same_profile(arr: FreeNodeProfile,
                         ref: ReferenceFreeNodeProfile) -> None:
    assert len(arr) == len(ref)
    assert arr.times.tolist() == ref.times
    assert arr.free.tolist() == ref.free
    assert arr.tail_time == ref.tail_time


class TestProfileEquivalence:
    @given(origin=_times, free_now=_counts, releases=_releases, ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_randomized_sequences_decision_identical(
        self, origin, free_now, releases, ops
    ):
        arr = FreeNodeProfile.from_releases(origin, free_now, releases)
        ref = ReferenceFreeNodeProfile.from_releases(origin, free_now, releases)
        _assert_same_profile(arr, ref)

        for op in ops:
            kind = op[0]
            if kind == "add":
                _, time, count = op
                arr.add_release(time, count)
                ref.add_release(time, count)
            elif kind == "reserve":
                _, start, dur, count = op
                start = max(start, origin)
                arr.reserve(start, start + dur, count)
                ref.reserve(start, start + dur, count)
            elif kind == "fit":
                _, needed, dur = op
                got, want = arr.earliest_fit(needed, dur), ref.earliest_fit(
                    needed, dur)
                assert got == want
                assert got is None or type(got) is float
            elif kind == "at_least":
                _, needed, not_before = op
                if arr._monotone:
                    got = arr.earliest_at_least(needed, not_before)
                    want = ref.earliest_at_least(needed, not_before)
                    assert got == want
                    assert got is None or type(got) is float
            else:
                _, time = op
                got, want = arr.free_at(time), ref.free_at(time)
                assert got == want and type(got) is int
            _assert_same_profile(arr, ref)

    @given(origin=_times, free_now=_counts)
    @settings(max_examples=30, deadline=None)
    def test_error_paths_match(self, origin, free_now):
        arr = FreeNodeProfile(origin, free_now)
        ref = ReferenceFreeNodeProfile(origin, free_now)
        for prof in (arr, ref):
            with pytest.raises(SchedulingError):
                prof.add_release(origin + 1.0, -1)
            with pytest.raises(SchedulingError):
                prof.reserve(origin + 1.0, origin + 2.0, 0)
            with pytest.raises(SchedulingError):
                prof.reserve(origin - 1.0, origin + 1.0, 1)
            prof.reserve(origin + 1.0, origin + 2.0, 1)
            with pytest.raises(SchedulingError):
                prof.earliest_at_least(1, origin)
        _assert_same_profile(arr, ref)

    @given(releases=st.lists(st.tuples(_times, _counts),
                             min_size=16, max_size=48))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_from_releases_matches_fold(self, releases):
        """Above the vectorization threshold the np.unique/cumsum build
        must equal the one-by-one reference fold exactly."""
        arr = FreeNodeProfile.from_releases(0.0, 5, releases)
        ref = ReferenceFreeNodeProfile.from_releases(0.0, 5, releases)
        _assert_same_profile(arr, ref)


# ----------------------------------------------------------------------
# Kernel twins: numpy vs pure-python
# ----------------------------------------------------------------------
def _random_step(rng):
    n = int(rng.integers(1, 40))
    times = np.sort(rng.uniform(0.0, 1e4, size=n)).astype(np.float64)
    times = np.unique(times)
    free = rng.integers(-8, 64, size=times.size).astype(np.int64)
    return times, free


class TestEarliestFitKernelTwins:
    @pytest.mark.parametrize("seed", range(12))
    def test_np_matches_py(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            times, free = _random_step(rng)
            needed = int(rng.integers(0, 40))
            duration = float(rng.uniform(0.0, 5e3))
            assert kernels.earliest_fit_index_np(
                times, free, needed, duration
            ) == earliest_fit_index_py(times, free, needed, duration)


class TestInsertPointKernelTwins:
    @pytest.mark.parametrize("seed", range(8))
    def test_np_matches_list_insert(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        base_t = np.sort(rng.uniform(0.0, 100.0, size=n))
        base_f = rng.integers(0, 50, size=n).astype(np.int64)
        for idx in range(1, n):
            t = float(rng.uniform(base_t[idx - 1], base_t[idx]))
            times = np.concatenate([base_t, [0.0]])
            free = np.concatenate([base_f, [0]])
            kernels.insert_point_np(times, free, n, idx, t)
            lt = base_t.tolist()
            lf = base_f.tolist()
            lt.insert(idx, t)
            lf.insert(idx, lf[idx - 1])
            assert times.tolist() == lt
            assert free.tolist() == lf


# ----------------------------------------------------------------------
# SoA execution membership across snapshot/restore
# ----------------------------------------------------------------------
def _build(seed):
    machine = Machine(MachineSpec(name="soa", nodes=16, nodes_per_cabinet=4))
    jobs = [
        Job(
            job_id=f"j{i}",
            nodes=1 + (i % 5),
            work_seconds=400.0 + 80.0 * i,
            walltime_request=4000.0,
            submit_time=20.0 * i,
        )
        for i in range(12)
    ]
    return ClusterSimulation(
        machine, EasyBackfillScheduler(), jobs, seed=seed,
    )


def _assert_exec_arrays_consistent(csim):
    mirror = csim.power_vector
    bound_rows = set()
    for execution in csim._executions.values():
        slot = execution.slot
        assert slot >= 0
        assert csim._exec_slots[slot] is execution
        rows = mirror.rows_for(execution.node_ids)
        assert (mirror.exec_slot[rows] == slot).all()
        assert (mirror.exec_slot[rows] >= 0).all()
        bound_rows.update(rows.tolist())
        for node_id in execution.node_ids:
            assert csim.execution_on(node_id) is execution
    unbound = np.setdiff1d(
        np.arange(len(csim.machine.nodes)), np.fromiter(
            bound_rows, dtype=np.intp, count=len(bound_rows))
    )
    assert (mirror.exec_slot[unbound] == -1).all()


class TestSoAExecutionSnapshot:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_mid_run_restore_rebuilds_exec_arrays(self, seed):
        factory = functools.partial(_build, seed)
        reference = result_fingerprint(factory().run())

        sim = factory()
        sim.prepare()
        # Step to a cut with executions in flight.
        while sim.sim.now < 300.0 and not sim.all_jobs_terminal:
            if not sim.sim.step():
                break
        assert sim._executions, "cut must land with jobs running"
        _assert_exec_arrays_consistent(sim)

        st_a = snapshot(sim)
        restored = restore(st_a, factory)
        _assert_exec_arrays_consistent(restored)
        # Restore is a fingerprint fixed point and replays to the
        # uninterrupted result.
        assert state_fingerprint(snapshot(restored)) == state_fingerprint(st_a)
        assert result_fingerprint(run_checkpointed(restored)) == reference

    def test_slots_recycle_through_freelist(self):
        sim = _build(1)
        sim.run()
        # All executions torn down: every row unbound, all slots freed.
        mirror = sim.power_vector
        assert (mirror.exec_slot == -1).all()
        assert not sim._executions
        assert all(e is None for e in sim._exec_slots)
        assert sorted(sim._free_slots) == list(range(len(sim._exec_slots)))
