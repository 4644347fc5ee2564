"""Equivalence sweeps for the free-node release curve and its kernels,
and for the SoA execution-membership arrays.

:func:`repro.core.backfill.release_curve` must build exactly the curve
of the list-based ``ReferenceFreeNodeProfile.from_releases`` in
``tests/backfill_oracles.py`` — the earlier implementation preserved
as an executable spec — and the numpy planner kernels must match their
plain-python twins.  Hypothesis drives randomized release lists
through both and compares breakpoints, counts and raised errors.

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
from repro.core.backfill import release_curve
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
    _ensure_point_list,
    earliest_fit_index_py,
)

# ----------------------------------------------------------------------
# Strategies: randomized release lists
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e5,
                   allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=64)

# Release lists with duplicate timestamps and at/before-origin folds
# all reachable; origin -inf is the EASY shadow curve.
_releases = st.lists(st.tuples(_times, _counts), min_size=0, max_size=48)
_origins = st.one_of(_times, st.just(float("-inf")))


class TestProfileEquivalence:
    @given(origin=_origins, free_now=_counts, releases=_releases)
    @settings(max_examples=200, deadline=None)
    def test_randomized_sequences_decision_identical(
        self, origin, free_now, releases
    ):
        times, free = release_curve(origin, free_now, releases)
        ref = ReferenceFreeNodeProfile.from_releases(origin, free_now, releases)
        assert times == ref.times
        assert free == ref.free
        assert all(type(f) is int for f in free)

    @given(origin=_times, free_now=_counts, releases=_releases,
           at=st.integers(min_value=0, max_value=48))
    @settings(max_examples=30, deadline=None)
    def test_error_paths_match(self, origin, free_now, releases, at):
        # A negative count anywhere in the list, folded into the base
        # or not, is refused by both.
        releases = list(releases)
        releases.insert(min(at, len(releases)), (origin + 1.0, -1))
        for build in (release_curve, ReferenceFreeNodeProfile.from_releases):
            with pytest.raises(SchedulingError):
                build(origin, free_now, releases)
            with pytest.raises(SchedulingError):
                build(origin + 2.0, free_now, releases)


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
        # Fresh points inside each segment and past the tail, plus
        # every existing breakpoint (found, nothing inserted).
        points = [float(rng.uniform(base_t[i - 1], base_t[i]))
                  for i in range(1, n)]
        points += [float(base_t[-1]) + 1.0] + base_t.tolist()
        for x in points:
            times = np.concatenate([base_t, [0.0]])
            free = np.concatenate([base_f, [0]])
            idx, new_n = kernels._ensure_point_arr(times, free, n, x)
            lt = base_t.tolist()
            lf = base_f.tolist()
            assert idx == _ensure_point_list(lt, lf, x)
            assert new_n == len(lt)
            assert times[:new_n].tolist() == lt
            assert free[:new_n].tolist() == lf


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
        rows = np.asarray(execution.node_ids, dtype=np.intp)
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
