"""Randomized deep-queue equivalence sweeps for the backfill passes.

The array-screened passes in :mod:`repro.core.backfill` — the EASY
cumulative-sum screen and the conservative
:func:`repro.power.kernels.plan_conservative_np` pass with its cross-pass
curve cache — must be decision-for-decision identical to the seed
schedulers in ``tests/backfill_oracles.py``.  Hypothesis drives
randomized deep queues (hundreds of pending jobs, mixed moldable and
rigid, random running-set release curves) through both and compares
start decisions and reservation sets, with no admission attached and
with a vetoing admission predicate whose call sequence must match the
oracle's call for call.

The queues are built through a real :class:`JobQueue` so the sweeps
also exercise the JobTable gather that feeds ``ctx.pending_arrays``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    JobQueue,
    PredictiveEasyScheduler,
    SchedulingContext,
)
from repro.core.backfill import release_curve
from repro.core.scheduler import RunningJobInfo
from repro.power import kernels
from repro.prediction import UserRuntimePredictor
from repro.workload import Job
from repro.workload.job import MoldableConfig
from tests.backfill_oracles import (
    ReferenceConservativeBackfillScheduler,
    ReferenceEasyBackfillScheduler,
    ReferencePredictiveEasyScheduler,
    plan_conservative_py,
)
from tests.conftest import make_selection

_NODES = 256

# Walltimes drawn from a small grid so release/end collisions (equal
# curve timestamps) are common — the merge paths differ most there.
_WALL_GRID = [300.0, 600.0, 900.0, 1800.0, 3600.0, 7200.0]

_USERS = ["alice", "bob", "carol", "dave"]


def _machine() -> Machine:
    return Machine(MachineSpec(name="sweep", nodes=_NODES, nodes_per_cabinet=32))


def _build_workload(seed: int, depth: int, busy_fraction: float):
    """A deep queue plus a running set on one machine, from one seed."""
    rng = np.random.default_rng(seed)
    machine = _machine()

    n_busy = int(_NODES * busy_fraction)
    running = []
    next_node = 0
    j = 0
    while next_node < n_busy:
        width = int(rng.integers(1, 33))
        ids = list(range(next_node, min(next_node + width, n_busy)))
        next_node += len(ids)
        job = Job(
            job_id=f"run{j}",
            nodes=len(ids),
            work_seconds=1e4,
            walltime_request=1e4,
            submit_time=0.0,
            user=_USERS[j % len(_USERS)],
        )
        job.start(0.0, ids)
        for nid in ids:
            machine.node(nid).transition(NodeState.BUSY, 0.0)
        end = float(rng.choice(_WALL_GRID))
        running.append(RunningJobInfo(job, tuple(ids), end))
        j += 1

    queue = JobQueue()
    for i in range(depth):
        nodes = int(rng.integers(1, 65))
        wall = float(rng.choice(_WALL_GRID))
        moldable = ()
        if rng.random() < 0.3:
            moldable = (
                MoldableConfig(nodes=nodes, work_seconds=wall),
                MoldableConfig(nodes=max(1, nodes // 2), work_seconds=wall * 1.5),
            )
        queue.submit(
            Job(
                job_id=f"j{i:04d}",
                nodes=nodes,
                work_seconds=wall,
                walltime_request=wall,
                submit_time=float(i),
                priority=int(rng.integers(0, 4)),
                moldable=moldable,
                user=_USERS[i % len(_USERS)],
            )
        )
    return machine, queue, running


def _ctx(machine, queue, running, now=0.0, arrays=True, admit=None):
    return SchedulingContext(
        now=now,
        machine=machine,
        pending=queue.pending(),
        selection=make_selection(machine),
        running=list(running),
        admit=admit,
        usable_node_count=len(machine.nodes),
        pending_arrays=queue.pending_arrays() if arrays else None,
    )


def _vetoing_admit(seed: int, log: list):
    """Admission that vetoes a seeded ~third of the jobs and logs every
    call, so sweeps can compare call sequences."""
    salt = seed % 3

    def admit(job):
        log.append(job.job_id)
        return (int(job.job_id[-3:]) + salt) % 3 != 0

    return admit


def _decision_key(decisions):
    return [(d.job.job_id, tuple(n.node_id for n in d.nodes)) for d in decisions]


def _assert_same_pass(fast, ref, machine, queue, running, seed, now=0.0):
    """Run *fast* and the oracle *ref* over the same context, both with
    a vetoing admission; decisions and admit-call sequences must
    match."""
    fast_calls, ref_calls = [], []
    got = fast.schedule(_ctx(
        machine, queue, running, now=now,
        admit=_vetoing_admit(seed, fast_calls),
    ))
    want = ref.schedule(_ctx(
        machine, queue, running, now=now, arrays=False,
        admit=_vetoing_admit(seed, ref_calls),
    ))
    assert _decision_key(got) == _decision_key(want)
    assert fast_calls == ref_calls
    return fast_calls


class TestConservativeSweep:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           busy=st.floats(min_value=0.5, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_reference_decisions(self, seed, busy):
        machine, queue, running = _build_workload(seed, depth=500, busy_fraction=busy)
        fast = ConservativeBackfillScheduler()
        got = fast.schedule(_ctx(machine, queue, running))
        ref = ReferenceConservativeBackfillScheduler().schedule(
            _ctx(machine, queue, running, arrays=False)
        )
        assert _decision_key(got) == _decision_key(ref)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           vetoing=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_reservation_sets_match_reference_path(self, seed, vetoing):
        # Full-pass mode (no early stop) so every pending job plans a
        # reservation; the kernel must produce the same (start, end,
        # nodes) multiset as the seed loop, vetoed jobs included.
        machine, queue, running = _build_workload(seed, depth=500, busy_fraction=0.9)
        fast = ConservativeBackfillScheduler()
        # Instance attributes shadow the class-level debug switches, so
        # nothing leaks into other tests.
        fast.stop_early = False
        fast.capture_reservations = True
        ref = ReferenceConservativeBackfillScheduler()
        if vetoing:
            _assert_same_pass(fast, ref, machine, queue, running, seed)
        else:
            fast.schedule(_ctx(machine, queue, running))
            ref.schedule(_ctx(machine, queue, running, arrays=False))
        assert sorted(fast.last_reservations) == sorted(ref.last_reservations)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_cache_hit_rounds_match_fresh_reference(self, seed):
        # Consecutive passes over a growing backlog with no starts in
        # between: the second and third pass take the cross-pass cache
        # path (catch-up from cache.planned) and must still match a
        # fresh reference scheduler run from scratch.
        machine, queue, running = _build_workload(seed, depth=300, busy_fraction=1.0)
        fast = ConservativeBackfillScheduler()
        rng = np.random.default_rng(seed + 1)
        for round_no, now in enumerate((0.0, 10.0, 20.0)):
            got = fast.schedule(_ctx(machine, queue, running, now=now))
            ref = ReferenceConservativeBackfillScheduler().schedule(
                _ctx(machine, queue, running, now=now, arrays=False)
            )
            assert _decision_key(got) == _decision_key(ref), f"round {round_no}"
            # Tail-append a few jobs; the monotone backlog keeps the
            # cached plan prefix valid for the catch-up path.
            for k in range(3):
                wall = float(rng.choice(_WALL_GRID))
                queue.submit(Job(
                    job_id=f"t{round_no}-{k}",
                    nodes=int(rng.integers(1, 65)),
                    work_seconds=wall,
                    walltime_request=wall,
                    submit_time=1e6 + round_no,
                ))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           depth=st.sampled_from([1, 8, 40, 120]),
           busy=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_vetoing_admit_matches_reference(self, seed, depth, busy):
        # Every job that can ever run is admitted or vetoed once, in
        # queue order — the seed's call sequence — whether or not the
        # plan's early stop reaches it.
        machine, queue, running = _build_workload(seed, depth=depth, busy_fraction=busy)
        calls = _assert_same_pass(
            ConservativeBackfillScheduler(),
            ReferenceConservativeBackfillScheduler(),
            machine, queue, running, seed,
        )
        assert calls  # the predicate was actually consulted

    def test_vetoed_pass_does_not_feed_the_cache(self):
        # An admission-bearing pass must not leave a plan behind that a
        # later admission-free pass would resume from: the cached plan
        # has no notion of vetoes.
        machine, queue, running = _build_workload(5, depth=200, busy_fraction=1.0)
        fast = ConservativeBackfillScheduler()
        fast.schedule(_ctx(machine, queue, running, admit=lambda job: False))
        assert not fast._cache.valid
        got = fast.schedule(_ctx(machine, queue, running, now=10.0))
        ref = ReferenceConservativeBackfillScheduler().schedule(
            _ctx(machine, queue, running, now=10.0, arrays=False)
        )
        assert _decision_key(got) == _decision_key(ref)


class TestEasySweep:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           depth=st.sampled_from([5, 63, 64, 500]),
           busy=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_reference_decisions(self, seed, depth, busy):
        # Depths on both sides of the screen threshold, no admission.
        machine, queue, running = _build_workload(seed, depth=depth, busy_fraction=busy)
        got = EasyBackfillScheduler().schedule(_ctx(machine, queue, running))
        ref = ReferenceEasyBackfillScheduler().schedule(
            _ctx(machine, queue, running, arrays=False)
        )
        assert _decision_key(got) == _decision_key(ref)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           depth=st.sampled_from([1, 5, 20, 63, 64, 65, 200, 500]),
           busy=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_vetoing_admit_matches_reference(self, seed, depth, busy):
        # Shallow and deep queues alike: admission is consulted up to
        # the first misfit in phase 1 (stopping at the first veto) and
        # on every tail job that fits the shrinking pool in phase 3.
        machine, queue, running = _build_workload(seed, depth=depth, busy_fraction=busy)
        _assert_same_pass(
            EasyBackfillScheduler(),
            ReferenceEasyBackfillScheduler(),
            machine, queue, running, seed,
        )


def _predictor(seed: int) -> UserRuntimePredictor:
    """A predictor with seeded per-user accuracy ratios (one user left
    unlearned, so the request itself is the estimate)."""
    rng = np.random.default_rng(seed)
    predictor = UserRuntimePredictor()
    for user in _USERS[:-1]:
        predictor._ratio_by_user[user] = float(rng.uniform(0.05, 1.0))
    return predictor


class TestPredictiveEasySweep:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           depth=st.sampled_from([1, 20, 64, 300]),
           busy=st.floats(min_value=0.0, max_value=1.0),
           now=st.sampled_from([0.0, 500.0, 6000.0]),
           vetoing=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hooks_match_reference_loop(self, seed, depth, busy, now, vetoing):
        # Running jobs started at t=0, so later passes see expired
        # predictions and exercise the Tsafrir-corrected release end.
        machine, queue, running = _build_workload(seed, depth=depth, busy_fraction=busy)
        predictor = _predictor(seed)
        fast = PredictiveEasyScheduler(predictor=predictor)
        ref = ReferencePredictiveEasyScheduler(predictor=predictor)
        if vetoing:
            _assert_same_pass(fast, ref, machine, queue, running, seed, now=now)
        else:
            got = fast.schedule(_ctx(machine, queue, running, now=now))
            want = ref.schedule(_ctx(machine, queue, running, now=now, arrays=False))
            assert _decision_key(got) == _decision_key(want)


# ----------------------------------------------------------------------
# plan_conservative kernel twins (numpy kernel vs python oracle)
# ----------------------------------------------------------------------
def _plan_inputs(seed, m=40, stop_early=True):
    rng = np.random.default_rng(seed)
    now = float(rng.uniform(0.0, 100.0))
    pool_free = int(rng.integers(0, 128))
    capacity = 256
    releases = sorted(
        (now + float(rng.choice(_WALL_GRID)), int(rng.integers(1, 32)))
        for _ in range(int(rng.integers(0, 12)))
    )
    curve_t, curve_f = release_curve(now, pool_free, releases)
    n = len(curve_t)
    times = np.empty(n + 2 * m, dtype=np.float64)
    free = np.empty(n + 2 * m, dtype=np.int64)
    times[:n] = curve_t
    free[:n] = curve_f
    nodes_req = rng.integers(1, 65, size=m).astype(np.int64)
    wall = rng.choice(_WALL_GRID, size=m).astype(np.float64)
    sfx_nodes = np.minimum.accumulate(nodes_req[::-1])[::-1].copy()
    sfx_wall = np.minimum.accumulate(wall[::-1])[::-1].copy()
    return dict(
        times=times, free=free, n=n, nodes_req=nodes_req, wall=wall,
        sfx_nodes=sfx_nodes, sfx_wall=sfx_wall, k0=0, now=now,
        pool_free=pool_free, capacity=capacity, monotone=True,
        stop_early=stop_early, admitted=None,
        starts_out=np.empty(m, dtype=np.int64),
        resv_out=np.empty((m, 3), dtype=np.float64),
    ), rng.random(m) < 0.7


def _run_plan(fn, inp):
    inp = {k: (v.copy() if isinstance(v, np.ndarray) else v)
           for k, v in inp.items()}
    out = fn(**inp)
    n, planned, pool_free, minf, monotone, n_starts, n_resv = out
    return (
        planned, pool_free, minf, monotone,
        inp["times"][:n].tolist(), inp["free"][:n].tolist(),
        inp["starts_out"][:n_starts].tolist(),
        inp["resv_out"][:n_resv].tolist(),
    )


class TestPlanConservativeTwins:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("stop_early", [True, False])
    def test_np_matches_py(self, seed, stop_early):
        inp, mask = _plan_inputs(seed, stop_early=stop_early)
        for admitted in (None, mask):
            inp["admitted"] = admitted
            assert _run_plan(kernels.plan_conservative_np, inp) == \
                _run_plan(plan_conservative_py, inp)
