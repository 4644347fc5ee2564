"""Property-based tests: checkpoint round trips (repro.state).

Two layers:

* the RPST serializer round-trips arbitrary state trees losslessly and
  canonically;
* snapshot -> restore is a fixed point, and a restored simulation
  finishes identically to the uninterrupted one for randomized
  workloads, schedulers and cut points.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec
from repro.core import ClusterSimulation, EasyBackfillScheduler, FcfsScheduler
from repro.state import (
    STATE_SCHEMA_VERSION,
    SimState,
    diff_states,
    from_bytes,
    restore,
    result_fingerprint,
    run_checkpointed,
    snapshot,
    state_fingerprint,
    to_bytes,
)
from repro.workload import Job

# ----------------------------------------------------------------------
# Serializer properties
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),  # NaN != NaN breaks tree equality, tested separately
    st.text(max_size=20),
)

arrays = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
             max_size=8).map(np.array),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=8).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
)

trees = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.text(max_size=8).filter(lambda s: not s.startswith("__")),
            children, max_size=4,
        ),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=20,
)


class TestSerializerProperties:
    @given(st.dictionaries(st.text(min_size=1, max_size=8).filter(
        lambda s: not s.startswith("__")), trees, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_lossless(self, data):
        state = SimState(STATE_SCHEMA_VERSION, "prop", data)
        back = from_bytes(to_bytes(state))
        assert diff_states(state, back) == []

    @given(st.dictionaries(st.text(min_size=1, max_size=8).filter(
        lambda s: not s.startswith("__")), trees, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_canonical(self, data):
        state = SimState(STATE_SCHEMA_VERSION, "prop", data)
        blob = to_bytes(state)
        assert to_bytes(from_bytes(blob)) == blob


# ----------------------------------------------------------------------
# Simulation round-trip properties
# ----------------------------------------------------------------------
_SCHEDULERS = {"fcfs": FcfsScheduler, "easy": EasyBackfillScheduler}


def build_random(seed, scheduler, shapes):
    machine = Machine(MachineSpec(name="prop", nodes=8, nodes_per_cabinet=4))
    jobs = [
        Job(
            job_id=f"p{i}",
            nodes=nodes,
            work_seconds=work,
            walltime_request=4.0 * work + 100.0,
            submit_time=submit,
        )
        for i, (nodes, work, submit) in enumerate(shapes)
    ]
    return ClusterSimulation(
        machine, _SCHEDULERS[scheduler](), jobs, seed=seed,
    )


job_shapes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=50.0, max_value=2000.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=3000.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=8,
)


class TestSimulationRoundTripProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scheduler=st.sampled_from(["fcfs", "easy"]),
        shapes=job_shapes,
        cut=st.floats(min_value=10.0, max_value=2500.0,
                      allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_restore_is_fixed_point_and_finish_identical(
        self, seed, scheduler, shapes, cut
    ):
        factory = functools.partial(build_random, seed, scheduler, shapes)
        reference = result_fingerprint(factory().run())

        sim = factory()
        sim.prepare()
        while sim.sim.now < cut and not sim.all_jobs_terminal:
            if not sim.sim.step():
                break
        st_a = snapshot(sim)
        restored = restore(st_a, factory)
        assert state_fingerprint(snapshot(restored)) == state_fingerprint(st_a)
        assert result_fingerprint(run_checkpointed(restored)) == reference
        assert result_fingerprint(run_checkpointed(sim)) == reference

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        shapes=job_shapes,
        cuts=st.lists(
            st.floats(min_value=10.0, max_value=2000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=3,
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_chained_checkpoints_finish_identical(self, seed, shapes, cuts):
        """Snapshot, restore, run to the next cut, snapshot again, ...:
        a chain of restores still lands on the reference result."""
        factory = functools.partial(build_random, seed, "fcfs", shapes)
        reference = result_fingerprint(factory().run())
        sim = factory()
        sim.prepare()
        for cut in sorted(cuts):
            while sim.sim.now < cut and not sim.all_jobs_terminal:
                if not sim.sim.step():
                    break
            sim = restore(snapshot(sim), factory)
        assert result_fingerprint(run_checkpointed(sim)) == reference
