"""Kernel layer equivalence: numpy kernels vs the engine code they
were extracted from.

These tests pin each kernel in :mod:`repro.power.kernels` against the
engine code it was extracted from (``operating_points``, the list
profile's deque scan) and the mirror's bulk transition scatter against
its documented contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.power import kernels
from repro.power.model import NodePowerModel
from repro.power.vector import STATE_CODES, VectorPowerMirror
from tests.backfill_oracles import (
    ReferenceFreeNodeProfile,
    earliest_fit_index_py,
)


def random_mirror(seed: int, n: int = 96) -> VectorPowerMirror:
    """A mirror whose columns cover every kernel branch: all six
    states, finite and +inf caps (including caps below idle power),
    heterogeneous variability, clamped frequencies, zero utilization.

    The randomness goes into the nodes, whose columns the mirror reads;
    utilization has no node field (it comes from the bound job), so it
    is written into the mirror column directly.
    """
    rng = np.random.default_rng(seed)
    machine = Machine(MachineSpec(name="k", nodes=n, nodes_per_cabinet=8))
    states = list(STATE_CODES)
    for node in machine.nodes:
        node.state = states[int(rng.integers(len(states)))]
        node.variability = float(rng.uniform(0.9, 1.1))
        node.frequency = float(
            rng.uniform(node.min_frequency, node.max_frequency)
        )
        kind = rng.integers(3)
        if kind == 1:  # binding: between idle and peak draw
            node.power_cap = float(
                rng.uniform(node.idle_power, node.max_power)
            )
        elif kind == 2:  # below idle (set past the setter's guard)
            node.power_cap = float(rng.uniform(0.8, 1.0) * node.idle_power)
    mirror = VectorPowerMirror(machine, NodePowerModel())
    mirror.utilization[:] = np.where(
        rng.random(n) < 0.2, 0.0, rng.uniform(0.2, 1.0, size=n)
    )
    # The branches are really there.
    store = machine.store
    assert set(store.state_code.tolist()) == set(STATE_CODES.values())
    capped = np.isfinite(store.power_cap)
    assert capped.any() and not capped.all()
    assert (store.power_cap < store.idle_power).any()
    assert (store.variability != 1.0).all()
    assert (store.frequency < store.max_frequency).any()
    assert (mirror.utilization == 0.0).any()
    return mirror


class TestNodeWatts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reference_matches_operating_points(self, seed):
        mirror = random_mirror(seed)
        model = mirror.model
        store = mirror.store
        got = kernels.node_watts_np(
            store.state_code,
            store.idle_power,
            store.max_power,
            store.off_power,
            store.variability,
            store.frequency,
            store.min_frequency,
            store.max_frequency,
            store.power_cap,
            mirror.utilization,
            model.alpha,
            model.boot_power_fraction,
            model.shutdown_power_fraction,
        )
        ref = mirror.operating_points().watts
        # Bitwise: the kernel is the extracted watts column, not an
        # approximation of it.
        np.testing.assert_array_equal(got, ref)

    def test_machine_watts_uses_kernel(self, seed=5):
        mirror = random_mirror(seed)
        total = mirror.machine_watts()
        assert total == float(np.sum(mirror.operating_points().watts))


class TestEarliestFit:
    @staticmethod
    def random_profile(rng) -> ReferenceFreeNodeProfile:
        """A reserved (non-monotone) list profile: 40 releases, then a
        few reservations subtracted."""
        profile = ReferenceFreeNodeProfile.from_releases(
            0.0,
            int(rng.integers(0, 8)),
            [
                (float(t), int(c))
                for t, c in zip(
                    np.cumsum(rng.uniform(1.0, 50.0, size=40)),
                    rng.integers(0, 6, size=40),
                )
            ],
        )
        for _ in range(int(rng.integers(1, 8))):
            start = float(rng.uniform(0.0, profile.times[-1]))
            end = start + float(rng.uniform(1.0, 400.0))
            profile.reserve(start, end, int(rng.integers(1, 4)))
        return profile

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_buffer_matches_deque_scan(self, seed):
        rng = np.random.default_rng(seed)
        profile = self.random_profile(rng)
        free_l = profile.free
        assert any(b < a for a, b in zip(free_l, free_l[1:]))  # reserved
        times = np.array(profile.times, dtype=np.float64)
        free = np.array(profile.free, dtype=np.int64)
        for _ in range(25):
            needed = int(rng.integers(1, 12))
            duration = float(rng.uniform(0.0, 600.0))
            ref = profile.earliest_fit(needed, duration)
            for idx in (
                earliest_fit_index_py(profile.times, profile.free,
                                      needed, duration),
                kernels.earliest_fit_index_np(times, free, needed, duration),
            ):
                got = None if idx < 0 else profile.times[idx]
                assert got == ref, (needed, duration)


class TestApplyTransition:
    def test_scatters_in_place(self):
        machine = Machine(MachineSpec(name="t", nodes=8, nodes_per_cabinet=4))
        mirror = VectorPowerMirror(machine, NodePowerModel())
        store = machine.store
        state, idle_since = store.state_code, store.idle_since
        busy, idle = STATE_CODES[NodeState.BUSY], STATE_CODES[NodeState.IDLE]
        rows = np.array([1, 4, 6], dtype=np.intp)
        store.transition(rows, NodeState.BUSY, 10.0)
        assert store.state_code is state  # scattered, not reallocated
        assert state.tolist() == [idle, busy, idle, idle, busy, idle, busy, idle]
        # Transitions move state only; execution membership stays put.
        assert (mirror.exec_slot == -1).all()
        assert np.isnan(idle_since[rows]).all()
        assert store.counts[busy] == 3
        store.transition(rows, NodeState.IDLE, 42.0)
        assert state[rows].tolist() == [idle] * 3
        assert idle_since[rows].tolist() == [42.0, 42.0, 42.0]
        assert (mirror.exec_slot == -1).all()
        assert store.counts[busy] == 0

