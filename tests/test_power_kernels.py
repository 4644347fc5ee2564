"""Kernel layer equivalence: numpy kernels vs the engine code they
were extracted from.

These tests pin each kernel in :mod:`repro.power.kernels` against the
engine code it was extracted from (``operating_points``, the profile's
deque scan) and the mirror's bulk transition scatter against its
documented contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core.profile import FreeNodeProfile
from repro.power import kernels
from repro.power.model import NodePowerModel
from repro.power.vector import STATE_CODES, VectorPowerMirror


def random_mirror(seed: int, n: int = 96) -> VectorPowerMirror:
    """A mirror whose SoA columns cover every kernel branch: all six
    states, finite and +inf caps (including caps below idle power),
    heterogeneous variability, clamped frequencies, zero utilization.

    The randomness goes into the nodes, which the mirror reads when it
    is built; utilization has no node field (it comes from the bound
    job), so it is written into the mirror column directly.
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
    assert set(mirror.state_code.tolist()) == set(STATE_CODES.values())
    capped = np.isfinite(mirror.power_cap)
    assert capped.any() and not capped.all()
    assert (mirror.power_cap < mirror.idle_power).any()
    assert (mirror.variability != 1.0).all()
    assert (mirror.frequency < mirror.max_frequency).any()
    assert (mirror.utilization == 0.0).any()
    return mirror


class TestNodeWatts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reference_matches_operating_points(self, seed):
        mirror = random_mirror(seed)
        model = mirror.model
        got = kernels.node_watts_np(
            mirror.state_code,
            mirror.idle_power,
            mirror.max_power,
            mirror.off_power,
            mirror.variability,
            mirror.frequency,
            mirror.min_frequency,
            mirror.max_frequency,
            mirror.power_cap,
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
    def random_profile(rng) -> FreeNodeProfile:
        profile = FreeNodeProfile.from_releases(
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
            start = float(rng.uniform(0.0, profile.tail_time))
            end = start + float(rng.uniform(1.0, 400.0))
            profile.reserve(start, end, int(rng.integers(1, 4)))
        return profile

    @pytest.mark.parametrize("seed", range(8))
    def test_ring_buffer_matches_deque_scan(self, seed):
        rng = np.random.default_rng(seed)
        profile = self.random_profile(rng)
        assert not profile._monotone
        for _ in range(25):
            needed = int(rng.integers(1, 12))
            duration = float(rng.uniform(0.0, 600.0))
            ref = profile.earliest_fit(needed, duration)
            idx = kernels.earliest_fit_index_py(
                profile.times, profile.free, needed, duration
            )
            got = None if idx < 0 else profile.times[idx]
            assert got == ref, (needed, duration)



class TestApplyTransition:
    def test_scatters_in_place(self):
        machine = Machine(MachineSpec(name="t", nodes=8, nodes_per_cabinet=4))
        mirror = VectorPowerMirror(machine, NodePowerModel())
        state, idle_since, bound = (
            mirror.state_code, mirror.idle_since, mirror.bound_jobs
        )
        busy, idle = STATE_CODES[NodeState.BUSY], STATE_CODES[NodeState.IDLE]
        rows = np.array([1, 4, 6], dtype=np.intp)
        mirror.transition_rows(rows, busy, 10.0)
        assert mirror.state_code is state  # scattered, not reallocated
        assert state.tolist() == [idle, busy, idle, idle, busy, idle, busy, idle]
        assert bound.tolist() == [0, 1, 0, 0, 1, 0, 1, 0]
        assert np.isnan(idle_since[rows]).all()
        assert mirror.lifecycle_view(10.0).count_in_state(busy) == 3
        mirror.transition_rows(rows, idle, 42.0)
        assert state[rows].tolist() == [idle] * 3
        assert idle_since[rows].tolist() == [42.0, 42.0, 42.0]
        assert bound.sum() == 0
        assert mirror.lifecycle_view(42.0).count_in_state(busy) == 0

