"""Tests for node allocators.

Every allocator selects rows (node ids) out of a
:class:`~repro.core.scheduler.RowPool`; the seed's object
implementations in ``tests/backfill_oracles.py`` are the oracles the
row selections must match, same nodes in the same order.
"""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.cluster.topology import build_dragonfly, build_fat_tree, build_torus3d
from repro.core import FirstFitAllocator, LowPowerAllocator, TopologyAwareAllocator
from repro.core.allocator import check_pool
from repro.core.scheduler import RowPool
from repro.errors import AllocationError
from tests.backfill_oracles import reference_select
from tests.conftest import make_selection


@pytest.fixture
def topo_machine():
    spec = MachineSpec(name="m", nodes=32, nodes_per_cabinet=8)
    return Machine(spec, topology=build_fat_tree(32, arity=8))


def pool_of(machine, avail_ids=None):
    """A pass's pool over *avail_ids* (default: the idle nodes)."""
    return RowPool(make_selection(machine, avail_ids))


class TestFirstFit:
    def test_picks_lowest_ids(self, small_machine):
        rows = FirstFitAllocator().select(pool_of(small_machine), 4)
        assert rows.tolist() == [0, 1, 2, 3]

    def test_insufficient_raises(self, small_machine):
        with pytest.raises(AllocationError):
            FirstFitAllocator().select(pool_of(small_machine, [0, 1]), 4)

    def test_zero_count_raises(self, small_machine):
        with pytest.raises(AllocationError):
            FirstFitAllocator().select(pool_of(small_machine), 0)


class TestLowPower:
    def test_prefers_efficient_nodes(self, small_machine):
        small_machine.node(5).variability = 0.8
        small_machine.node(9).variability = 0.85
        rows = LowPowerAllocator().select(pool_of(small_machine), 2)
        assert set(rows.tolist()) == {5, 9}

    def test_tie_breaks_on_id(self, small_machine):
        rows = LowPowerAllocator().select(pool_of(small_machine), 3)
        assert rows.tolist() == [0, 1, 2]


class TestTopologyAware:
    def test_compact_placement(self, topo_machine):
        rows = TopologyAwareAllocator().select(pool_of(topo_machine), 4)
        cost = topo_machine.topology.placement_cost(rows.tolist())
        # 4 nodes fit inside one leaf switch: cost 2 (all pairs 2 hops).
        assert cost == pytest.approx(2.0)

    def test_beats_random_scatter(self, topo_machine):
        rows = TopologyAwareAllocator().select(pool_of(topo_machine), 8)
        compact_cost = topo_machine.topology.placement_cost(rows.tolist())
        scattered_cost = topo_machine.topology.placement_cost(
            [0, 5, 10, 15, 20, 25, 30, 31]
        )
        assert compact_cost <= scattered_cost

    def test_fragmented_pool_greedy_fallback(self, topo_machine):
        # Only every other node is free: no contiguous window exists.
        rows = TopologyAwareAllocator().select(
            pool_of(topo_machine, range(0, 32, 2)), 4
        )
        assert len(set(rows.tolist())) == 4
        assert all(row % 2 == 0 for row in rows.tolist())

    def test_machine_without_topology_falls_back(self, small_machine):
        rows = TopologyAwareAllocator().select(pool_of(small_machine), 4)
        assert rows.tolist() == [0, 1, 2, 3]

    def test_single_node(self, topo_machine):
        rows = TopologyAwareAllocator().select(pool_of(topo_machine), 1)
        assert len(rows) == 1


class TestStructuredAllocationError:
    def test_check_pool_passes_when_enough(self):
        check_pool(4, 4)  # must not raise

    def test_shortage_carries_counts(self):
        with pytest.raises(AllocationError) as exc_info:
            check_pool(3, 8)
        exc = exc_info.value
        assert exc.requested == 8
        assert exc.available == 3
        assert exc.shortfall == 5

    def test_non_positive_request(self):
        with pytest.raises(AllocationError) as exc_info:
            check_pool(10, 0)
        assert exc_info.value.requested == 0
        assert exc_info.value.available == 10

    def test_select_raises_structured(self, small_machine):
        with pytest.raises(AllocationError) as exc_info:
            FirstFitAllocator().select(pool_of(small_machine, [0, 1]), 4)
        assert exc_info.value.requested == 4
        assert exc_info.value.available == 2

    def test_bare_error_has_no_shortfall(self):
        assert AllocationError("boom").shortfall is None


def _grant_sequence_matches(allocator, machine, avail_ids, counts):
    """Draw one pool down through *counts*, the way one scheduling pass
    does, and require every grant to equal the oracle's on the same
    remaining nodes."""
    pool = pool_of(machine, avail_ids)
    remaining = [machine.node(i) for i in sorted(avail_ids)]
    for count in counts:
        expected = reference_select(allocator, machine, remaining, count)
        rows = allocator.select(pool, count)
        assert pool.materialize(rows) == list(expected), count
        pool.remove_rows(rows)
        granted = set(expected)
        remaining = [n for n in remaining if n not in granted]
        assert len(pool) == len(remaining)
        assert pool.rows.tolist() == [n.node_id for n in remaining]


class TestSelectRowsEquivalence:
    """Row selection must return the same nodes in the same order as
    the seed's sort over node objects."""

    @pytest.mark.parametrize("allocator_cls", [FirstFitAllocator, LowPowerAllocator])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pools_match(self, allocator_cls, seed):
        rng = np.random.default_rng(seed)
        machine = Machine(MachineSpec(name="m", nodes=48, nodes_per_cabinet=8))
        # Deliberate key ties: a small value alphabet forces the
        # argpartition threshold logic through its equal-key branch.
        for node in machine.nodes:
            node.variability = float(rng.choice([0.95, 1.0, 1.05]))
        avail_ids = sorted(
            rng.choice(48, size=int(rng.integers(8, 48)), replace=False).tolist()
        )
        count = int(rng.integers(1, len(avail_ids) + 1))
        _grant_sequence_matches(allocator_cls(), machine, avail_ids, [count])

    @pytest.mark.parametrize("allocator_cls", [FirstFitAllocator, LowPowerAllocator])
    def test_sequential_grants_match(self, allocator_cls):
        rng = np.random.default_rng(99)
        machine = Machine(MachineSpec(name="m", nodes=64, nodes_per_cabinet=8))
        for node in machine.nodes:
            node.variability = float(rng.choice([0.94, 0.97, 1.0]))
        _grant_sequence_matches(
            allocator_cls(), machine, range(64), (7, 1, 16, 3, 9)
        )

    def test_row_pool_iterates_in_id_order(self, small_machine):
        pool = pool_of(small_machine, [9, 2, 5])
        assert pool.rows.tolist() == [2, 5, 9]
        assert [n.node_id for n in pool.materialize(pool.rows)] == [2, 5, 9]


_TOPOLOGIES = {
    "fat-tree": lambda: build_fat_tree(64, arity=8),
    "torus3d": lambda: build_torus3d((4, 4, 4)),
    "dragonfly": lambda: build_dragonfly(4, routers_per_group=4, nodes_per_router=4),
}


class TestTopologyAwareOracle:
    """Topology-aware row selection against the seed object
    implementation, on fragmented pools of all three topology
    families, in both seed modes, over several grants inside one
    pass."""

    @pytest.mark.parametrize("family", sorted(_TOPOLOGIES))
    @pytest.mark.parametrize("rng_seed", [None, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_fragmented_grants_match(self, family, rng_seed, seed):
        rng = np.random.default_rng(seed)
        machine = Machine(
            MachineSpec(name="m", nodes=64, nodes_per_cabinet=8),
            topology=_TOPOLOGIES[family](),
        )
        # Even ids plus a few odd ones: short contiguous runs exist,
        # long ones do not, so grants take both the window and the
        # greedy branch.
        odd = rng.choice(np.arange(1, 64, 2), size=8, replace=False)
        avail_ids = sorted(set(range(0, 64, 2)) | set(odd.tolist()))
        allocator = TopologyAwareAllocator(sample_seeds=3, rng_seed=rng_seed)
        allocator.begin_pass(0.0)
        _grant_sequence_matches(
            allocator, machine, avail_ids, (2, 5, 3, 1, 7, 4)
        )

    @pytest.mark.parametrize("rng_seed", [None, 11])
    def test_passes_match_across_begin_pass(self, rng_seed):
        machine = Machine(
            MachineSpec(name="m", nodes=64, nodes_per_cabinet=8),
            topology=_TOPOLOGIES["dragonfly"](),
        )
        allocator = TopologyAwareAllocator(rng_seed=rng_seed)
        for pass_no in range(3):
            allocator.begin_pass(float(pass_no))
            _grant_sequence_matches(
                allocator, machine, range(pass_no, 64, 3), (6, 2, 4)
            )


class TestTopologyRngDeterminism:
    """Regression for the sampled-seed RNG: draws are cached per pass,
    so repeated selections inside one pass are identical and replayed
    pass sequences re-derive the same placements."""

    def test_select_is_stable_within_a_pass(self, topo_machine):
        allocator = TopologyAwareAllocator(rng_seed=42)
        allocator.begin_pass(0.0)
        pool = pool_of(topo_machine, range(0, 32, 2))
        first = allocator.select(pool, 4)
        second = allocator.select(pool, 4)
        assert first.tolist() == second.tolist()

    def test_replayed_pass_sequence_is_identical(self, topo_machine):
        def run_passes():
            allocator = TopologyAwareAllocator(rng_seed=7)
            picks = []
            for pass_no in range(5):
                allocator.begin_pass(float(pass_no))
                pool = pool_of(topo_machine, range(0, 32, 2))
                picks.append(allocator.select(pool, 6).tolist())
            return picks

        assert run_passes() == run_passes()

    def test_passes_draw_independently(self):
        allocator = TopologyAwareAllocator(sample_seeds=4, rng_seed=3)
        allocator.begin_pass(0.0)
        first = list(allocator._pass_draws)
        allocator.begin_pass(1.0)
        assert allocator._pass_draws != first

    def test_stride_mode_unchanged_without_seed(self, topo_machine):
        allocator = TopologyAwareAllocator(sample_seeds=4)
        allocator.begin_pass(0.0)
        assert allocator._pass_draws is None
        assert allocator._seed_indices(32) == [0, 8, 16, 24]

    def test_rng_mode_still_selects_count_nodes(self, topo_machine):
        allocator = TopologyAwareAllocator(rng_seed=1)
        allocator.begin_pass(0.0)
        rows = allocator.select(pool_of(topo_machine, range(0, 32, 3)), 4)
        assert len(set(rows.tolist())) == 4
