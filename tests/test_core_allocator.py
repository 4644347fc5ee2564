"""Tests for node allocators."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.cluster.topology import build_fat_tree
from repro.core import FirstFitAllocator, LowPowerAllocator, TopologyAwareAllocator
from repro.core.allocator import check_pool
from repro.core.scheduler import NodeSelection, RowPool
from repro.errors import AllocationError


@pytest.fixture
def topo_machine():
    spec = MachineSpec(name="m", nodes=32, nodes_per_cabinet=8)
    return Machine(spec, topology=build_fat_tree(32, arity=8))


class TestFirstFit:
    def test_picks_lowest_ids(self, small_machine):
        nodes = FirstFitAllocator().select(
            small_machine, small_machine.available_nodes, 4
        )
        assert [n.node_id for n in nodes] == [0, 1, 2, 3]

    def test_insufficient_raises(self, small_machine):
        with pytest.raises(AllocationError):
            FirstFitAllocator().select(small_machine, small_machine.nodes[:2], 4)

    def test_zero_count_raises(self, small_machine):
        with pytest.raises(AllocationError):
            FirstFitAllocator().select(small_machine, small_machine.nodes, 0)


class TestLowPower:
    def test_prefers_efficient_nodes(self, small_machine):
        small_machine.node(5).variability = 0.8
        small_machine.node(9).variability = 0.85
        nodes = LowPowerAllocator().select(
            small_machine, small_machine.available_nodes, 2
        )
        assert {n.node_id for n in nodes} == {5, 9}

    def test_tie_breaks_on_id(self, small_machine):
        nodes = LowPowerAllocator().select(
            small_machine, small_machine.available_nodes, 3
        )
        assert [n.node_id for n in nodes] == [0, 1, 2]


class TestTopologyAware:
    def test_compact_placement(self, topo_machine):
        allocator = TopologyAwareAllocator()
        nodes = allocator.select(topo_machine, topo_machine.available_nodes, 4)
        cost = topo_machine.topology.placement_cost([n.node_id for n in nodes])
        # 4 nodes fit inside one leaf switch: cost 2 (all pairs 2 hops).
        assert cost == pytest.approx(2.0)

    def test_beats_random_scatter(self, topo_machine):
        allocator = TopologyAwareAllocator()
        chosen = allocator.select(topo_machine, topo_machine.available_nodes, 8)
        compact_cost = topo_machine.topology.placement_cost(
            [n.node_id for n in chosen]
        )
        scattered = [topo_machine.node(i) for i in (0, 5, 10, 15, 20, 25, 30, 31)]
        scattered_cost = topo_machine.topology.placement_cost(
            [n.node_id for n in scattered]
        )
        assert compact_cost <= scattered_cost

    def test_fragmented_pool_greedy_fallback(self, topo_machine):
        # Only every other node is free: no contiguous window exists.
        pool = [n for n in topo_machine.nodes if n.node_id % 2 == 0]
        allocator = TopologyAwareAllocator()
        nodes = allocator.select(topo_machine, pool, 4)
        assert len(nodes) == 4
        assert len({n.node_id for n in nodes}) == 4

    def test_machine_without_topology_falls_back(self, small_machine):
        allocator = TopologyAwareAllocator()
        nodes = allocator.select(small_machine, small_machine.available_nodes, 4)
        assert [n.node_id for n in nodes] == [0, 1, 2, 3]

    def test_single_node(self, topo_machine):
        nodes = TopologyAwareAllocator().select(
            topo_machine, topo_machine.available_nodes, 1
        )
        assert len(nodes) == 1


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
            FirstFitAllocator().select(small_machine, small_machine.nodes[:2], 4)
        assert exc_info.value.requested == 4
        assert exc_info.value.available == 2

    def test_bare_error_has_no_shortfall(self):
        assert AllocationError("boom").shortfall is None


def make_selection(machine, avail_ids=None):
    """A NodeSelection built straight from a machine (node ids are
    0..n-1 in id order, so rows == ids — the same precondition the
    simulation checks before handing allocators a selection)."""
    nodes = machine.nodes
    mask = np.zeros(len(nodes), dtype=bool)
    if avail_ids is None:
        avail_ids = [node.node_id for node in nodes if node.is_available]
    mask[list(avail_ids)] = True
    return NodeSelection(
        avail_mask=mask,
        nodes=nodes,
        max_power=np.array([node.max_power for node in nodes]),
        variability=np.array([node.variability for node in nodes]),
    )


class TestSelectRowsEquivalence:
    """select_rows must return the same nodes in the same order as the
    scalar select() — the decision-identity contract behind the
    batch-aware scheduler passes."""

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
        available = [machine.node(i) for i in avail_ids]
        count = int(rng.integers(1, len(avail_ids) + 1))

        allocator = allocator_cls()
        scalar = allocator.select(machine, available, count)
        pool = RowPool(make_selection(machine, avail_ids))
        rows = allocator.select_rows(pool, count)
        assert pool.materialize(rows) == list(scalar)

    @pytest.mark.parametrize("allocator_cls", [FirstFitAllocator, LowPowerAllocator])
    def test_sequential_grants_match(self, allocator_cls):
        # Draw the pool down across several grants, the way one
        # scheduling pass does, and require the whole grant sequence
        # to match the scalar path's.
        rng = np.random.default_rng(99)
        machine = Machine(MachineSpec(name="m", nodes=64, nodes_per_cabinet=8))
        for node in machine.nodes:
            node.variability = float(rng.choice([0.94, 0.97, 1.0]))
        allocator = allocator_cls()

        pool = RowPool(make_selection(machine))
        remaining = list(machine.nodes)
        for count in (7, 1, 16, 3, 9):
            scalar = allocator.select(machine, remaining, count)
            rows = allocator.select_rows(pool, count)
            assert pool.materialize(rows) == list(scalar)
            pool.remove_rows(rows)
            granted = set(scalar)
            remaining = [n for n in remaining if n not in granted]
            assert len(pool) == len(remaining)

    def test_row_pool_iterates_in_id_order(self, small_machine):
        pool = RowPool(make_selection(small_machine, [9, 2, 5]))
        assert [n.node_id for n in pool] == [2, 5, 9]


class TestTopologyRngDeterminism:
    """Regression for the sampled-seed RNG: draws are cached per pass,
    so repeated selections inside one pass are identical and replayed
    pass sequences re-derive the same placements."""

    def test_select_is_stable_within_a_pass(self, topo_machine):
        allocator = TopologyAwareAllocator(rng_seed=42)
        allocator.begin_pass(0.0)
        pool = [n for n in topo_machine.nodes if n.node_id % 2 == 0]
        first = allocator.select(topo_machine, pool, 4)
        second = allocator.select(topo_machine, pool, 4)
        assert [n.node_id for n in first] == [n.node_id for n in second]

    def test_replayed_pass_sequence_is_identical(self, topo_machine):
        pool = [n for n in topo_machine.nodes if n.node_id % 2 == 0]

        def run_passes():
            allocator = TopologyAwareAllocator(rng_seed=7)
            picks = []
            for pass_no in range(5):
                allocator.begin_pass(float(pass_no))
                chosen = allocator.select(topo_machine, pool, 6)
                picks.append([n.node_id for n in chosen])
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
        pool = [n for n in topo_machine.nodes if n.node_id % 3 == 0]
        nodes = allocator.select(topo_machine, pool, 4)
        assert len({n.node_id for n in nodes}) == 4
