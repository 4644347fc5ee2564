"""Tests for cabinets, machines and sites."""

import pytest

from repro.cluster import (
    Cabinet,
    Machine,
    MachineSpec,
    Node,
    NodeState,
    Site,
)
from repro.cluster.thermal import AmbientModel, CoolingModel
from repro.errors import ClusterError


class TestMachineSpec:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ClusterError):
            MachineSpec(name="m", nodes=0)

    def test_rejects_bad_cabinet_size(self):
        with pytest.raises(ClusterError):
            MachineSpec(name="m", nodes=4, nodes_per_cabinet=0)


class TestMachine:
    def test_builds_homogeneous_nodes(self, small_machine):
        assert len(small_machine) == 16
        assert small_machine.total_cores == 16 * 32

    def test_cabinet_partitioning(self, small_machine):
        assert len(small_machine.cabinets) == 4
        assert all(len(c) == 4 for c in small_machine.cabinets)
        # Every node has its cabinet id set.
        assert all(n.cabinet_id is not None for n in small_machine.nodes)

    def test_node_lookup(self, small_machine):
        assert small_machine.node(3).node_id == 3
        with pytest.raises(ClusterError):
            small_machine.node(99)

    def test_utilization_counts_busy(self, small_machine):
        assert small_machine.utilization() == 0.0
        small_machine.node(0).transition(NodeState.BUSY, 0.0)
        assert small_machine.utilization() == pytest.approx(1 / 16)

    def test_available_nodes(self, small_machine):
        small_machine.node(0).transition(NodeState.BUSY, 0.0)
        assert len(small_machine.available_nodes) == 15

    def test_peak_and_idle_power(self, small_machine):
        spec = small_machine.spec
        assert small_machine.peak_power == pytest.approx(16 * spec.max_power)
        assert small_machine.idle_floor_power == pytest.approx(16 * spec.idle_power)

    def test_powered_fraction(self, small_machine):
        node = small_machine.node(0)
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 1.0)
        assert small_machine.powered_fraction() == pytest.approx(15 / 16)

    def test_node_count_mismatch_raises(self):
        spec = MachineSpec(name="m", nodes=4)
        with pytest.raises(ClusterError):
            Machine(spec, nodes=[Node(0), Node(1)])

    def test_duplicate_node_ids_raise(self):
        spec = MachineSpec(name="m", nodes=2)
        with pytest.raises(ClusterError):
            Machine(spec, nodes=[Node(0), Node(0)])

    def test_node_ids_out_of_order_raise(self):
        spec = MachineSpec(name="m", nodes=2)
        with pytest.raises(ClusterError):
            Machine(spec, nodes=[Node(1), Node(0)])

    def test_node_ids_with_a_gap_raise(self):
        spec = MachineSpec(name="m", nodes=2)
        with pytest.raises(ClusterError):
            Machine(spec, nodes=[Node(0), Node(2)])

    @pytest.mark.parametrize("node_id", [16, -1])
    def test_node_lookup_out_of_range_raises(self, small_machine, node_id):
        with pytest.raises(ClusterError):
            small_machine.node(node_id)


class TestCabinet:
    def test_power_sums(self):
        nodes = [Node(i, idle_power=100, max_power=300) for i in range(4)]
        cab = Cabinet(0, nodes)
        assert cab.peak_power == pytest.approx(1200)
        assert cab.idle_power == pytest.approx(400)
        assert cab.node_ids == [0, 1, 2, 3]


class TestSite:
    def test_requires_machine(self):
        with pytest.raises(ClusterError):
            Site("s", [])

    def test_duplicate_machine_names_raise(self, small_machine):
        other = Machine(MachineSpec(name="tiny", nodes=4))
        with pytest.raises(ClusterError):
            Site("s", [small_machine, other])

    def test_machine_lookup(self, small_machine):
        site = Site("s", [small_machine])
        assert site.machine("tiny") is small_machine
        with pytest.raises(ClusterError):
            site.machine("nope")

    def test_headroom_accounts_for_cooling(self, small_machine):
        site = Site(
            "s",
            [small_machine],
            ambient=AmbientModel(mean=20.0, seasonal_amplitude=0.0,
                                 diurnal_amplitude=0.0),
            cooling=CoolingModel(cop_max=4.0, cop_min=4.0,
                                 free_cooling_below=0.0, design_ambient=50.0),
        )
        budget = site.facility.power_budget_watts
        it = 1000.0
        # overhead = it/4
        assert site.headroom(it, 0.0) == pytest.approx(budget - it - 250.0)

    def test_max_it_power_solves_budget(self, small_machine):
        site = Site("s", [small_machine])
        t = 0.0
        max_it = site.max_it_power(t)
        # At that IT load, total facility power equals the budget.
        cop = site.cooling.cop(site.ambient.temperature(t))
        total = max_it * (1 + 1 / cop)
        assert total == pytest.approx(site.facility.power_budget_watts)

    def test_totals(self, small_machine):
        site = Site("s", [small_machine])
        assert site.total_nodes == 16
        assert site.peak_it_power == pytest.approx(small_machine.peak_power)
