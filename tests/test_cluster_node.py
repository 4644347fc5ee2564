"""Tests for the node state machine, the node store and its views."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, Node, NodeState
from repro.cluster.node import COLUMNS, STATE_CODES
from repro.errors import ClusterError, ConfigurationError, NodeStateError, PowerCapError


@pytest.fixture
def node():
    return Node(node_id=0, idle_power=100.0, max_power=300.0)


class TestStateMachine:
    def test_starts_idle(self, node):
        assert node.state is NodeState.IDLE
        assert node.is_available
        assert node.is_on

    def test_assign_release_cycle(self, node):
        node.transition(NodeState.BUSY, 10.0)
        assert node.state is NodeState.BUSY
        assert not node.is_available
        node.transition(NodeState.IDLE, 20.0)
        assert node.state is NodeState.IDLE
        assert node.idle_since == 20.0

    def test_assign_busy_node_raises(self, node):
        node.transition(NodeState.BUSY, 0.0)
        with pytest.raises(NodeStateError):
            node.transition(NodeState.BUSY, 1.0)

    def test_release_idle_node_raises(self, node):
        with pytest.raises(NodeStateError):
            node.transition(NodeState.IDLE, 0.0)

    def test_shutdown_boot_cycle(self, node):
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 10.0)
        assert not node.is_on
        node.transition(NodeState.BOOTING, 20.0)
        assert node.is_on
        assert not node.is_available
        node.transition(NodeState.IDLE, 30.0)
        assert node.is_available

    def test_illegal_transition_raises(self, node):
        with pytest.raises(NodeStateError):
            node.transition(NodeState.OFF, 0.0)  # must shut down first

    def test_busy_cannot_shut_down(self, node):
        node.transition(NodeState.BUSY, 0.0)
        with pytest.raises(NodeStateError):
            node.transition(NodeState.SHUTTING_DOWN, 1.0)

    def test_down_and_back(self, node):
        node.transition(NodeState.DOWN, 0.0)
        assert not node.is_on
        node.transition(NodeState.IDLE, 1.0)
        assert node.is_available

    def test_idle_since_cleared_when_busy(self, node):
        node.transition(NodeState.BUSY, 5.0)
        assert node.idle_since is None


class TestPowerControl:
    def test_set_and_clear_cap(self, node):
        node.set_power_cap(200.0)
        assert node.power_cap == 200.0
        node.set_power_cap(None)
        assert node.power_cap is None

    def test_cap_below_floor_rejected(self, node):
        with pytest.raises(PowerCapError):
            node.set_power_cap(50.0)  # below 100 W idle

    def test_cap_floor_is_idle_power(self, node):
        assert node.cap_floor == 100.0
        node.set_power_cap(100.0)  # exactly at floor is allowed

    def test_frequency_clamped_to_range(self, node):
        node.set_frequency(10e9)
        assert node.frequency == node.max_frequency
        node.set_frequency(0.1e9)
        assert node.frequency == node.min_frequency

    def test_effective_max_power_uses_variability(self, node):
        node.variability = 1.1
        assert node.effective_max_power == pytest.approx(330.0)


class TestValidation:
    def test_rejects_zero_cores(self):
        with pytest.raises(NodeStateError):
            Node(0, cores=0)

    def test_rejects_max_below_idle(self):
        with pytest.raises(NodeStateError):
            Node(0, idle_power=300.0, max_power=100.0)

    def test_rejects_inverted_frequencies(self):
        with pytest.raises(NodeStateError):
            Node(0, max_frequency=1e9, min_frequency=2e9)

    @pytest.mark.parametrize("kwargs", [
        {"memory_gb": 0.0},
        {"idle_power": -1.0},
        {"max_power": float("inf")},
        {"boot_time": -1.0},
        {"shutdown_time": float("nan")},
        {"off_power": -0.5},
        {"max_frequency": 0.0},
        {"min_frequency": "fast"},
        {"idle_power": True},
    ])
    def test_rejects_bad_numbers(self, kwargs):
        with pytest.raises(ConfigurationError):
            Node(0, **kwargs)

    def test_spec_machine_validates_like_a_node(self):
        with pytest.raises(NodeStateError):
            Machine(MachineSpec(name="m", nodes=4, cores_per_node=0))
        with pytest.raises(NodeStateError):
            Machine(MachineSpec(name="m", nodes=4, max_frequency=1e9,
                                min_frequency=2e9))
        with pytest.raises(ConfigurationError):
            Machine(MachineSpec(name="m", nodes=4, boot_time=-1.0))


# ----------------------------------------------------------------------
# Views: Python scalars out, one store per machine
# ----------------------------------------------------------------------
class TestView:
    def test_properties_are_python_scalars(self):
        machine = Machine(MachineSpec(name="m", nodes=4, nodes_per_cabinet=2))
        node = machine.nodes[2]
        node.set_power_cap(200.0)
        for name in COLUMNS:
            if name in ("state_code", "power_cap", "idle_since", "cores"):
                continue
            value = getattr(node, name)
            assert type(value) is float, name
        assert type(node.cores) is int
        assert type(node.power_cap) is float
        assert type(node.idle_since) is float
        assert type(node.effective_max_power) is float
        assert node.state is NodeState.IDLE
        node.transition(NodeState.BUSY, 3.0)
        assert node.idle_since is None
        assert type(node.last_state_change) is float

    def test_view_writes_land_in_the_store(self):
        machine = Machine(MachineSpec(name="m", nodes=4, nodes_per_cabinet=2))
        store = machine.store
        node = machine.nodes[1]
        node.idle_power = 120.0
        node.state = NodeState.DOWN
        node.power_cap = None
        node.idle_since = None
        assert store.idle_power[1] == 120.0
        assert store.state_code[1] == STATE_CODES[NodeState.DOWN]
        assert np.isinf(store.power_cap[1])
        assert np.isnan(store.idle_since[1])
        assert store.counts == np.bincount(store.state_code, minlength=6).tolist()
        assert store.dirty == {1}

    def test_spec_machine_fills_every_row(self):
        spec = MachineSpec(name="m", nodes=6, nodes_per_cabinet=3,
                           idle_power=90.0, max_power=310.0,
                           cores_per_node=48, boot_time=60.0)
        machine = Machine(spec)
        reference = Node(0, cores=48, idle_power=90.0, max_power=310.0,
                         boot_time=60.0)
        for name in COLUMNS:
            column = getattr(machine.store, name)
            assert (column == getattr(reference._store, name)[0]).all(), name
        assert machine.store.counts[STATE_CODES[NodeState.IDLE]] == 6

    def test_machine_adopts_given_nodes(self):
        nodes = [
            Node(0, idle_power=80.0, max_power=250.0),
            Node(1, idle_power=120.0, max_power=900.0, cores=64),
            Node(2, idle_power=100.0, max_power=350.0),
        ]
        nodes[1].variability = 1.05
        nodes[2].transition(NodeState.DOWN, 4.0)
        nodes[0].set_power_cap(200.0)
        machine = Machine(MachineSpec(name="h", nodes=3, nodes_per_cabinet=2),
                          nodes=nodes)
        store = machine.store
        for row, node in enumerate(nodes):
            assert machine.nodes[row] is node
            assert machine.node(row) is node
            assert node._store is store and node._row == row
        assert store.idle_power.tolist() == [80.0, 120.0, 100.0]
        assert store.cores.tolist() == [32, 64, 32]
        assert store.variability[1] == 1.05
        assert store.power_cap[0] == 200.0
        assert nodes[2].state is NodeState.DOWN
        assert nodes[2].last_state_change == 4.0
        assert store.counts[STATE_CODES[NodeState.DOWN]] == 1
        # A write through an adopted view reaches the machine's store.
        nodes[1].set_frequency(1.5e9)
        assert store.frequency[1] == 1.5e9
        assert machine.peak_power == pytest.approx(250.0 + 900.0 * 1.05 + 350.0)

    def test_adoption_keeps_the_id_equals_position_rule(self):
        with pytest.raises(ClusterError, match="position 1 has id 2"):
            Machine(MachineSpec(name="h", nodes=2),
                    nodes=[Node(0), Node(2)])


# ----------------------------------------------------------------------
# Cohort writers are atomic
# ----------------------------------------------------------------------
def columns_of(store):
    return {name: getattr(store, name).copy() for name in COLUMNS}


def assert_untouched(store, before, counts, dirty):
    for name, column in before.items():
        np.testing.assert_array_equal(getattr(store, name), column, err_msg=name)
    assert store.counts == counts
    assert store.dirty == dirty


class TestAtomicCohorts:
    def machine(self):
        machine = Machine(MachineSpec(name="m", nodes=8, nodes_per_cabinet=4))
        machine.nodes[5].transition(NodeState.BUSY, 1.0)
        machine.store.dirty.clear()
        return machine

    def test_one_illegal_row_writes_nothing(self):
        machine = self.machine()
        store = machine.store
        before, counts = columns_of(store), list(store.counts)
        with pytest.raises(NodeStateError, match="node 5: illegal transition busy"):
            store.transition([0, 1, 5, 7], NodeState.SHUTTING_DOWN, 9.0)
        assert_untouched(store, before, counts, set())

    def test_one_row_below_its_floor_writes_nothing(self):
        machine = self.machine()
        store = machine.store
        machine.nodes[6].idle_power = 180.0
        store.dirty.clear()
        before, counts = columns_of(store), list(store.counts)
        with pytest.raises(PowerCapError, match="node 6: cap 150.0 W below"):
            store.set_caps(np.arange(8), 150.0)
        assert_untouched(store, before, counts, set())

    def test_duplicate_row_writes_nothing(self):
        machine = self.machine()
        store = machine.store
        before, counts = columns_of(store), list(store.counts)
        with pytest.raises(ClusterError, match="lists node 2 twice"):
            store.transition([2, 3, 2], NodeState.BUSY, 9.0)
        assert_untouched(store, before, counts, set())

    def test_standalone_node_names_its_own_id(self):
        with pytest.raises(NodeStateError, match="node 7: illegal"):
            Node(7).transition(NodeState.OFF, 0.0)
        with pytest.raises(PowerCapError, match="node 7: cap"):
            Node(7).set_power_cap(10.0)
