"""Tests for the resource manager's actuation and notifications."""

import pytest

from repro.cluster import NodeState
from repro.core import ResourceManager
from repro.errors import NodeStateError
from repro.simulator import Simulator, TraceRecorder


@pytest.fixture
def rm_setup(small_machine):
    sim = Simulator()
    trace = TraceRecorder()
    changed = []
    speed_changes = []
    rm = ResourceManager(
        sim,
        small_machine,
        trace=trace,
        on_nodes_changed=lambda: changed.append(sim.now),
        on_speed_changed=speed_changes.append,
    )
    return sim, rm, small_machine, changed, speed_changes


class TestPowerStateControl:
    def test_shutdown_takes_time(self, rm_setup):
        sim, rm, machine, changed, _ = rm_setup
        node = machine.node(0)
        rm.shutdown_node(node)
        assert node.state is NodeState.SHUTTING_DOWN
        sim.run()
        assert node.state is NodeState.OFF
        assert sim.now == node.shutdown_time
        assert changed  # notification fired

    def test_boot_takes_time(self, rm_setup):
        sim, rm, machine, changed, _ = rm_setup
        node = machine.node(0)
        rm.shutdown_node(node)
        sim.run()
        rm.boot_node(node)
        assert node.state is NodeState.BOOTING
        sim.run()
        assert node.state is NodeState.IDLE
        assert rm.boots_initiated == 1
        assert rm.shutdowns_initiated == 1

    def test_bulk_operations_skip_wrong_states(self, rm_setup):
        sim, rm, machine, _, _ = rm_setup
        machine.node(0).transition(NodeState.BUSY, 0.0)
        stopped = rm.shutdown_nodes(machine.nodes)
        assert stopped == 15  # the busy node is skipped
        sim.run()
        booted = rm.boot_nodes(machine.nodes)
        assert booted == 15

    def test_cannot_shutdown_busy(self, rm_setup):
        _, rm, machine, _, _ = rm_setup
        machine.node(0).transition(NodeState.BUSY, 0.0)
        with pytest.raises(NodeStateError):
            rm.shutdown_node(machine.node(0))


class TestMaintenance:
    def test_drain_undrain(self, rm_setup):
        sim, rm, machine, changed, _ = rm_setup
        node = machine.node(0)
        rm.drain_node(node)
        assert node.state is NodeState.DOWN
        rm.undrain_node(node)
        assert node.state is NodeState.IDLE
        assert len(changed) == 2

    def test_drain_busy_raises(self, rm_setup):
        _, rm, machine, _, _ = rm_setup
        machine.node(0).transition(NodeState.BUSY, 0.0)
        with pytest.raises(NodeStateError):
            rm.drain_node(machine.node(0))


class TestPowerControl:
    def test_set_cap_notifies_speed_change(self, rm_setup):
        _, rm, machine, _, speed_changes = rm_setup
        affected = rm.set_power_cap(machine.nodes[:4], 200.0)
        assert affected == [0, 1, 2, 3]
        assert speed_changes == [[0, 1, 2, 3]]
        assert machine.node(0).power_cap == 200.0

    def test_clear_cap(self, rm_setup):
        _, rm, machine, _, _ = rm_setup
        rm.set_power_cap(machine.nodes[:2], 200.0)
        rm.set_power_cap(machine.nodes[:2], None)
        assert machine.node(0).power_cap is None

    def test_set_frequency(self, rm_setup):
        _, rm, machine, _, speed_changes = rm_setup
        rm.set_frequency(machine.nodes[:2], 1.5e9)
        assert machine.node(0).frequency == 1.5e9
        assert speed_changes[-1] == [0, 1]


class TestQueries:
    def test_off_nodes(self, rm_setup):
        sim, rm, machine, _, _ = rm_setup
        rm.shutdown_node(machine.node(3))
        sim.run()
        assert [n.node_id for n in rm.off_nodes()] == [3]

    def test_trace_records(self, rm_setup):
        sim, rm, machine, _, _ = rm_setup
        rm.shutdown_node(machine.node(0))
        sim.run()
        assert rm.trace.count("rm.shutdown.start") == 1
        assert rm.trace.count("rm.shutdown.done") == 1
