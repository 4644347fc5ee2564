"""Property-based tests: power kernel and budget invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node, NodeState
from repro.errors import BudgetError
from repro.power import NodePowerModel, PowerBudget

from .power_oracles import kernel_sample

node_params = st.tuples(
    st.floats(min_value=10.0, max_value=500.0),   # idle
    st.floats(min_value=0.0, max_value=1000.0),   # dynamic span
    st.floats(min_value=0.5e9, max_value=2.0e9),  # f_min
    st.floats(min_value=0.1e9, max_value=2.5e9),  # f_span
)


def build_node(params):
    idle, dyn, f_min, f_span = params
    return Node(0, idle_power=idle, max_power=idle + dyn,
                min_frequency=f_min, max_frequency=f_min + f_span)


class TestPowerModelProperties:
    @given(node_params,
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.5, max_value=3.0))
    def test_busy_power_within_physical_range(self, params, util, sens, alpha):
        node = build_node(params)
        node.transition(NodeState.BUSY, 0.0)
        model = NodePowerModel(alpha=alpha)
        sample = kernel_sample(model, node, util, sens)
        assert node.idle_power - 1e-9 <= sample.watts
        assert sample.watts <= node.effective_max_power + 1e-9
        assert 0.0 < sample.speed <= 1.0
        assert 0.0 <= sample.frequency_ratio <= 1.0

    @given(node_params, st.floats(min_value=0.0, max_value=1.0))
    def test_power_monotone_in_utilization(self, params, sens):
        node = build_node(params)
        node.transition(NodeState.BUSY, 0.0)
        model = NodePowerModel()
        watts = [kernel_sample(model, node, u, sens).watts
                 for u in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b + 1e-9 for a, b in zip(watts, watts[1:]))

    @given(node_params,
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_cap_respected_or_flagged(self, params, util, cap_frac):
        node = build_node(params)
        node.transition(NodeState.BUSY, 0.0)
        cap = node.idle_power + cap_frac * (node.max_power - node.idle_power)
        node.set_power_cap(cap)
        model = NodePowerModel()
        sample = kernel_sample(model, node, util, 1.0)
        assert sample.watts <= cap + 1e-6 or sample.cap_violated

    @given(node_params, st.floats(min_value=0.0, max_value=1.0))
    def test_speed_monotone_in_frequency(self, params, sens):
        node = build_node(params)
        node.transition(NodeState.BUSY, 0.0)
        model = NodePowerModel()
        speeds = []
        for frac in (0.0, 0.3, 0.6, 1.0):
            node.set_frequency(
                node.min_frequency
                + frac * (node.max_frequency - node.min_frequency)
            )
            speeds.append(kernel_sample(model, node, 1.0, sens).speed)
        assert all(a <= b + 1e-9 for a, b in zip(speeds, speeds[1:]))


class TestBudgetProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
    def test_reserve_release_never_negative(self, amounts):
        budget = PowerBudget("b", 1000.0)
        reserved = 0.0
        for amount in amounts:
            if budget.can_reserve(amount):
                budget.reserve(amount)
                reserved += amount
            else:
                with pytest.raises(BudgetError):
                    budget.reserve(amount)
            assert 0.0 <= budget.headroom <= 1000.0 + 1e-6
        budget.validate()
        assert budget.reserved == pytest.approx(reserved)

    @given(st.lists(st.floats(min_value=1.0, max_value=400.0),
                    min_size=1, max_size=10))
    @settings(max_examples=50)
    def test_subdivision_never_exceeds_parent(self, limits):
        root = PowerBudget("root", 1000.0)
        created = 0
        for i, limit in enumerate(limits):
            if limit <= root.headroom:
                root.subdivide(f"c{i}", limit)
                created += 1
            else:
                with pytest.raises(BudgetError):
                    root.subdivide(f"c{i}", limit)
        root.validate()
        assert len(root.children) == created
