"""Tests for the node power/performance model, run through the kernels
on a one-node machine (``tests/power_oracles.py`` adapts the answer)."""

import numpy as np
import pytest

from repro.cluster import Node, NodeState
from repro.errors import ConfigurationError
from repro.power import NodePowerModel

from .power_oracles import kernel_sample, one_node_mirror

ROW = np.array([0])


def frequency_for_cap(model, node, cap, utilization=1.0):
    mirror = one_node_mirror(model, node)
    return mirror.frequencies_for_cap(ROW, [cap], utilization).item(0)


def power_at_ratio(model, node, ratio, utilization=1.0):
    return one_node_mirror(model, node).power_at_ratio(ROW, ratio, utilization).item(0)


@pytest.fixture
def node():
    return Node(0, idle_power=100.0, max_power=300.0,
                max_frequency=2.0e9, min_frequency=1.0e9)


class TestStatePower:
    def test_off_draws_off_power(self, node, power_model):
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 1.0)
        sample = kernel_sample(power_model, node)
        assert sample.watts == node.off_power
        assert sample.speed == 0.0

    def test_idle_draws_idle_power(self, node, power_model):
        assert kernel_sample(power_model, node).watts == 100.0

    def test_booting_draws_boot_power(self, node, power_model):
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 1.0)
        node.transition(NodeState.BOOTING, 2.0)
        watts = kernel_sample(power_model, node).watts
        assert watts == pytest.approx(node.off_power + 0.6 * 300.0)

    def test_busy_full_tilt(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        sample = kernel_sample(power_model, node, utilization=1.0, sensitivity=1.0)
        assert sample.watts == pytest.approx(300.0)
        assert sample.speed == pytest.approx(1.0)
        assert not sample.cap_violated

    def test_busy_scales_with_utilization(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        half = kernel_sample(power_model, node, utilization=0.5).watts
        assert half == pytest.approx(100.0 + 0.5 * 200.0)

    def test_variability_scales_dynamic_part(self, node, power_model):
        node.variability = 1.1
        node.transition(NodeState.BUSY, 0.0)
        watts = kernel_sample(power_model, node, utilization=1.0).watts
        assert watts == pytest.approx(100.0 + 220.0)


class TestDvfsResponse:
    def test_lower_frequency_lower_power(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_frequency(1.0e9)  # half of max
        sample = kernel_sample(power_model, node, 1.0, 1.0)
        # dynamic = 200 * (0.5)^2 = 50
        assert sample.watts == pytest.approx(150.0)
        assert sample.speed == pytest.approx(0.5)

    def test_insensitive_phase_keeps_speed(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_frequency(1.0e9)
        sample = kernel_sample(power_model, node, 1.0, sensitivity=0.0)
        assert sample.speed == pytest.approx(1.0)

    def test_alpha_controls_curvature(self, node):
        node.transition(NodeState.BUSY, 0.0)
        node.set_frequency(1.0e9)
        linear = kernel_sample(NodePowerModel(alpha=1.0), node, 1.0).watts
        cubic = kernel_sample(NodePowerModel(alpha=3.0), node, 1.0).watts
        assert cubic < linear  # higher alpha = deeper power cut at low f

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(alpha=0.0)


class TestCapping:
    def test_cap_enforced_by_frequency_clamp(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_power_cap(200.0)
        sample = kernel_sample(power_model, node, 1.0, 1.0)
        assert sample.watts <= 200.0 + 1e-9
        assert sample.speed < 1.0
        assert not sample.cap_violated

    def test_cap_above_draw_is_inactive(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_power_cap(290.0)
        sample = kernel_sample(power_model, node, utilization=0.3)
        assert sample.frequency_ratio == pytest.approx(1.0)

    def test_unreachable_cap_flags_violation(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_power_cap(110.0)  # needs f below f_min
        sample = kernel_sample(power_model, node, 1.0, 1.0)
        assert sample.cap_violated
        assert sample.watts > 110.0

    def test_dvfs_setting_and_cap_compose(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        node.set_frequency(1.2e9)
        node.set_power_cap(290.0)  # cap looser than the DVFS setting
        sample = kernel_sample(power_model, node, 1.0, 1.0)
        assert sample.frequency_ratio == pytest.approx(0.6)


class TestHelpers:
    def test_frequency_for_cap_inverts_power(self, node, power_model):
        freq = frequency_for_cap(power_model, node, 200.0, utilization=1.0)
        ratio = freq / node.max_frequency
        watts = power_at_ratio(power_model, node, ratio, 1.0)
        assert watts == pytest.approx(200.0, rel=1e-6)

    def test_frequency_for_cap_clamps_to_range(self, node, power_model):
        # Cap below idle power: floor frequency.
        assert frequency_for_cap(power_model, node, 50.0) == node.min_frequency
        # Zero-utilization job under a sub-idle cap: still the floor.
        assert frequency_for_cap(power_model, node, 50.0, 0.0) == node.min_frequency
        # Idle-only draw with a generous cap: ceiling frequency.
        assert frequency_for_cap(power_model, node, 200.0, 0.0) == node.max_frequency
        # Enormous cap: ceiling frequency.
        assert frequency_for_cap(power_model, node, 1e9, 1.0) == node.max_frequency

    def test_speed_at_ratio_bounds(self, power_model):
        assert power_model.speed_at_ratio(1.0, 1.0) == pytest.approx(1.0)
        assert power_model.speed_at_ratio(0.5, 1.0) == pytest.approx(0.5)
        assert power_model.speed_at_ratio(0.5, 0.0) == pytest.approx(1.0)
        assert power_model.speed_at_ratio(0.0, 1.0) > 0.0  # never zero

    def test_power_monotone_in_frequency(self, node, power_model):
        node.transition(NodeState.BUSY, 0.0)
        ratios = [0.5, 0.6, 0.8, 1.0]
        powers = [power_at_ratio(power_model, node, r, 1.0) for r in ratios]
        assert powers == sorted(powers)
