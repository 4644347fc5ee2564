"""Scalar node power physics: the executable spec of the power kernels.

One :class:`~repro.cluster.node.Node` in, one :class:`PowerSample`
out.  This is the seed's ``NodePowerModel.operating_point`` /
``power_at_ratio`` / ``frequency_for_cap``, kept here branch for
branch so the array kernels the simulator runs
(:func:`repro.power.kernels.node_points_np` and the
:class:`~repro.power.vector.VectorPowerMirror` helpers) can be pinned
against a statement of the physics a reader can check line by line.
Runtime code never imports this module (``test_oracle_isolation``).

The model (Etinski, Sarood, Patki, Ellsworth): power splits into a
static part (idle) and a dynamic part that scales with utilization and
with frequency as ``(f/f_max)^alpha``.  Capping clamps the effective
frequency to the highest value whose predicted power meets the cap; if
even the minimum frequency exceeds it, the node draws its physical
power and the sample flags a *cap violation*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import Machine, MachineSpec
from repro.cluster.node import Node, NodeState
from repro.power import NodePowerModel, VectorPowerMirror


@dataclass(frozen=True)
class PowerSample:
    """Instantaneous operating point of one node.

    Attributes
    ----------
    watts:
        Predicted power draw.
    frequency_ratio:
        Effective frequency as a fraction of f_max after DVFS setting
        and cap clamping.
    speed:
        Relative execution speed in (0, 1] for the running phase.
    cap_violated:
        True when the cap could not be met even at minimum frequency.
    """

    watts: float
    frequency_ratio: float
    speed: float
    cap_violated: bool = False


def _dynamic_range(node: Node) -> float:
    """Variability-adjusted dynamic power span (max - idle), watts."""
    return (node.max_power - node.idle_power) * node.variability


def operating_point(
    model: NodePowerModel,
    node: Node,
    utilization: float = 1.0,
    sensitivity: float = 1.0,
) -> PowerSample:
    """The node's power and speed at its current settings, running a
    phase of *utilization* (job power intensity) and frequency
    *sensitivity*, both in [0, 1]."""
    state = node.state
    if state in (NodeState.OFF, NodeState.DOWN):
        return PowerSample(node.off_power, 0.0, 0.0)
    if state is NodeState.BOOTING:
        return PowerSample(
            node.off_power + model.boot_power_fraction * node.effective_max_power,
            0.0,
            0.0,
        )
    if state is NodeState.SHUTTING_DOWN:
        return PowerSample(node.idle_power * model.shutdown_power_fraction, 0.0, 0.0)
    if state is NodeState.IDLE:
        watts = node.idle_power
        if node.power_cap is not None and watts > node.power_cap:
            return PowerSample(watts, 1.0, 0.0, cap_violated=True)
        return PowerSample(watts, node.frequency / node.max_frequency, 0.0)

    # BUSY ----------------------------------------------------------
    utilization = min(1.0, max(0.0, utilization))
    sensitivity = min(1.0, max(0.0, sensitivity))
    dyn = _dynamic_range(node) * utilization
    f_set = node.frequency / node.max_frequency
    f_min = node.min_frequency / node.max_frequency

    f_eff = f_set
    cap_violated = False
    if node.power_cap is not None and dyn > 0.0:
        uncapped = node.idle_power + dyn * f_set**model.alpha
        if uncapped > node.power_cap:
            budgeted = node.power_cap - node.idle_power
            if budgeted <= 0.0:
                f_eff = f_min
                cap_violated = True
            else:
                f_cap = (budgeted / dyn) ** (1.0 / model.alpha)
                if f_cap < f_min:
                    f_eff = f_min
                    cap_violated = True
                else:
                    f_eff = min(f_set, f_cap)
    elif node.power_cap is not None and node.idle_power > node.power_cap:
        cap_violated = True

    watts = node.idle_power + dyn * f_eff**model.alpha
    speed = 1.0 - sensitivity * (1.0 - f_eff)
    speed = max(speed, 1e-9)
    return PowerSample(watts, f_eff, speed, cap_violated)


def power_at_ratio(
    model: NodePowerModel, node: Node, frequency_ratio: float, utilization: float = 1.0
) -> float:
    """Predicted BUSY power at an explicit frequency ratio."""
    frequency_ratio = min(
        1.0, max(node.min_frequency / node.max_frequency, frequency_ratio)
    )
    dyn = _dynamic_range(node) * min(1.0, max(0.0, utilization))
    return node.idle_power + dyn * frequency_ratio**model.alpha


def frequency_for_cap(
    model: NodePowerModel, node: Node, cap: float, utilization: float = 1.0
) -> float:
    """Highest frequency (Hz) whose predicted power meets *cap*, clamped
    to the node's DVFS range (at the bottom of the range the cap may
    still be violated)."""
    dyn = _dynamic_range(node) * min(1.0, max(0.0, utilization))
    if dyn <= 0.0:
        return node.max_frequency if cap >= node.idle_power else node.min_frequency
    budgeted = cap - node.idle_power
    if budgeted <= 0.0:
        return node.min_frequency
    ratio = (budgeted / dyn) ** (1.0 / model.alpha)
    freq = ratio * node.max_frequency
    return min(node.max_frequency, max(node.min_frequency, freq))


def simulation_operating_point(simulation, node: Node) -> PowerSample:
    """:func:`operating_point` of one node of a running simulation, with
    its bound job's intensity and sensitivity (full intensity and
    sensitivity when no job is bound)."""
    execution = simulation.execution_on(node.node_id)
    if execution is not None:
        job = execution.job
        return operating_point(
            simulation.power_model, node, job.mean_power_intensity, job.mean_sensitivity
        )
    return operating_point(simulation.power_model, node)


def simulation_watts(simulation) -> float:
    """:func:`simulation_operating_point` watts summed over every node."""
    return sum(
        simulation_operating_point(simulation, node).watts
        for node in simulation.machine.nodes
    )


# ----------------------------------------------------------------------
# The kernels' answer in the oracle's shape
# ----------------------------------------------------------------------
def one_node_mirror(model: NodePowerModel, node: Node) -> VectorPowerMirror:
    """A power mirror over a one-node machine holding *node* (id 0),
    which is rebound as the machine's row 0."""
    machine = Machine(MachineSpec(name="one", nodes=1), nodes=[node])
    return VectorPowerMirror(machine, model)


def kernel_sample(
    model: NodePowerModel,
    node: Node,
    utilization: float = 1.0,
    sensitivity: float = 1.0,
) -> PowerSample:
    """The kernels' operating point of *node*, as a :class:`PowerSample`."""
    mirror = one_node_mirror(model, node)
    rows = np.array([0])
    mirror.bind_execution(rows, 0, utilization, sensitivity)
    op = mirror.operating_points(rows)
    return PowerSample(
        op.watts.item(0),
        op.frequency_ratio.item(0),
        op.speed.item(0),
        bool(op.cap_violated[0]),
    )
