"""Thermal-aware throttling — the CINECA/Bologna research line.

Table II, CINECA research: "predictive models for node power and
temperature evolution (with University of Bologna)"; the companion
work MS3 ("a Mediterranean-style job scheduler ... do less when it's
too hot!", [11]) acts on those predictions.  The policy keeps one
:class:`~repro.prediction.thermal_model.NodeThermalModel` per node,
advances them with the nodes' modeled power, and applies a frequency
throttle to nodes predicted to cross their thermal threshold —
*before* the hardware's emergency throttling (or a shutdown) would
hit them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..errors import PolicyError
from ..prediction.thermal_model import NodeThermalModel
from ..units import check_positive
from .base import Policy


class ThermalAwarePolicy(Policy):
    """Predictive per-node thermal throttling.

    Parameters
    ----------
    r_thermal / tau / t_max:
        RC model parameters shared by all nodes (heterogeneous fleets
        can pass a prebuilt model map instead).
    throttle_frequency:
        Frequency applied to nodes predicted to overheat.
    horizon:
        Prediction lookahead, seconds: throttle when the temperature
        *horizon seconds ahead* would exceed ``t_max``.
    check_interval:
        Control-loop period (also the thermal integration step).
    """

    name = "thermal-aware"

    def __init__(
        self,
        r_thermal: float = 0.1,
        tau: float = 300.0,
        t_max: float = 85.0,
        throttle_frequency: float = 1.6e9,
        horizon: float = 300.0,
        check_interval: float = 60.0,
        models: Dict[int, NodeThermalModel] = None,
    ) -> None:
        super().__init__()
        self.r_thermal = check_positive("r_thermal", r_thermal)
        self.tau = check_positive("tau", tau)
        self.t_max = float(t_max)
        self.throttle_frequency = check_positive(
            "throttle_frequency", throttle_frequency
        )
        self.horizon = check_positive("horizon", horizon)
        self.control_interval = check_positive("check_interval", check_interval)
        self._models = models
        self.models: Dict[int, NodeThermalModel] = {}
        self.throttled: set = set()
        self.throttle_events = 0
        self._last_step = 0.0

    def on_attach(self) -> None:
        if self.simulation.site is None:
            raise PolicyError("thermal-aware policy needs a site (ambient)")
        machine = self.simulation.machine
        if self._models is not None:
            self.models = dict(self._models)
            missing = {n.node_id for n in machine.nodes} - set(self.models)
            if missing:
                raise PolicyError(f"thermal models missing for nodes {sorted(missing)}")
        else:
            ambient = self.simulation.site.ambient.temperature(self.sim.now)
            self.models = {
                n.node_id: NodeThermalModel(
                    r_thermal=self.r_thermal, tau=self.tau,
                    initial_temperature=ambient + 5.0, t_max=self.t_max,
                )
                for n in machine.nodes
            }
        self._last_step = self.sim.now

    # ------------------------------------------------------------------
    def node_temperature(self, node_id: int) -> float:
        """Current modeled temperature of one node."""
        return self.models[node_id].temperature

    def hottest(self) -> Tuple[int, float]:
        """(node_id, temperature) of the hottest node."""
        nid = max(self.models, key=lambda i: self.models[i].temperature)
        return nid, self.models[nid].temperature

    def on_tick(self, now: float) -> None:
        machine = self.simulation.machine
        rm = self.simulation.rm
        ambient = self.simulation.site.ambient.temperature(now)
        dt = max(0.0, now - self._last_step)
        self._last_step = now

        # Every node's draw and full-frequency draw in one kernel call
        # each (columns read, nothing folded).  The release forecast
        # prices an unbound node at zero intensity.
        mirror = self.simulation.power_vector
        rows = np.arange(len(machine.nodes))
        all_watts = mirror.operating_points().watts.tolist()
        intensity = np.where(mirror.exec_slot >= 0, mirror.utilization, 0.0)
        full_watts = mirror.power_at_ratio(rows, 1.0, intensity).tolist()
        to_throttle = []
        to_release = []
        for node, watts, full in zip(machine.nodes, all_watts, full_watts):
            model = self.models[node.node_id]
            model.step(dt, watts, ambient)
            predicted = model.predict(self.horizon, watts, ambient)
            if predicted > self.t_max and node.node_id not in self.throttled:
                to_throttle.append(node)
            elif node.node_id in self.throttled:
                # Release only if the node would stay safe at FULL
                # frequency — releasing on the throttled-power forecast
                # causes thermostat oscillation around t_max.
                if (model.predict(self.horizon, full, ambient)
                        < self.t_max - 5.0):  # hysteresis band
                    to_release.append(node)

        if to_throttle:
            rm.set_frequency(to_throttle, self.throttle_frequency)
            self.throttled |= {n.node_id for n in to_throttle}
            self.throttle_events += len(to_throttle)
        if to_release:
            for node in to_release:
                rm.set_frequency([node], node.max_frequency)
            self.throttled -= {n.node_id for n in to_release}

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "thermal-models",
                FunctionalCategory.POWER_MONITORING,
                "per-node RC temperature evolution models",
            ),
            (
                "predictive-throttle",
                FunctionalCategory.POWER_CONTROL,
                f"DVFS throttle when predicted T({self.horizon:.0f}s) "
                f"> {self.t_max:.0f}C",
            ),
        ]
