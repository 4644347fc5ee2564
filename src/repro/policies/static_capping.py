"""Static partition power capping — KAUST's production deployment.

Table I, KAUST: "Static power capping via Cray CAPMC.  30% of nodes
run uncapped, 70% run with 270 W power cap."  The policy splits the
machine into a capped partition and an uncapped partition at attach
time and installs per-node caps through the resource manager.  The
trade: guaranteed worst-case power at the cost of slowing
compute-bound work on the capped partition.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..errors import PolicyError
from ..units import check_fraction, check_positive
from .base import Policy


class StaticCappingPolicy(Policy):
    """Cap a fixed fraction of nodes at a fixed wattage.

    Parameters
    ----------
    cap_watts:
        Per-node cap for the capped partition (KAUST: 270 W).
    capped_fraction:
        Fraction of nodes in the capped partition (KAUST: 0.70).
    low_power_first:
        If True, put the *most power-hungry* nodes (by variability) in
        the capped partition — they gain the most headroom.
    """

    name = "static-capping"

    def __init__(
        self,
        cap_watts: float,
        capped_fraction: float = 0.7,
        low_power_first: bool = True,
    ) -> None:
        super().__init__()
        self.cap_watts = check_positive("cap_watts", cap_watts)
        self.capped_fraction = check_fraction("capped_fraction", capped_fraction)
        self.low_power_first = low_power_first
        self.capped_node_ids: List[int] = []

    def on_attach(self) -> None:
        machine = self.simulation.machine
        count = int(round(self.capped_fraction * len(machine.nodes)))
        if count == 0:
            return
        nodes = list(machine.nodes)
        if self.low_power_first:
            nodes.sort(key=lambda n: (-n.effective_max_power, n.node_id))
        else:
            nodes.sort(key=lambda n: n.node_id)
        selected = nodes[:count]
        floor = max(n.cap_floor for n in selected)
        if self.cap_watts < floor:
            raise PolicyError(
                f"cap {self.cap_watts:.0f} W below enforceable floor {floor:.0f} W"
            )
        self.capped_node_ids = self.simulation.rm.set_power_cap(
            selected, self.cap_watts
        )

    def worst_case_power(self) -> float:
        """Guaranteed machine power bound under this partitioning."""
        store = self.simulation.machine.store
        effective_max = store.max_power * store.variability
        capped = np.zeros(len(store), dtype=bool)
        capped[self.capped_node_ids] = True
        return float(
            np.where(
                capped,
                np.minimum(self.cap_watts, effective_max),
                effective_max,
            ).sum()
        )

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "static-capping",
                FunctionalCategory.POWER_CONTROL,
                f"{self.capped_fraction:.0%} of nodes capped at "
                f"{self.cap_watts:.0f} W (CAPMC-style)",
            )
        ]
