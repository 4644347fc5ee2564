"""Over-provisioning under a strict budget — Sarood et al. (SC'14, [38]).

An over-provisioned system has more nodes than its power budget can
drive at full power.  The scheduler must then choose an *operating
point* (how many nodes active, at what per-node cap) that maximizes
throughput: running more nodes at lower power wins whenever the
workload parallelizes, because dynamic power buys speed sublinearly
(``speed ~ f`` but ``power ~ f^alpha``).

Sarood et al. solve an ILP; for the homogeneous-machine case the
optimum is a one-dimensional scan over the active-node count, which
this policy performs exactly, using the node power model to price
each candidate.  The policy then (a) caps all nodes at the chosen
level and (b) restricts the scheduler to the chosen active set.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..units import check_positive
from .base import Policy


class OverprovisioningPolicy(Policy):
    """Pick (active nodes, per-node cap) maximizing budgeted throughput.

    Parameters
    ----------
    budget_watts:
        The strict machine power budget.
    sensitivity:
        Assumed workload frequency sensitivity for the throughput
        model (1.0 = compute-bound worst case).
    recompute_interval:
        How often to re-run the scan (workload mix drifts), seconds.
    """

    name = "overprovisioning"

    def __init__(
        self,
        budget_watts: float,
        sensitivity: float = 0.9,
        recompute_interval: float = 3600.0,
    ) -> None:
        super().__init__()
        self.budget_watts = check_positive("budget_watts", budget_watts)
        self.sensitivity = float(sensitivity)
        self.control_interval = check_positive(
            "recompute_interval", recompute_interval
        )
        self.active_count: Optional[int] = None
        self.chosen_cap: Optional[float] = None

    # ------------------------------------------------------------------
    def solve_operating_point(self) -> Tuple[int, float, float]:
        """Scan n = 1..N for the throughput-optimal operating point.

        Returns ``(n_active, per_node_cap, throughput_score)`` where
        the score is ``n · speed(cap)``.  The budget pays for the
        active nodes only — the policy powers the rest off (their
        residual off-power is subtracted from the budget).
        """
        store = self.simulation.machine.store
        mirror = self.simulation.power_vector
        speed_at = self.simulation.power_model.speed_at_ratio
        row = store.nominal_row
        n_total = len(store)
        p_min = mirror.power_at_ratio(np.array([row]), 0.0, 1.0).item()
        p_max = store.max_power.item(row) * store.variability.item(row)

        counts = np.arange(1, n_total + 1)
        caps = (self.budget_watts - store.off_power[row] * (n_total - counts)) / counts
        # The scan stops at the first n whose nodes cannot all be
        # powered even at f_min.
        short = np.flatnonzero(caps < p_min)
        k = int(short[0]) if len(short) else n_total
        caps = np.minimum(caps[:k], p_max)
        freqs = mirror.frequencies_for_cap(np.full(k, row), caps, 1.0)
        ratios = freqs / store.max_frequency[row]

        best = (1, p_max, 0.0)
        for n, cap, ratio in zip(range(1, k + 1), caps.tolist(), ratios.tolist()):
            score = n * speed_at(ratio, self.sensitivity)
            if score > best[2]:
                best = (n, cap, score)
        return best

    def on_attach(self) -> None:
        self._apply()

    def on_tick(self, now: float) -> None:
        self._apply()

    def _apply(self) -> None:
        n, cap, _score = self.solve_operating_point()
        self.active_count = n
        self.chosen_cap = cap
        nodes = self.simulation.machine.nodes
        rm = self.simulation.rm
        # The active partition is the first n nodes (ids 0..n-1).
        active_nodes = nodes[:n]
        floor = max(nd.cap_floor for nd in active_nodes)
        rm.set_power_cap(active_nodes, max(cap, floor))
        # The budget covers only the active partition: power the rest
        # off, and bring active nodes back when the solution grows.
        rm.shutdown_nodes(nodes[n:])
        rm.boot_nodes(active_nodes)

    # ------------------------------------------------------------------
    def filter_rows(self, mask: np.ndarray, now: float) -> np.ndarray:
        """Restrict the allocatable pool to the active partition."""
        if self.active_count is not None:
            mask[self.active_count:] = False
        return mask

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "overprovision-optimizer",
                FunctionalCategory.POWER_CONTROL,
                f"throughput-optimal (n, cap) under "
                f"{self.budget_watts / 1e3:.0f} kW budget",
            )
        ]
