"""RAPL-style windowed power limiting as a control loop.

Bodas et al. [8] ("simple power-aware scheduler to limit power
consumption by HPC system within a budget") and the RAPL-based works
the survey cites rely on running-average enforcement: short bursts
above the limit are fine, the window average is not.  This policy
gives every node a :class:`~repro.power.rapl.RaplDomain` and closes
the loop with DVFS: step a node's frequency down while its window is
non-compliant, step back up while there is allowance headroom.

Compared to a static cap at the same wattage, the windowed control
lets bursty jobs keep full frequency through short spikes — the
defining RAPL advantage.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..power.dvfs import FrequencyLadder
from ..power.rapl import RaplDomain
from ..units import check_positive
from .base import Policy


class RaplEnforcementPolicy(Policy):
    """Per-node windowed power limits enforced via DVFS stepping.

    Parameters
    ----------
    node_limit_watts:
        The running-average limit per node.
    window:
        Averaging window, seconds.
    check_interval:
        Sampling/control period (several samples per window).
    ladder:
        DVFS steps; defaults to 6 steps over the node range.
    """

    name = "rapl-enforcement"

    def __init__(
        self,
        node_limit_watts: float,
        window: float = 600.0,
        check_interval: float = 60.0,
        ladder: FrequencyLadder = None,
    ) -> None:
        super().__init__()
        self.node_limit_watts = check_positive("node_limit_watts",
                                               node_limit_watts)
        self.window = check_positive("window", window)
        self.control_interval = check_positive("check_interval", check_interval)
        self.ladder = ladder
        self.domains: Dict[int, RaplDomain] = {}
        self.steps_down = 0
        self.steps_up = 0

    def on_attach(self) -> None:
        machine = self.simulation.machine
        if self.ladder is None:
            node = machine.nodes[0]
            self.ladder = FrequencyLadder.linear(
                node.min_frequency, node.max_frequency, steps=6
            )
        self.domains = {
            n.node_id: RaplDomain(self.node_limit_watts, self.window)
            for n in machine.nodes
        }

    def on_tick(self, now: float) -> None:
        machine = self.simulation.machine
        rm = self.simulation.rm
        to_lower: List = []
        raise_candidates: List = []
        # One vectorized kernel gives every node's draw (machine.nodes
        # order); only the window bookkeeping and the rare step
        # decisions remain per-node.
        all_watts = self.simulation.node_watts()
        for node, watts in zip(machine.nodes, all_watts):
            domain = self.domains[node.node_id]
            domain.record(now, watts)
            if not node.is_on:
                continue
            if not domain.compliant(now):
                new_freq = self.ladder.step_down(node.frequency)
                if new_freq < node.frequency:
                    to_lower.append((node, new_freq))
            else:
                # Headroom: if even a one-step-up draw fits the current
                # allowance, recover performance.
                up = self.ladder.step_up(node.frequency)
                if up > node.frequency:
                    raise_candidates.append((node, up, domain.allowance(now)))
        to_raise: List = []
        if raise_candidates:
            store = machine.store
            rows = np.array([node.node_id for node, _, _ in raise_candidates])
            ups = np.array([up for _, up, _ in raise_candidates])
            predicted = self.simulation.power_vector.power_at_ratio(
                rows, ups / store.max_frequency[rows], 1.0
            )
            to_raise = [
                (node, up)
                for (node, up, allowance), watts in zip(raise_candidates, predicted.tolist())
                if watts <= allowance
            ]
        for node, freq in to_lower:
            rm.set_frequency([node], freq)
            self.steps_down += 1
        for node, freq in to_raise:
            rm.set_frequency([node], freq)
            self.steps_up += 1

    def compliant_fraction(self, now: float) -> float:
        """Fraction of nodes whose window average meets the limit."""
        if not self.domains:
            return 1.0
        ok = sum(1 for d in self.domains.values() if d.compliant(now))
        return ok / len(self.domains)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "rapl-domains",
                FunctionalCategory.POWER_MONITORING,
                f"per-node {self.window:.0f}s running-average windows",
            ),
            (
                "rapl-dvfs-loop",
                FunctionalCategory.POWER_CONTROL,
                f"step DVFS to hold {self.node_limit_watts:.0f} W/node "
                f"window average",
            ),
        ]
