"""Manufacturing variability in node power.

Inadomi et al. (SC'15, cited as [25] in the survey) showed that
manufacturing variability makes nominally identical nodes draw
measurably different power at the same work, and that power-constrained
scheduling must account for it.  Several surveyed research activities
("exploit the power and performance variability among nodes") build on
this.  The model is a truncated-normal multiplicative factor applied to
each node's max power.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ConfigurationError
from .node import Node


class VariabilityModel:
    """Per-node multiplicative power variability.

    Parameters
    ----------
    std:
        Standard deviation of the multiplier (mean 1.0).  Measured
        fleet spreads are on the order of 5-10 %.
    clip:
        Multipliers are clipped to ``[1 - clip, 1 + clip]`` to keep the
        physical model sane.
    """

    def __init__(self, std: float = 0.07, clip: float = 0.25) -> None:
        if std < 0:
            raise ConfigurationError(f"variability std must be >= 0, got {std}")
        if not (0 < clip < 1):
            raise ConfigurationError(f"variability clip must be in (0,1), got {clip}")
        self.std = float(std)
        self.clip = float(clip)

    def apply(self, nodes: Iterable[Node], rng: np.random.Generator) -> None:
        """Draw and install a variability factor on each node.

        Nodes of one machine take the draw in one column write; nodes
        from separate stores (standalone nodes) are written one by one.
        """
        nodes = list(nodes)
        if not nodes:
            return
        factors = rng.normal(1.0, self.std, size=len(nodes))
        np.clip(factors, 1.0 - self.clip, 1.0 + self.clip, out=factors)
        store = nodes[0]._store
        if all(node._store is store for node in nodes):
            store.write("variability", [node._row for node in nodes], factors)
        else:
            for node, factor in zip(nodes, factors.tolist()):
                node.variability = factor

    @staticmethod
    def spread(nodes: Iterable[Node]) -> float:
        """Max/min ratio of effective max power across *nodes*."""
        powers = [n.effective_max_power for n in nodes]
        if not powers:
            return 1.0
        return max(powers) / min(powers)
