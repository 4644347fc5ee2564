"""Synthetic application catalog.

LRZ's production capability characterizes every new application "for
frequency, runtime and energy" on first run, then schedules it at the
frequency matching the administrator's goal (energy-to-solution or
best performance).  That requires a population of applications with
*different* frequency responses — which is exactly what this catalog
provides: named applications with distinct phase profiles, parallel
efficiency (Amdahl serial fraction) and power intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import WorkloadError
from .phases import (
    BALANCED,
    COMM_BOUND,
    COMPUTE_BOUND,
    MEMORY_BOUND,
    Phase,
    PhaseProfile,
)


@dataclass(frozen=True)
class Application:
    """A named application archetype.

    Attributes
    ----------
    name:
        Catalog key, also used as job ``app_name``.
    profile:
        Phase structure (drives DVFS response and power draw).
    serial_fraction:
        Amdahl serial fraction; governs moldable-job runtime scaling:
        ``T(n) = T(1)·(s + (1-s)/n)``.
    typical_nodes / typical_work:
        Medians used by generators when drawing jobs of this app.
    """

    name: str
    profile: PhaseProfile
    serial_fraction: float = 0.02
    typical_nodes: int = 8
    typical_work: float = 3600.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.serial_fraction < 1.0):
            raise WorkloadError(
                f"app {self.name!r}: serial fraction must be in [0,1), "
                f"got {self.serial_fraction}"
            )

    def scaled_work(self, base_work: float, base_nodes: int, nodes: int) -> float:
        """Work (full-speed runtime) when run on *nodes* instead of *base_nodes*.

        Amdahl scaling: total computation is fixed; the parallel part
        divides across nodes, the serial part does not.
        """
        if nodes <= 0 or base_nodes <= 0:
            raise WorkloadError("node counts must be positive")
        s = self.serial_fraction
        # Work normalized so that T(base_nodes) == base_work.
        t1 = base_work / (s + (1.0 - s) / base_nodes)
        return t1 * (s + (1.0 - s) / nodes)


class ApplicationCatalog:
    """A weighted collection of applications to draw jobs from."""

    def __init__(self, apps: List[Application], weights: Optional[List[float]] = None) -> None:
        if not apps:
            raise WorkloadError("catalog needs at least one application")
        names = [a.name for a in apps]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate application names: {names}")
        self.apps = list(apps)
        if weights is None:
            weights = [1.0] * len(apps)
        if len(weights) != len(apps) or any(w < 0 for w in weights) or sum(weights) == 0:
            raise WorkloadError("weights must be non-negative, same length, not all zero")
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        self._by_name: Dict[str, Application] = {a.name: a for a in apps}

    def __len__(self) -> int:
        return len(self.apps)

    def __getitem__(self, name: str) -> Application:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkloadError(f"no application named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        """Application names in catalog order."""
        return [a.name for a in self.apps]

    def draw(self, rng: np.random.Generator, n: int) -> List[Application]:
        """Draw *n* applications according to the catalog weights.

        One vectorised ``rng.choice``: numpy takes one uniform double per
        draw, so the stream advances exactly as *n* scalar draws would.
        """
        apps = self.apps
        idx = rng.choice(len(apps), size=n, p=self.weights)
        return [apps[i] for i in idx.tolist()]

    def sample(self, rng: np.random.Generator) -> Application:
        """Draw one application according to the catalog weights."""
        return self.draw(rng, 1)[0]


def default_catalog() -> ApplicationCatalog:
    """A realistic HPC mix: CFD/MD compute-heavy, graph/memory codes, I/O.

    Weights approximate a typical center's cycle consumption: dominated
    by a few compute-bound community codes with a long tail of
    less-intense work.
    """
    apps = [
        Application("cfd_solver", COMPUTE_BOUND, serial_fraction=0.01,
                    typical_nodes=64, typical_work=4 * 3600.0),
        Application("md_dynamics", COMPUTE_BOUND, serial_fraction=0.005,
                    typical_nodes=32, typical_work=8 * 3600.0),
        Application("climate_model", BALANCED, serial_fraction=0.03,
                    typical_nodes=128, typical_work=12 * 3600.0),
        Application("graph_analytics", MEMORY_BOUND, serial_fraction=0.08,
                    typical_nodes=16, typical_work=2 * 3600.0),
        Application("sparse_solver", MEMORY_BOUND, serial_fraction=0.05,
                    typical_nodes=32, typical_work=3 * 3600.0),
        Application("spectral_fft", PhaseProfile([
            Phase(0.6, sensitivity=0.9, intensity=0.95, kind="compute"),
            Phase(0.4, sensitivity=0.2, intensity=0.55, kind="comm"),
        ]), serial_fraction=0.02, typical_nodes=64, typical_work=3600.0),
        Application("io_pipeline", COMM_BOUND, serial_fraction=0.15,
                    typical_nodes=4, typical_work=1800.0),
        Application("ensemble_member", BALANCED, serial_fraction=0.01,
                    typical_nodes=1, typical_work=3600.0),
    ]
    weights = [0.22, 0.18, 0.12, 0.10, 0.10, 0.10, 0.06, 0.12]
    return ApplicationCatalog(apps, weights)
