"""Wire types of the federation's lockstep epoch protocol.

The campaign driver and the site workers live in different processes
(:class:`~repro.analysis.executor.FanoutPool` shards them), so every
message is a plain picklable dataclass with only primitive payloads:
floats, strings, tuples and the raw ``RPST`` snapshot bytes.  One
coordination epoch exchanges exactly one :class:`EpochTask` per site
(directive + frozen state in) and one :class:`EpochOutcome` back
(telemetry + advanced state out).  A worker that still holds the site
live from the previous epoch continues it when its fingerprint matches
the blob, so the bytes are the recovery path, not the hot one; they
travel every epoch all the same, which keeps crash retries and what-if
forks free of any handshake.  The broker never sees simulator objects,
only :class:`SiteReport` numbers — which is what keeps the allocation
loop deterministic and the protocol replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..units import DAY

__all__ = [
    "SiteConfig",
    "SiteDirective",
    "SiteReport",
    "EpochTask",
    "EpochOutcome",
]


@dataclass(frozen=True)
class SiteConfig:
    """Immutable identity of one federated site.

    The tuple (slug, seed, horizon, kwargs) fully determines the
    factory a worker rebuilds the simulation from; it is part of the
    snapshot's config digest, so a snapshot taken on one worker can
    only be resumed by a worker holding the *same* config.
    """

    slug: str
    seed: int = 0
    horizon: float = 2.0 * DAY
    budget_check_interval: float = 300.0
    #: extra keyword arguments forwarded to the center builder,
    #: as a sorted tuple of (name, value) pairs so the config stays
    #: hashable and its digest stable.
    builder_kwargs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        object.__setattr__(
            self, "builder_kwargs", tuple(sorted(self.builder_kwargs))
        )


@dataclass(frozen=True)
class SiteDirective:
    """Broker -> site: the power budget for one epoch.

    ``budget_watts=inf`` means unconstrained; the site's
    :class:`~repro.policies.site_budget.SiteBudgetPolicy` is inert
    then, which is exactly the broker-off baseline.
    """

    epoch: int
    budget_watts: float = math.inf

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ConfigurationError("epoch must be >= 0")
        if self.budget_watts <= 0:
            raise ConfigurationError("budget_watts must be positive")


@dataclass(frozen=True)
class SiteReport:
    """Site -> broker: telemetry out of one completed epoch.

    The power series covers ``[epoch_start, epoch_end]`` inclusive of
    both boundary samples; billing integrates the ``len - 1`` leading
    half-open intervals, so concatenating consecutive epoch reports
    never double-counts an interval.
    """

    slug: str
    epoch: int
    epoch_start: float
    epoch_end: float
    #: exact state digest at epoch end (pre-finalize) — the
    #: determinism pin for lockstep replication.
    fingerprint: str
    power_times: Tuple[float, ...]
    power_watts: Tuple[float, ...]
    #: cumulative trapezoidal energy since t=0, joules.
    energy_joules: float
    #: instantaneous draw plus queued-backlog estimate, watts — the
    #: broker's demand signal.
    demand_watts: float
    backlog_jobs: int
    backlog_nodes: int
    running_jobs: int
    completed_jobs: int
    #: cumulative budget-gate vetoes at this site.
    vetoes: int
    #: machine idle floor / peak: the feasible budget band.
    floor_watts: float
    ceiling_watts: float
    #: survey metrics, present only on the final epoch (finalize()
    #: runs once, after the last snapshot).
    metrics: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class EpochTask:
    """Driver -> worker: advance one site through one epoch.

    ``snapshot_blob=None`` means epoch zero — build the site fresh
    from its config; otherwise continue the worker's live copy when it
    is on exactly these bytes, or restore them onto a factory-built
    twin.  ``final`` epochs additionally finalize the
    simulation (metrics) after the closing snapshot; ``keep_snapshot``
    is dropped for what-if forks, which only need the report.
    """

    config: SiteConfig
    directive: SiteDirective
    epoch: int
    epoch_start: float
    epoch_end: float
    snapshot_blob: Optional[bytes] = None
    final: bool = False
    keep_snapshot: bool = True

    def __post_init__(self) -> None:
        if self.epoch_end <= self.epoch_start:
            raise ConfigurationError("epoch_end must be after epoch_start")


@dataclass(frozen=True)
class EpochOutcome:
    """Worker -> driver: the report plus the advanced state."""

    report: SiteReport
    snapshot_blob: Optional[bytes] = None
