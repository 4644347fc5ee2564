"""Federated nine-center simulation under a global grid/market broker.

The survey's centers each optimize alone; this package runs all nine
concurrently as *sites* of one federation, advancing in deterministic
lockstep epochs.  A :class:`GlobalBroker` prices every region's next
epoch window (time-of-use tariff + carbon trace, timezone-shifted) and
water-fills a fleet power budget where electricity is cheap and clean;
sites enforce their directive through
:class:`~repro.policies.site_budget.SiteBudgetPolicy` and report
power/queue/slowdown telemetry back.  Each site stays live in the
worker it is pinned to; its state also crosses processes as ``RPST``
snapshot bytes every epoch, which is what makes what-if forks and
recovery on another worker safe.

See DESIGN.md §13 for the epoch protocol and determinism contract.
"""

from .broker import EpochAllocation, GlobalBroker
from .campaign import (
    FederationCampaign,
    FederationResult,
    SiteResult,
    federation_fingerprint,
    pareto_front,
)
from .protocol import (
    EpochOutcome,
    EpochTask,
    SiteConfig,
    SiteDirective,
    SiteReport,
)
from .site import advance_site, build_site_simulation

__all__ = [
    "EpochAllocation",
    "EpochOutcome",
    "EpochTask",
    "FederationCampaign",
    "FederationResult",
    "GlobalBroker",
    "SiteConfig",
    "SiteDirective",
    "SiteReport",
    "SiteResult",
    "advance_site",
    "build_site_simulation",
    "federation_fingerprint",
    "pareto_front",
]
