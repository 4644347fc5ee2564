"""Campaign driver: nine centers in lockstep under the broker.

The campaign advances every site one coordination epoch at a time on a
:class:`~repro.analysis.executor.FanoutPool` — sites run concurrently
within an epoch, and the epoch boundary is the barrier where telemetry
flows up to the :class:`~repro.federation.broker.GlobalBroker` and
budget directives flow back down.  Sites go out in the same order
every epoch, so the pool's pinned slots keep each site on one worker,
which continues its live simulation.  Site state still travels inside
the epoch tasks as ``RPST`` snapshot bytes: a site that lands on
another worker (a respawned slot, a retry) restores from them —
migration is the recovery path — and a retained snapshot can be
forked for what-if scoring without touching the primary run.

Determinism contract: with fixed site configs, markets and broker
parameters, the per-site state fingerprints after every epoch — and
hence the campaign fingerprint — are identical across runs and across
worker counts.  DESIGN.md §13 spells out why.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.executor import FanoutPool
from ..centers import CENTER_MARKETS, center_slugs
from ..errors import ConfigurationError
from ..grid.market import RegionMarket
from ..units import DAY, HOUR
from .broker import GlobalBroker
from .protocol import EpochTask, SiteConfig, SiteDirective, SiteReport
from .site import advance_site, release_live_sites

__all__ = [
    "FederationCampaign",
    "FederationResult",
    "SiteResult",
    "federation_fingerprint",
    "pareto_front",
]


def federation_fingerprint(reports: Mapping[str, Sequence[SiteReport]]) -> str:
    """One digest pinning every site's state after every epoch."""
    digest = hashlib.sha256()
    for slug in sorted(reports):
        for report in reports[slug]:
            digest.update(
                f"{slug}:{report.epoch}:{report.fingerprint}\n".encode()
            )
    return digest.hexdigest()


def pareto_front(rows: Sequence[Mapping[str, float]],
                 objectives: Sequence[str]) -> List[int]:
    """Indices of *rows* not dominated on the (minimized) objectives."""
    front: List[int] = []
    for i, row in enumerate(rows):
        dominated = False
        for j, other in enumerate(rows):
            if j == i:
                continue
            no_worse = all(other[k] <= row[k] for k in objectives)
            better = any(other[k] < row[k] for k in objectives)
            if no_worse and better:
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


@dataclass(frozen=True)
class SiteResult:
    """Aggregates for one site over the whole campaign."""

    slug: str
    cost: float
    carbon_kg: float
    energy_joules: float
    completed_jobs: int
    vetoes: int
    metrics: Dict[str, float]
    fingerprints: Tuple[str, ...]


@dataclass(frozen=True)
class FederationResult:
    """Everything one campaign run produced."""

    sites: Dict[str, SiteResult]
    reports: Dict[str, Tuple[SiteReport, ...]]
    directives: Dict[str, Tuple[SiteDirective, ...]]
    fingerprint: str
    epochs: int
    epoch_seconds: float
    horizon: float

    def total_cost(self) -> float:
        return sum(s.cost for s in self.sites.values())

    def total_carbon_kg(self) -> float:
        return sum(s.carbon_kg for s in self.sites.values())

    def total_energy_joules(self) -> float:
        return sum(s.energy_joules for s in self.sites.values())

    def mean_bounded_slowdown(self) -> float:
        values = [
            s.metrics.get("mean_bounded_slowdown", 0.0)
            for s in self.sites.values()
        ]
        return sum(values) / len(values) if values else 0.0

    def summary(self) -> Dict[str, float]:
        """The Pareto coordinates of this run (all minimized)."""
        return {
            "cost": self.total_cost(),
            "carbon_kg": self.total_carbon_kg(),
            "energy_joules": self.total_energy_joules(),
            "mean_bounded_slowdown": self.mean_bounded_slowdown(),
            "completed_jobs": float(
                sum(s.completed_jobs for s in self.sites.values())
            ),
            "vetoes": float(sum(s.vetoes for s in self.sites.values())),
        }


class FederationCampaign:
    """Run a fleet of center simulations in lockstep epochs.

    Parameters
    ----------
    sites:
        Site configs; defaults to all nine surveyed centers.
    markets:
        slug -> :class:`RegionMarket`; defaults to the registry's
        stylized regional markets.  Used for billing even with the
        broker off, so cost deltas are like-for-like.
    broker:
        The coordination layer; ``None`` runs the broker-off baseline
        (every directive infinite — the budget policy stays inert).
    horizon / epoch_seconds:
        Campaign span and coordination period.  The last epoch is
        truncated if the horizon is not a multiple.
    workers:
        Process fan-out for the per-epoch site advance.
    retain_snapshots:
        Keep each site's end-of-epoch snapshot bytes on the campaign
        (enables :meth:`fork_site` what-ifs; costs memory).
    """

    def __init__(
        self,
        sites: Optional[Sequence[SiteConfig]] = None,
        markets: Optional[Mapping[str, RegionMarket]] = None,
        broker: Optional[GlobalBroker] = None,
        horizon: float = 2.0 * DAY,
        epoch_seconds: float = 6.0 * HOUR,
        workers: int = 1,
        retain_snapshots: bool = False,
    ) -> None:
        if horizon <= 0 or epoch_seconds <= 0:
            raise ConfigurationError("horizon and epoch must be positive")
        if sites is None:
            sites = tuple(
                SiteConfig(slug=slug, horizon=horizon)
                for slug in center_slugs()
            )
        if not sites:
            raise ConfigurationError("campaign needs at least one site")
        slugs = [cfg.slug for cfg in sites]
        if len(set(slugs)) != len(slugs):
            raise ConfigurationError(f"duplicate site slugs: {slugs}")
        self.sites: Tuple[SiteConfig, ...] = tuple(sites)
        self.markets: Dict[str, RegionMarket] = dict(
            markets if markets is not None else CENTER_MARKETS
        )
        missing = [s for s in slugs if s not in self.markets]
        if missing:
            raise ConfigurationError(f"no market for sites: {missing}")
        self.broker = broker
        self.horizon = horizon
        self.epoch_seconds = epoch_seconds
        self.workers = workers
        self.retain_snapshots = retain_snapshots
        self.epochs = int(math.ceil(horizon / epoch_seconds))
        #: slug -> epoch -> snapshot bytes (when retained).
        self.snapshots: Dict[str, Dict[int, bytes]] = {}

    # ------------------------------------------------------------------
    def _epoch_bounds(self, epoch: int) -> Tuple[float, float]:
        start = epoch * self.epoch_seconds
        end = min((epoch + 1) * self.epoch_seconds, self.horizon)
        return start, end

    def run(self) -> FederationResult:
        """Execute the campaign; returns the aggregated result."""
        slugs = [cfg.slug for cfg in self.sites]
        blobs: Dict[str, Optional[bytes]] = {s: None for s in slugs}
        directives: Dict[str, SiteDirective] = {
            s: SiteDirective(epoch=0) for s in slugs
        }
        reports: Dict[str, List[SiteReport]] = {s: [] for s in slugs}
        issued: Dict[str, List[SiteDirective]] = {s: [] for s in slugs}
        self.snapshots = {s: {} for s in slugs}

        try:
            with FanoutPool(workers=self.workers) as pool:
                for epoch in range(self.epochs):
                    start, end = self._epoch_bounds(epoch)
                    final = epoch == self.epochs - 1
                    tasks = [
                        EpochTask(
                            config=cfg,
                            directive=directives[cfg.slug],
                            epoch=epoch,
                            epoch_start=start,
                            epoch_end=end,
                            snapshot_blob=blobs[cfg.slug],
                            final=final,
                        )
                        for cfg in self.sites
                    ]
                    outcomes = pool.map(advance_site, tasks)
                    for cfg, outcome in zip(self.sites, outcomes):
                        slug = cfg.slug
                        reports[slug].append(outcome.report)
                        issued[slug].append(directives[slug])
                        blobs[slug] = outcome.snapshot_blob
                        if self.retain_snapshots and outcome.snapshot_blob:
                            self.snapshots[slug][epoch] = outcome.snapshot_blob
                    if not final:
                        directives = self._next_directives(
                            epoch, {s: reports[s][-1] for s in slugs}
                        )
        finally:
            # At workers=1 (or after an inline fallback) the live sites
            # sit in this process; none may outlive the campaign.
            release_live_sites()

        sites = {
            slug: self._site_result(slug, reports[slug]) for slug in slugs
        }
        return FederationResult(
            sites=sites,
            reports={s: tuple(r) for s, r in reports.items()},
            directives={s: tuple(d) for s, d in issued.items()},
            fingerprint=federation_fingerprint(reports),
            epochs=self.epochs,
            epoch_seconds=self.epoch_seconds,
            horizon=self.horizon,
        )

    def _next_directives(
        self, epoch: int, latest: Mapping[str, SiteReport]
    ) -> Dict[str, SiteDirective]:
        """Broker pass for the next epoch (or inert inf directives)."""
        if self.broker is None:
            return {
                slug: SiteDirective(epoch=epoch + 1) for slug in latest
            }
        start, end = self._epoch_bounds(epoch + 1)
        grants = self.broker.allocate(latest, start, end)
        return {
            slug: SiteDirective(epoch=epoch + 1, budget_watts=watts)
            for slug, watts in grants.items()
        }

    def _site_result(
        self, slug: str, site_reports: Sequence[SiteReport]
    ) -> SiteResult:
        market = self.markets[slug]
        cost = 0.0
        carbon = 0.0
        for report in site_reports:
            if len(report.power_times) >= 2:
                cost += market.cost_of(report.power_times, report.power_watts)
                carbon += market.carbon_of(
                    report.power_times, report.power_watts
                )
        last = site_reports[-1]
        return SiteResult(
            slug=slug,
            cost=cost,
            carbon_kg=carbon,
            energy_joules=last.energy_joules,
            completed_jobs=last.completed_jobs,
            vetoes=last.vetoes,
            metrics=dict(last.metrics or {}),
            fingerprints=tuple(r.fingerprint for r in site_reports),
        )

    # ------------------------------------------------------------------
    def fork_site(
        self,
        slug: str,
        epoch: int,
        budget_watts: float = math.inf,
        until: Optional[float] = None,
    ) -> SiteReport:
        """What-if: fork one site from a retained snapshot and score it.

        Advances a *copy* of the site from its end-of-*epoch* state
        under a hypothetical budget, without perturbing the primary
        campaign state (the snapshot bytes are immutable; the fork
        builds its own simulation).  Requires ``retain_snapshots``.
        """
        blob = self.snapshots.get(slug, {}).get(epoch)
        if blob is None:
            raise ConfigurationError(
                f"no retained snapshot for site {slug!r} epoch {epoch} "
                "(construct the campaign with retain_snapshots=True)"
            )
        config = next(cfg for cfg in self.sites if cfg.slug == slug)
        start = (epoch + 1) * self.epoch_seconds
        end = until if until is not None else min(
            start + self.epoch_seconds, self.horizon
        )
        task = EpochTask(
            config=config,
            directive=SiteDirective(epoch=epoch + 1, budget_watts=budget_watts),
            epoch=epoch + 1,
            epoch_start=start,
            epoch_end=end,
            snapshot_blob=blob,
            final=False,
            keep_snapshot=False,
        )
        return advance_site(task).report

    def score_budgets(
        self,
        slug: str,
        epoch: int,
        candidates: Sequence[float],
    ) -> List[Tuple[float, float, float]]:
        """Score candidate budgets for one site's next epoch.

        Returns ``(budget, cost, backlog_jobs)`` per candidate — the
        what-if curve a planner would hand the broker.  Each fork is
        independent; the primary run's state is untouched.
        """
        market = self.markets[slug]
        rows: List[Tuple[float, float, float]] = []
        for budget in candidates:
            report = self.fork_site(slug, epoch, budget_watts=budget)
            cost = (
                market.cost_of(report.power_times, report.power_watts)
                if len(report.power_times) >= 2
                else 0.0
            )
            rows.append((budget, cost, float(report.backlog_jobs)))
        return rows
