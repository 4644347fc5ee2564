"""Site-worker half of the federation: build, advance, report.

Each :class:`~repro.federation.protocol.EpochTask` carries everything
needed to materialize the site (config + ``RPST`` snapshot bytes),
advance it one epoch under the broker's directive, and hand back a
report plus the re-frozen state.  A worker also keeps the sites it
advanced *live* between epochs, in a module-level cache keyed by slug:
when the next task for a site carries the config and the fingerprint
the live copy ended on, the worker continues that copy instead of
rebuilding and restoring it.  The bytes still travel both ways, so a
site that lands on another worker (a crashed or respawned slot, a
retry) resumes from the blob exactly as before — migration is the
recovery path — and a what-if fork is the same task with
``keep_snapshot=False`` run against a copy of the bytes, never the
live copy.

Everything here is module-level (no closures, no lambdas) so tasks
pickle cleanly through the process pool.
"""

from __future__ import annotations

import bisect
import functools
from typing import Dict, NamedTuple, Optional

from ..centers import CenterBuild, build_center_simulation
from ..core.simulation import ClusterSimulation
from ..errors import ConfigurationError
from ..policies.site_budget import SiteBudgetPolicy
from ..state import from_bytes, restore, snapshot, state_fingerprint, to_bytes
from .protocol import EpochOutcome, EpochTask, SiteConfig, SiteReport

__all__ = [
    "build_site_simulation",
    "advance_site",
    "release_live_sites",
    "BACKLOG_LOOKAHEAD",
]

#: how many queued jobs (in scheduling order) feed the demand signal —
#: mirrors the lookahead of the in-process BudgetCoordinator.
BACKLOG_LOOKAHEAD = 32


class _LiveSite(NamedTuple):
    """A site simulation kept between epochs, with the config it was
    built from and the fingerprint of the state it stopped on."""

    config: SiteConfig
    fingerprint: str
    simulation: ClusterSimulation


#: slug -> the live simulation this process last advanced for it.
#: Pool workers own the entries of the sites pinned to them; at
#: ``workers=1`` this is the campaign's own process, which empties it
#: through :func:`release_live_sites` when the campaign ends.
_LIVE: Dict[str, _LiveSite] = {}


def release_live_sites() -> None:
    """Drop every live site this process holds."""
    _LIVE.clear()


def build_site_simulation(config: SiteConfig) -> CenterBuild:
    """Deterministic factory: center scenario + steerable budget policy.

    Called identically on every epoch (and every worker) so the
    restored simulation's config digest matches the snapshot's.  The
    budget policy starts infinite (inert); directives arrive by
    assigning ``limit_watts`` after build/restore, never through the
    factory — the factory must not depend on per-epoch state.
    """
    build = build_center_simulation(
        config.slug,
        seed=config.seed,
        duration=config.horizon,
        **dict(config.builder_kwargs),
    )
    build.simulation.add_policy(
        SiteBudgetPolicy(check_interval=config.budget_check_interval)
    )
    return build


def _budget_policy(sim_obj) -> SiteBudgetPolicy:
    for policy in sim_obj.policies:
        if isinstance(policy, SiteBudgetPolicy):
            return policy
    raise ConfigurationError(
        "site simulation has no SiteBudgetPolicy; "
        "was it built by build_site_simulation?"
    )


def _epoch_series(sim_obj, start: float, end: float):
    """Meter samples covering [start, end], both boundaries included.

    The sample *at* ``start`` was recorded while closing the previous
    epoch and rides along in the snapshot, so consecutive reports
    share exactly one boundary point; billing the leading ``len - 1``
    half-open intervals of each report then tiles the campaign span
    with no gap and no double count.
    """
    times, watts = sim_obj.meter.series()
    lo = bisect.bisect_left(times, start)
    hi = bisect.bisect_right(times, end)
    return (
        tuple(float(t) for t in times[lo:hi]),
        tuple(float(w) for w in watts[lo:hi]),
    )


def _demand_watts(sim_obj) -> float:
    """Current draw plus the marginal power of the queued backlog.

    Read after the closing snapshot, so it peeks at the power mirror
    instead of folding its dirty rows: a live site must stay on the
    state its shipped fingerprint names.
    """
    node = sim_obj.machine.nodes[0]
    per_node = node.max_power - node.idle_power
    backlog = sum(
        job.nodes for job in sim_obj.queue.pending()[:BACKLOG_LOOKAHEAD]
    )
    return float(sim_obj.power_vector.peek_watts() + backlog * per_node)


def _take_live(task: EpochTask) -> Optional[ClusterSimulation]:
    """Remove the site's live entry; return its simulation when it is
    exactly the state the task's blob holds (same config, same
    fingerprint), else ``None``.  Removing it first means an advance
    that raises leaves no half-advanced copy behind: the retry restores
    from the blob."""
    entry = _LIVE.pop(task.config.slug, None)
    if entry is None or task.snapshot_blob is None:
        return None
    if entry.config != task.config:
        return None
    if entry.fingerprint != state_fingerprint(task.snapshot_blob):
        return None
    return entry.simulation


def advance_site(task: EpochTask) -> EpochOutcome:
    """Advance one site through one coordination epoch.

    Epoch zero builds the site fresh.  A later epoch continues this
    process's live copy of the site when it matches the task's blob,
    and otherwise restores the RPST bytes onto a factory-built twin;
    both land on the same fingerprints.  What-if forks
    (``keep_snapshot=False``) always restore and never touch the live
    copies.  A non-final advance that succeeds keeps its simulation
    live for the next epoch; a final one finalizes and drops it.  The
    closing snapshot is taken *before* ``finalize()`` on the final
    epoch, so the fingerprint a continuous run and a chunked run
    produce at the same instant are comparable — finalize only adds
    the metrics bundle to the report.
    """
    resident = task.keep_snapshot
    sim_obj = _take_live(task) if resident else None
    if sim_obj is None:
        factory = functools.partial(build_site_simulation, task.config)
        if task.snapshot_blob is None:
            if task.epoch_start != 0.0:
                raise ConfigurationError(
                    f"no snapshot for epoch starting at t={task.epoch_start}"
                )
            sim_obj = factory().simulation
        else:
            sim_obj = restore(from_bytes(task.snapshot_blob), factory)

    policy = _budget_policy(sim_obj)
    policy.limit_watts = task.directive.budget_watts

    sim_obj.prepare()
    sim_obj.sim.run(until=task.epoch_end)

    # One encode per site-epoch: the fingerprint is the blob's verified
    # content hash, and the blob itself is dropped when not shipped.
    blob: Optional[bytes] = to_bytes(snapshot(sim_obj))
    fingerprint = state_fingerprint(blob)
    if task.final or not task.keep_snapshot:
        blob = None

    metrics = None
    if task.final:
        metrics = sim_obj.finalize().metrics.as_dict()

    times, watts = _epoch_series(sim_obj, task.epoch_start, task.epoch_end)
    machine = sim_obj.machine
    report = SiteReport(
        slug=task.config.slug,
        epoch=task.epoch,
        epoch_start=task.epoch_start,
        epoch_end=task.epoch_end,
        fingerprint=fingerprint,
        power_times=times,
        power_watts=watts,
        energy_joules=float(sim_obj.meter.energy_joules),
        demand_watts=_demand_watts(sim_obj),
        backlog_jobs=len(sim_obj.queue.pending()),
        backlog_nodes=int(sim_obj.queue.backlog_nodes()),
        running_jobs=len(sim_obj.running_jobs()),
        completed_jobs=int(sim_obj._terminal_count),
        vetoes=int(policy.vetoes),
        floor_watts=float(machine.idle_floor_power),
        ceiling_watts=float(machine.peak_power),
        metrics=metrics,
    )
    if resident and not task.final:
        _LIVE[task.config.slug] = _LiveSite(task.config, fingerprint, sim_obj)
    return EpochOutcome(report=report, snapshot_blob=blob)
