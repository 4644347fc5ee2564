"""The benchmark's workloads and the checks on their outputs.

Each workload is run by one process, one repetition after another
(a closed loop of one).  The seed feeds every site's
``SiteConfig.seed`` / every center builder's ``seed``; nothing else
varies between seeds.  README.md says why each workload was chosen.

An *operation* is one site-epoch advance (federation) or one center
arm run (matrix).  It fails if it raised, was retried by the fan-out, or
failed an output check.  ``repro`` is imported lazily so the set-up
probe can time the import.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

#: Seed of the committed reference fingerprints.
DEFAULT_SEED = 1
REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")
HOUR = 3600.0
#: Pool size of the federation workloads: one worker per core on the
#: 2-core box the sizes were tuned on.
WORKERS = 2


@dataclass
class Run:
    """What the timed call returned: wall seconds plus the result (or
    the error it raised)."""

    wall: float
    result: Any = None
    error: Optional[str] = None


@dataclass
class Rep:
    """One checked repetition of a workload."""

    wall: float
    jobs: int
    #: op key -> fingerprint ("" when the op produced none).
    ops: Dict[str, str]
    failed: Set[str] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    #: (name, terminal jobs, power samples) per site or center.
    sites: List[Tuple[str, int, int]] = field(default_factory=list)
    fingerprint: str = ""

    def fail(self, keys, problem: str) -> None:
        self.failed.update(keys)
        self.problems.append(problem)


def load_reference(path: pathlib.Path = REFERENCE_PATH) -> Dict[str, Any]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["workloads"] if data.get("seed") == DEFAULT_SEED else {}


def _slugs(slugs: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    from repro.centers import center_slugs

    return tuple(center_slugs()) if slugs is None else slugs


def _check_reference(rep: Rep, reference: Optional[Dict[str, Any]]) -> None:
    """Per-op fingerprints against the committed default-seed ones."""
    if reference is None:
        return
    expected = reference["ops"]
    bad = sorted(k for k in rep.ops if rep.ops[k] != expected.get(k))
    missing = sorted(set(expected) - set(rep.ops))
    if bad or missing:
        rep.fail(bad, f"fingerprints differ from reference: {(bad + missing)[:4]}")
    if rep.fingerprint != reference["fingerprint"]:
        rep.problems.append("fingerprint differs from reference")
        rep.failed.update(rep.ops)


@dataclass(frozen=True)
class Federation:
    """Nine sites in lockstep epochs on a ``FanoutPool``.

    One repetition runs *replicas* campaigns in turn, one per seed
    replica (replica r of seed s gives every site seed
    ``s * replicas + r``).  One campaign's wall time follows the job
    mix its seed draws; several per repetition average that out, as the
    matrix's replicas do."""

    name: str
    horizon_h: float
    epoch_h: float
    #: ``None`` runs broker-off (every site budget infinite).
    budget_fraction: Optional[float]
    replicas: int = 1
    slugs: Optional[Tuple[str, ...]] = None

    def describe(self) -> str:
        broker = (
            "broker off" if self.budget_fraction is None
            else f"broker at {self.budget_fraction:.2f}"
        )
        return (
            f"{self.replicas} campaign(s) in turn, one per seed replica, each "
            f"{len(_slugs(self.slugs))} sites, {broker}, {self.horizon_h:g} h "
            f"in {self.epoch_h:g}-h epochs, workers={WORKERS}"
        )

    def campaign_seeds(self, seed: int) -> List[int]:
        return [seed * self.replicas + r for r in range(self.replicas)]

    def site_configs(self, campaign_seed: int) -> list:
        from repro.federation import SiteConfig

        return [
            SiteConfig(slug=slug, seed=campaign_seed, horizon=self.horizon_h * HOUR)
            for slug in _slugs(self.slugs)
        ]

    def epochs(self) -> int:
        return int(math.ceil(self.horizon_h / self.epoch_h - 1e-9))

    def op_keys(self, seed: int) -> List[str]:
        return [
            f"{campaign_seed}/{slug}/{epoch}"
            for campaign_seed in self.campaign_seeds(seed)
            for slug in _slugs(self.slugs)
            for epoch in range(self.epochs())
        ]

    def setup(self, seed: int) -> None:
        from repro.federation.site import build_site_simulation

        for campaign_seed in self.campaign_seeds(seed):
            for cfg in self.site_configs(campaign_seed):
                build_site_simulation(cfg)

    def campaign(self, campaign_seed: int):
        from repro.centers import CENTER_MARKETS
        from repro.federation import FederationCampaign, GlobalBroker

        broker = None
        if self.budget_fraction is not None:
            broker = GlobalBroker(
                CENTER_MARKETS,
                budget_fraction=self.budget_fraction,
                carbon_weight=0.1,
            )
        return FederationCampaign(
            sites=self.site_configs(campaign_seed),
            broker=broker,
            horizon=self.horizon_h * HOUR,
            epoch_seconds=self.epoch_h * HOUR,
            workers=WORKERS,
        )

    def execute(self, seed: int) -> Run:
        """Run every replica's campaign; the wall time is their sum."""
        results, wall = [], 0.0
        for campaign_seed in self.campaign_seeds(seed):
            campaign = self.campaign(campaign_seed)
            start = time.perf_counter()
            try:
                results.append(campaign.run())
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                return Run(wall + time.perf_counter() - start, error=repr(exc))
            wall += time.perf_counter() - start
        return Run(wall, results)

    def verify(self, run: Run, seed: int, reference, raised: Counter) -> Rep:
        keys = self.op_keys(seed)
        if run.error is not None:
            rep = Rep(run.wall, 0, {k: "" for k in keys})
            rep.fail(keys, f"campaign raised {run.error}")
            return rep
        rep = Rep(run.wall, 0, {})
        digest = hashlib.sha256()
        per_site: Dict[str, List[int]] = {}
        for campaign_seed, result in zip(self.campaign_seeds(seed), run.result):
            digest.update(f"{campaign_seed}:{result.fingerprint}\n".encode())
            _check_campaign(rep, campaign_seed, result, per_site)
        rep.sites = [(slug, jobs, samples)
                     for slug, (jobs, samples) in per_site.items()]
        rep.fingerprint = digest.hexdigest()
        if sorted(rep.ops) != sorted(keys):
            rep.fail(keys, "a campaign did not report every site-epoch")
        retried = [f"{s}/{slug}/{epoch}" for (s, slug, epoch) in raised]
        if retried:
            rep.fail(retried, f"site-epochs raised and were retried: {retried[:4]}")
        _check_reference(rep, reference)
        return rep


def _check_campaign(rep: Rep, campaign_seed: int, result,
                    per_site: Dict[str, List[int]]) -> None:
    """Record one campaign's ops and per-site tallies, and check that
    its fleet summary is the sum of per-site results re-derived from
    the per-epoch reports (billing recomputed from the power series)."""
    from repro.centers import CENTER_MARKETS

    own = []
    fleet = {"cost": 0.0, "carbon_kg": 0.0, "energy_joules": 0.0,
             "completed_jobs": 0.0, "vetoes": 0.0}
    for slug, reports in result.reports.items():
        market = CENTER_MARKETS[slug]
        for report in reports:
            key = f"{campaign_seed}/{slug}/{report.epoch}"
            rep.ops[key] = report.fingerprint
            own.append(key)
            if len(report.power_times) >= 2:
                fleet["cost"] += market.cost_of(report.power_times, report.power_watts)
                fleet["carbon_kg"] += market.carbon_of(report.power_times, report.power_watts)
        last = reports[-1]
        fleet["energy_joules"] += last.energy_joules
        fleet["completed_jobs"] += last.completed_jobs
        fleet["vetoes"] += last.vetoes
        rep.jobs += last.completed_jobs
        row = per_site.setdefault(slug, [0, 0])
        row[0] += last.completed_jobs
        row[1] += sum(len(r.power_times) for r in reports)
    summary = result.summary()
    off = [k for k, v in fleet.items()
           if not math.isclose(summary[k], v, rel_tol=1e-9, abs_tol=1e-9)]
    if off:
        rep.fail(own, f"seed {campaign_seed}: fleet summary is not the sum "
                      f"of its sites: {off}")


def _prebuilt(build):
    return build


@dataclass(frozen=True)
class CenterMatrix:
    """The nine center scenarios as sequential ``ExperimentRunner`` arms,
    each in *replicas* seed replicas (replica r of seed s builds with
    seed ``s * replicas + r``)."""

    name: str
    window_h: float
    replicas: int
    slugs: Optional[Tuple[str, ...]] = None

    def describe(self) -> str:
        return (
            f"{len(_slugs(self.slugs))} centers x {self.replicas} seed replicas, "
            f"{self.window_h:g}-h submission window, each run until every "
            "job is terminal, sequential in-process"
        )

    def arms(self, seed: int) -> List[Tuple[str, str, int]]:
        """(arm name, center slug, builder seed) per arm."""
        return [
            (f"{slug}/{r}", slug, seed * self.replicas + r)
            for slug in _slugs(self.slugs)
            for r in range(self.replicas)
        ]

    def op_keys(self, seed: int) -> List[str]:
        return [arm for arm, _, _ in self.arms(seed)]

    def setup(self, seed: int) -> list:
        import repro.centers

        # Looked up on the package at call time, so a traced run's
        # wrapper around it applies.
        return [
            (arm, repro.centers.build_center_simulation(
                slug, seed=arm_seed, duration=self.window_h * HOUR))
            for arm, slug, arm_seed in self.arms(seed)
        ]

    def execute(self, seed: int) -> Run:
        from repro.analysis.runner import ExperimentRunner, Variant

        runner = ExperimentRunner([
            Variant(name=arm, build=functools.partial(_prebuilt, build))
            for arm, build in self.setup(seed)
        ])
        start = time.perf_counter()
        try:
            results = runner.run_all()
        except Exception as exc:  # noqa: BLE001 - counted as failed ops
            return Run(time.perf_counter() - start, error=repr(exc))
        return Run(time.perf_counter() - start, results)

    def verify(self, run: Run, seed: int, reference, raised: Counter) -> Rep:
        from repro.state import result_fingerprint
        from repro.workload.job import JobState

        keys = self.op_keys(seed)
        if run.error is not None:
            rep = Rep(run.wall, 0, {k: "" for k in keys})
            rep.fail(keys, f"run_all raised {run.error}")
            return rep
        ops: Dict[str, str] = {}
        rep = Rep(run.wall, 0, ops)
        digest = hashlib.sha256()
        terminal_states = {JobState.COMPLETED, JobState.KILLED,
                           JobState.TIMEOUT, JobState.CANCELLED}
        per_center: Dict[str, List[int]] = {}
        for variant in run.result:
            result = variant.result
            ops[variant.name] = result_fingerprint(result)
            digest.update(f"{variant.name}:{ops[variant.name]}\n".encode())
            states = Counter(job.state for job in result.jobs)
            terminal = sum(states[s] for s in terminal_states)
            running, pending = states[JobState.RUNNING], states[JobState.PENDING]
            m = variant.metrics
            rep.jobs += terminal
            row = per_center.setdefault(variant.name.split("/")[0], [0, 0])
            row[0] += terminal
            row[1] += result.meter.num_samples
            # Job conservation: submitted = terminal + running + pending,
            # by the job states and by the metrics' own tally.
            counted = (m.jobs_completed + m.jobs_killed + m.jobs_timed_out
                       + m.jobs_unfinished)
            if not (m.jobs_submitted == len(result.jobs)
                    == terminal + running + pending == counted):
                rep.fail([variant.name], f"{variant.name}: jobs not conserved")
        rep.sites = [(slug, jobs, samples)
                     for slug, (jobs, samples) in per_center.items()]
        rep.fingerprint = digest.hexdigest()
        if sorted(ops) != sorted(keys):
            rep.fail(keys, "run_all did not return every arm")
        _check_reference(rep, reference)
        return rep


WORKLOADS = {
    "fed-budget": Federation("fed-budget", horizon_h=4.0, epoch_h=2.0,
                             budget_fraction=0.70, replicas=8),
    "fed-fine": Federation("fed-fine", horizon_h=3.0, epoch_h=0.25,
                           budget_fraction=None),
    "center-matrix": CenterMatrix("center-matrix", window_h=0.5, replicas=16),
    # Self-test sizes (perfbench/selftest.py), not benchmark workloads.
    "tiny-fed": Federation("tiny-fed", horizon_h=1.0, epoch_h=0.5,
                           budget_fraction=0.70, replicas=2,
                           slugs=("cea", "tokyotech")),
    "tiny-matrix": CenterMatrix("tiny-matrix", window_h=0.5, replicas=1,
                                slugs=("stfc", "lrz")),
}
