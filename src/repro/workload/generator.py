"""Synthetic workload generation.

Generates job streams matching the statistical envelope the centers
describe in survey Q3: arrival rate (with optional diurnal modulation —
submissions peak in working hours), job-size distribution (log2-ish,
with the capability/capacity split of Q3d), heavy-tailed runtimes, and
the notorious gap between requested and actual walltime ([35] found
user estimates are routinely 2-10x the real runtime, and that this gap
is what makes backfilling work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..units import DAY, HOUR
from .apps import ApplicationCatalog, default_catalog
from .job import Job, MoldableConfig


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    arrival_rate:
        Mean job arrivals per second (Poisson).
    diurnal:
        If True, modulate the rate sinusoidally with a working-hours
        peak (x(1+0.8) at 14:00, x(1-0.8) at 02:00).
    duration:
        Length of the submission window, seconds.
    min_nodes / max_nodes:
        Job size range; sizes are drawn log-uniformly in powers of two.
    capability_fraction:
        Fraction of jobs drawn from the *capability* regime (large jobs
        using >= 25 % of max_nodes); the rest is the capacity tail
        (Q3d's split).
    mean_work / work_sigma:
        Lognormal runtime parameters (seconds at full speed).
    overestimate_mean:
        Mean multiplicative walltime over-request (>= 1).
    moldable_fraction:
        Fraction of jobs that carry moldable configurations.
    users:
        Number of distinct users to attribute jobs to.
    """

    arrival_rate: float = 50.0 / HOUR
    diurnal: bool = False
    duration: float = 2.0 * DAY
    min_nodes: int = 1
    max_nodes: int = 256
    capability_fraction: float = 0.1
    mean_work: float = 2.0 * HOUR
    work_sigma: float = 1.0
    overestimate_mean: float = 2.5
    moldable_fraction: float = 0.0
    users: int = 20
    catalog: ApplicationCatalog = field(default_factory=default_catalog)

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise WorkloadError("arrival_rate must be > 0")
        if self.duration <= 0:
            raise WorkloadError("duration must be > 0")
        if not (1 <= self.min_nodes <= self.max_nodes):
            raise WorkloadError(
                f"need 1 <= min_nodes <= max_nodes, got {self.min_nodes}..{self.max_nodes}"
            )
        if not (0.0 <= self.capability_fraction <= 1.0):
            raise WorkloadError("capability_fraction must be in [0,1]")
        if self.mean_work <= 0:
            raise WorkloadError("mean_work must be > 0")
        if self.overestimate_mean < 1.0:
            raise WorkloadError("overestimate_mean must be >= 1")
        if not (0.0 <= self.moldable_fraction <= 1.0):
            raise WorkloadError("moldable_fraction must be in [0,1]")
        if self.users < 1:
            raise WorkloadError("need >= 1 user")


class WorkloadGenerator:
    """Draws reproducible job streams from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def _arrival_times(self) -> np.ndarray:
        """Poisson (optionally diurnally thinned) arrival times."""
        spec = self.spec
        if not spec.diurnal:
            # Homogeneous Poisson: exponential gaps.
            expected = spec.arrival_rate * spec.duration
            n_draw = int(expected + 6.0 * math.sqrt(max(expected, 1.0)) + 16)
            gaps = self.rng.exponential(1.0 / spec.arrival_rate, size=n_draw)
            times = np.cumsum(gaps)
            return times[times < spec.duration]
        # Inhomogeneous via thinning against the diurnal peak rate.
        peak = spec.arrival_rate * 1.8
        expected = peak * spec.duration
        n_draw = int(expected + 6.0 * math.sqrt(max(expected, 1.0)) + 16)
        gaps = self.rng.exponential(1.0 / peak, size=n_draw)
        times = np.cumsum(gaps)
        times = times[times < spec.duration]
        hours = (times % DAY) / 3600.0
        rate = spec.arrival_rate * (1.0 + 0.8 * np.sin(2.0 * np.pi * hours / 24.0 - np.pi / 2.0))
        keep = self.rng.random(len(times)) < rate / peak
        return times[keep]

    # ------------------------------------------------------------------
    # Marginal draws
    # ------------------------------------------------------------------
    def _draw_nodes(self, n: int) -> np.ndarray:
        """Job sizes: log2-uniform capacity tail + capability head."""
        spec = self.spec
        lo = max(0, int(math.log2(spec.min_nodes)))
        hi = max(lo, int(math.log2(spec.max_nodes)))
        capability_floor = max(lo, hi - 2)  # top quarter of the log range

        is_capability = self.rng.random(n) < spec.capability_fraction
        cap_exp = self.rng.integers(capability_floor, hi + 1, size=n)
        # Capacity jobs: geometric-ish preference for small sizes.
        span = hi - lo + 1
        weights = np.array([0.5**i for i in range(span)])
        weights /= weights.sum()
        small_exp = lo + self.rng.choice(span, size=n, p=weights)
        exps = np.where(is_capability, cap_exp, small_exp)
        nodes = np.minimum(2**exps, spec.max_nodes)
        return np.maximum(nodes, spec.min_nodes).astype(int)

    def _draw_work(self, n: int) -> np.ndarray:
        """Lognormal full-speed runtimes with the configured mean."""
        spec = self.spec
        sigma = spec.work_sigma
        mu = math.log(spec.mean_work) - 0.5 * sigma * sigma
        work = self.rng.lognormal(mu, sigma, size=n)
        return np.clip(work, 30.0, 30.0 * DAY)

    def _draw_walltimes(self, work: np.ndarray) -> np.ndarray:
        """User walltime requests: multiplicative over-estimates."""
        spec = self.spec
        extra = self.rng.exponential(spec.overestimate_mean - 1.0, size=len(work)) \
            if spec.overestimate_mean > 1.0 else np.zeros(len(work))
        factor = 1.0 + extra
        # Users round up to the next quarter hour, like real submissions.
        raw = work * factor
        return np.ceil(raw / 900.0) * 900.0

    # ------------------------------------------------------------------
    def generate(self, count: Optional[int] = None, id_prefix: str = "job") -> List[Job]:
        """Generate the workload as a submit-time-sorted job list.

        If *count* is given, exactly that many jobs are produced
        (arrival times are rescaled/truncated as needed); otherwise the
        Poisson process decides.
        """
        times = self._arrival_times()
        if count is not None:
            if count <= 0:
                raise WorkloadError("count must be positive")
            while len(times) < count:
                more = self._arrival_times() + (times[-1] if len(times) else 0.0)
                times = np.concatenate([times, more])
            times = times[:count]
        n = len(times)
        if n == 0:
            return []
        nodes = self._draw_nodes(n)
        work = self._draw_work(n)
        walltimes = self._draw_walltimes(work)
        user_idx = self.rng.integers(0, self.spec.users, size=n)
        moldable_mask = self.rng.random(n) < self.spec.moldable_fraction
        apps = self.spec.catalog.draw(self.rng, n)

        jobs: List[Job] = []
        for i, app in enumerate(apps):
            w = float(work[i])
            nd = int(nodes[i])
            moldable: Sequence[MoldableConfig] = ()
            if moldable_mask[i] and nd > 1:
                configs = []
                for alt in {max(1, nd // 2), nd, min(self.spec.max_nodes, nd * 2)}:
                    configs.append(
                        MoldableConfig(alt, app.scaled_work(w, nd, alt))
                    )
                moldable = tuple(sorted(configs, key=lambda c: c.nodes))
            jobs.append(
                Job(
                    job_id=f"{id_prefix}{i:06d}",
                    nodes=nd,
                    work_seconds=w,
                    walltime_request=max(float(walltimes[i]), w),
                    submit_time=float(times[i]),
                    user=f"user{int(user_idx[i]):03d}",
                    profile=app.profile,
                    app_name=app.name,
                    tag=f"{app.name}:{nd}",
                    moldable=tuple(moldable),
                )
            )
        jobs.sort(key=lambda j: j.submit_time)
        return jobs
