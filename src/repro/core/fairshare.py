"""Fair-share scheduling and prediction-assisted backfilling.

Survey Q3(d) lists *fairness* among the scheduling goals centers
optimize for; every surveyed production scheduler (SLURM, PBS Pro,
LSF, LoadLeveler, MOAB) implements decay-based fair-share.  And the
backfilling literature's follow-up result (Tsafrir et al., building on
[35]) is that replacing user walltime requests with *learned runtime
predictions* in backfill decisions improves packing — while keeping
the request as the hard kill limit, so reservations remain safe.

Both are provided here as drop-in schedulers:

* :class:`FairShareScheduler` — EASY backfilling over a fair-share
  priority order (decayed node-seconds per user);
* :class:`PredictiveEasyScheduler` — EASY whose shadow/backfill
  arithmetic uses a runtime predictor's estimates.

Both are the one EASY pass of :mod:`repro.core.backfill`: fair-share
only reorders the queue, and prediction overrides the pass's two
estimate hooks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..prediction.runtime_predictor import UserRuntimePredictor
from ..units import check_positive
from ..workload.job import Job
from .backfill import EasyBackfillScheduler
from .scheduler import SchedulingContext, StartDecision


class FairShareScheduler(EasyBackfillScheduler):
    """EASY backfilling over a decayed-usage fair-share order.

    Each user accumulates node-seconds; usage decays exponentially
    with half-life ``half_life``.  Scheduling order is ascending decayed
    usage (lightest user first), with submit time as tie-break.  Feed
    usage via :meth:`record_usage` (the simulation's job-end hook) or
    attach :class:`FairShareAccountingPolicy`.
    """

    name = "fairshare"

    def __init__(self, half_life: float = 7 * 86400.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.half_life = check_positive("half_life", half_life)
        self._usage: Dict[str, float] = {}
        self._usage_time: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def decayed_usage(self, user: str, now: float) -> float:
        """Current decayed node-seconds of *user*."""
        usage = self._usage.get(user, 0.0)
        if usage <= 0.0:
            return 0.0
        age = now - self._usage_time.get(user, now)
        return usage * math.pow(0.5, age / self.half_life)

    def record_usage(self, user: str, node_seconds: float, now: float) -> None:
        """Charge *node_seconds* to *user* at time *now*."""
        current = self.decayed_usage(user, now)
        self._usage[user] = current + node_seconds
        self._usage_time[user] = now

    # ------------------------------------------------------------------
    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        ordered = sorted(
            ctx.pending,
            key=lambda j: (self.decayed_usage(j.user, ctx.now),
                           j.submit_time, j.job_id),
        )
        return super().schedule(ctx.reordered(ordered))


class PredictiveEasyScheduler(EasyBackfillScheduler):
    """EASY backfilling with predicted runtimes in the packing math.

    The *hard* walltime limit stays the user request (jobs are still
    killed there), but shadow-time and ends-before-shadow tests use
    ``predictor.predict(job)`` — systematically smaller, so more
    backfill opportunities are found.  Predictions below actual
    runtimes can delay the head job's start (the known, measured,
    usually-worthwhile trade; Tsafrir et al.).
    """

    name = "predictive-easy"

    def __init__(self, predictor: Optional[UserRuntimePredictor] = None,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.predictor = predictor or UserRuntimePredictor()

    def _estimate(self, job: Job) -> float:
        return self.predictor.predict(job)

    def _estimates(self, pending: Sequence[Job], wall: np.ndarray) -> np.ndarray:
        return np.fromiter(
            map(self._estimate, pending), np.float64, len(pending)
        )

    def _running_releases(
        self, ctx: SchedulingContext
    ) -> List[Tuple[float, int]]:
        return [
            (self._estimated_end(info.job, ctx.now), len(info.node_ids))
            for info in ctx.running
        ]

    def _estimated_end(self, job: Job, now: float) -> float:
        """Predicted end of a *running* job, with Tsafrir correction.

        A job that has already outlived its prediction gets a bumped
        estimate (elapsed x 1.5) instead of "any moment now" — naive
        expired predictions make the shadow time wildly optimistic and
        let backfill repeatedly delay the head job.
        """
        start = job.start_time if job.start_time is not None else now
        predicted = start + self._estimate(job)
        if predicted <= now:
            elapsed = now - start
            predicted = start + min(1.5 * elapsed + 60.0,
                                    job.walltime_request)
            predicted = max(predicted, now + 1.0)
        return predicted


# ----------------------------------------------------------------------
# Wiring helpers (policies that feed the schedulers)
# ----------------------------------------------------------------------
from ..core.epa import FunctionalCategory  # noqa: E402
from ..policies.base import Policy  # noqa: E402


class FairShareAccountingPolicy(Policy):
    """Feeds finished jobs' usage into a :class:`FairShareScheduler`."""

    name = "fairshare-accounting"

    def __init__(self, scheduler: FairShareScheduler) -> None:
        super().__init__()
        self.scheduler = scheduler

    def on_job_end(self, job: Job, now: float) -> None:
        node_seconds = job.node_seconds
        if node_seconds:
            self.scheduler.record_usage(job.user, node_seconds, now)

    def epa_components(self):
        return [(
            "fairshare-accounting",
            FunctionalCategory.RESOURCE_MONITORING,
            f"decayed per-user usage (half-life "
            f"{self.scheduler.half_life / 86400:.1f} d)",
        )]


class RuntimeLearningPolicy(Policy):
    """Feeds finished jobs into a :class:`UserRuntimePredictor`."""

    name = "runtime-learning"

    def __init__(self, predictor: UserRuntimePredictor) -> None:
        super().__init__()
        self.predictor = predictor

    def on_job_end(self, job: Job, now: float) -> None:
        self.predictor.observe(job)

    def epa_components(self):
        return [(
            "runtime-learning",
            FunctionalCategory.RESOURCE_MONITORING,
            "per-user walltime-accuracy ratios from finished jobs",
        )]
