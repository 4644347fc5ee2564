"""Moldable-job shaping — Patki et al. (HPDC'15, [37]) and related.

"Many approaches take advantage of 'moldable jobs', i.e., jobs which
can run with different configurations (number of nodes, cores or
threads).  Given the current power consumption and power budget, the
best configuration is chosen for each job before its start."

This policy reshapes moldable jobs at scheduling time: it picks the
configuration with the best expected turnaround that fits the free
nodes and (optionally) the remaining power headroom.  Non-moldable
jobs pass through untouched.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.allocator import check_pool
from ..core.epa import FunctionalCategory
from ..errors import AllocationError
from ..workload.job import Job
from .base import Policy


class MoldablePolicy(Policy):
    """Choose moldable configurations against free nodes and power.

    Parameters
    ----------
    budget_watts:
        Optional machine power budget; configurations whose estimated
        draw would break it are skipped.
    prefer_speed:
        If True, among feasible configurations pick the one with the
        shortest estimated runtime (more nodes); otherwise pick the
        most node-efficient one (fewest node-seconds).
    """

    name = "moldable"

    def __init__(
        self,
        budget_watts: Optional[float] = None,
        prefer_speed: bool = True,
    ) -> None:
        super().__init__()
        self.budget_watts = budget_watts
        self.prefer_speed = prefer_speed
        self.reshaped = 0
        #: Shaping attempts where even the smallest configuration
        #: exceeds the machine's usable capacity (reshaping cannot
        #: make the job schedulable).
        self.infeasible = 0

    # ------------------------------------------------------------------
    def select_configuration(self, job: Job, now: float) -> Job:
        if not job.moldable or job.start_time is not None:
            return job
        free = sum(1 for n in self.simulation.machine.nodes if n.is_available)
        headroom = None
        if self.budget_watts is not None:
            headroom = self.budget_watts - self.simulation.machine_power()

        feasible = []
        for cfg in job.moldable:
            if cfg.nodes > free:
                continue
            if headroom is not None:
                draw = self.simulation.power_vector.job_power(
                    cfg.nodes, job.mean_power_intensity
                )
                if draw > headroom:
                    continue
            feasible.append(cfg)
        if not feasible:
            # Nothing fits right now; fall back to the smallest config so
            # the job eventually becomes schedulable — but only if that
            # config can *ever* run (the structured shortfall from the
            # capacity check distinguishes "congested now" from "wider
            # than the surviving machine", where reshaping is futile).
            smallest = min(job.moldable, key=lambda c: c.nodes)
            try:
                check_pool(self.simulation.usable_node_count, smallest.nodes)
            except AllocationError:
                self.infeasible += 1
                return job
            if smallest.nodes != job.nodes:
                self._reshape(job, smallest.nodes, smallest.work_seconds)
            return job

        if self.prefer_speed:
            chosen = min(feasible, key=lambda c: (c.work_seconds, c.nodes))
        else:
            chosen = min(feasible, key=lambda c: (c.nodes * c.work_seconds, c.nodes))
        if chosen.nodes != job.nodes:
            self._reshape(job, chosen.nodes, chosen.work_seconds)
        return job

    def _reshape(self, job: Job, nodes: int, work: float) -> None:
        # Keep the walltime request proportional to the work change so
        # scheduler estimates stay conservative.
        scale = work / job.work_seconds
        job.nodes = nodes
        job.work_seconds = work
        job.walltime_request = max(work, job.walltime_request * scale)
        self.reshaped += 1
        # The mutation changes the queue's sort key inputs and SoA
        # columns; without this the memoized pending() order (and the
        # JobTable mirror) serve stale values until the next
        # submit/remove.
        queue = self.simulation.queue
        if job.job_id in queue:
            queue.notify_job_changed(job.job_id)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "moldable-shaper",
                FunctionalCategory.RESOURCE_CONTROL,
                "pick moldable configuration vs free nodes and power headroom",
            )
        ]
