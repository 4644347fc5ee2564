"""Shared scenario builders for the ``repro.state`` tests.

Module-level (picklable) builders producing deterministic simulations
of increasing richness, plus helpers to step a live simulation to a
cut point.  The "rich" scenario is engineered so that, mid-run, the
machine exhibits all six node states (OFF / BOOTING / IDLE / BUSY /
SHUTTING_DOWN / DOWN), active per-node power caps, altered
frequencies, and pending backfill reservations — the hard cases for
snapshot/restore.
"""

from __future__ import annotations

import functools

from repro.cluster import Machine, MachineSpec
from repro.core import (
    ClusterSimulation,
    EasyBackfillScheduler,
    FcfsScheduler,
)
from repro.policies import IdleShutdownPolicy, StaticCappingPolicy
from repro.workload import Job

_SCHEDULERS = {"fcfs": FcfsScheduler, "easy": EasyBackfillScheduler}


def make_jobs(count: int = 12, spread: float = 50.0):
    """Deterministic staggered workload for a 16-node machine."""
    return [
        Job(
            job_id=f"j{i}",
            nodes=(i % 4) + 1,
            work_seconds=500.0 + 100.0 * i,
            walltime_request=5000.0,
            submit_time=spread * i,
        )
        for i in range(count)
    ]


def build_small(seed: int = 7, scheduler: str = "fcfs") -> ClusterSimulation:
    """16 nodes, 12 jobs, no policies."""
    machine = Machine(MachineSpec(name="tiny", nodes=16, nodes_per_cabinet=4))
    return ClusterSimulation(
        machine,
        _SCHEDULERS[scheduler](),
        make_jobs(),
        seed=seed,
    )


def build_rich(seed: int = 11) -> ClusterSimulation:
    """Backfill + power caps + idle shutdown on a 24-node machine.

    The aggressive idle-shutdown policy keeps nodes cycling through
    OFF/BOOTING/SHUTTING_DOWN while the bursty workload keeps others
    BUSY and backfill reservations pending.
    """
    machine = Machine(MachineSpec(name="rich", nodes=24, nodes_per_cabinet=6))
    jobs = [
        Job(
            job_id=f"r{i}",
            nodes=(i % 6) + 1,
            work_seconds=400.0 + 150.0 * (i % 5),
            walltime_request=4000.0,
            submit_time=0.0 if i < 6 else 300.0 + 200.0 * i,
        )
        for i in range(18)
    ]
    return ClusterSimulation(
        machine,
        EasyBackfillScheduler(),
        jobs,
        policies=[
            StaticCappingPolicy(cap_watts=270.0, capped_fraction=0.5),
            IdleShutdownPolicy(idle_threshold=120.0, min_spare=2,
                               check_interval=60.0),
        ],
        seed=seed,
    )


def rich_factory(seed: int = 11):
    """A zero-argument factory closing over the scenario parameters."""
    return functools.partial(build_rich, seed=seed)


def step_until(sim_obj: ClusterSimulation, cut: float) -> ClusterSimulation:
    """Prepare *sim_obj* and fire events until the clock reaches *cut*."""
    sim_obj.prepare()
    while sim_obj.sim.now < cut and sim_obj.sim.step():
        pass
    return sim_obj
