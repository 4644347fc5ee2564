"""Test oracle for the synthetic workload generator.

Nothing under ``src/`` imports this module
(``tests/test_oracle_isolation.py`` enforces it).  It holds the seed's
per-job loop of :meth:`repro.workload.WorkloadGenerator.generate`: one
scalar ``rng.choice(..., p=weights)`` per job to pick its application.
The runtime draws every application of a workload in one vectorised
call; ``tests/test_workload_draw_identity.py`` pins that the two give
the same jobs and leave the generator at the same stream position.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workload import Job, MoldableConfig, WorkloadGenerator


def scalar_generate(
    gen: WorkloadGenerator, count: Optional[int] = None, id_prefix: str = "job"
) -> List[Job]:
    """``gen.generate(count, id_prefix)`` with one scalar draw per job."""
    times = gen._arrival_times()
    if count is not None:
        if count <= 0:
            raise WorkloadError("count must be positive")
        while len(times) < count:
            more = gen._arrival_times() + (times[-1] if len(times) else 0.0)
            times = np.concatenate([times, more])
        times = times[:count]
    n = len(times)
    if n == 0:
        return []
    nodes = gen._draw_nodes(n)
    work = gen._draw_work(n)
    walltimes = gen._draw_walltimes(work)
    user_idx = gen.rng.integers(0, gen.spec.users, size=n)
    moldable_mask = gen.rng.random(n) < gen.spec.moldable_fraction

    catalog = gen.spec.catalog
    jobs: List[Job] = []
    for i in range(n):
        app = catalog.apps[int(gen.rng.choice(len(catalog.apps), p=catalog.weights))]
        w = float(work[i])
        nd = int(nodes[i])
        moldable: Sequence[MoldableConfig] = ()
        if moldable_mask[i] and nd > 1:
            configs = []
            for alt in {max(1, nd // 2), nd, min(gen.spec.max_nodes, nd * 2)}:
                configs.append(MoldableConfig(alt, app.scaled_work(w, nd, alt)))
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
