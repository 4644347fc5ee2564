"""Experiment ``exp-backfill-depth``: scheduler cost at deep queues.

The claim: one conservative backfill pass over a deep pending queue
is ≥10× faster than the seed delta-dict implementation — while
returning the exact same decisions (the equivalence is asserted here
on the benchmarked context itself, on top of the randomized property
tests).

The seed implementation re-sorted and re-scanned the whole free-node
step function per candidate start (~O(P·T³) at queue depth P).  The
scheduler builds the release curve once per pass and plans on it as
flat arrays, so a pass is one early-exit earliest-fit scan plus an
in-place subtraction per reservation.
"""

from __future__ import annotations

import time

from repro.cluster import NodeState
from repro.core import (
    ConservativeBackfillScheduler,
    SchedulingContext,
)
from repro.core.scheduler import RunningJobInfo
from repro.workload import Job
from tests.backfill_oracles import ReferenceConservativeBackfillScheduler
from tests.conftest import make_selection

from .conftest import bench_machine, write_artifact


def _deep_context(machine, depth: int) -> SchedulingContext:
    """A congested instant: most of the machine busy, *depth* pending
    jobs nearly all of which end up as reservations."""
    n_nodes = len(machine.nodes)
    now = 10_000.0

    running = []
    node_cursor = 0
    busy_target = n_nodes - max(8, n_nodes // 16)
    i = 0
    while node_cursor < busy_target:
        width = min(1 + (i * 7) % 12, busy_target - node_cursor)
        ids = tuple(range(node_cursor, node_cursor + width))
        node_cursor += width
        job = Job(
            job_id=f"r{i}",
            nodes=width,
            work_seconds=5000.0,
            walltime_request=9000.0,
        )
        job.start(now - 100.0, list(ids))
        for nid in ids:
            machine.node(nid).transition(NodeState.BUSY, now - 100.0)
        end = now + 200.0 + (i * 37) % 4000
        running.append(RunningJobInfo(job, ids, end))
        i += 1

    pending = [
        Job(
            job_id=f"p{j}",
            nodes=1 + (j * 13) % (n_nodes // 2),
            work_seconds=500.0,
            walltime_request=600.0 + (j * 101) % 3000,
            submit_time=now - 1.0,
        )
        for j in range(depth)
    ]
    return SchedulingContext(
        now=now,
        machine=machine,
        pending=pending,
        selection=make_selection(machine),
        running=running,
        admit=lambda job: True,
        usable_node_count=n_nodes,
    )


def _decision_key(decisions):
    return [(d.job.job_id, tuple(n.node_id for n in d.nodes)) for d in decisions]


def test_bench_backfill_depth(benchmark, artifact_dir):
    """Conservative backfill at 500 and 1000 pending jobs."""
    fast = ConservativeBackfillScheduler()
    reference = ReferenceConservativeBackfillScheduler()

    # Reference cost + decision equivalence, measured once at depth 500
    # (the seed is too slow to run under the benchmark loop).
    machine = bench_machine(256)
    ctx = _deep_context(machine, depth=500)
    t0 = time.perf_counter()
    ref_decisions = _decision_key(reference.schedule(ctx))
    ref_seconds = time.perf_counter() - t0
    assert _decision_key(fast.schedule(ctx)) == ref_decisions

    # Benchmark the profile-based scheduler at depth 500.
    t0 = time.perf_counter()
    fast_result = benchmark.pedantic(
        fast.schedule, args=(ctx,), rounds=5, iterations=1
    )
    fast_seconds = max((time.perf_counter() - t0) / 5, 1e-9)
    assert _decision_key(fast_result) == ref_decisions
    speedup = ref_seconds / fast_seconds

    # Depth 1000, new implementation only.
    ctx1000 = _deep_context(bench_machine(256), depth=1000)
    t0 = time.perf_counter()
    fast.schedule(ctx1000)
    fast_1000 = time.perf_counter() - t0

    write_artifact(
        "exp-backfill-depth",
        "EXP-BACKFILL-DEPTH — conservative backfill pass cost\n"
        "(256 nodes, congested; one schedule() call)\n\n"
        f"depth  500: seed {ref_seconds * 1e3:9.1f} ms"
        f"   profile {fast_seconds * 1e3:8.2f} ms"
        f"   speedup {speedup:7.1f}x\n"
        f"depth 1000: profile {fast_1000 * 1e3:8.2f} ms\n\n"
        f"decisions identical at depth 500: True\n",
    )

    # The tentpole acceptance bar.
    assert speedup >= 10.0, f"only {speedup:.1f}x over the seed implementation"
