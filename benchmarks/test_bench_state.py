"""Experiment ``exp-state``: checkpoint subsystem cost at scale.

What a checkpointed campaign pays: the wall cost of one
``snapshot()``, one ``to_bytes()`` serialization (cold, and warm from
the record memo), one ``restore()``, and the on-disk checkpoint size
— as a function of machine size, on a mid-run simulation with live
executions, queue backlog and warm power caches.  The correctness side
(bit-identical resume) is asserted here on the benchmarked machine
itself; the randomized sweeps live in ``tests/test_property_state.py``.

Timings land in ``benchmarks/out/BENCH_state.json`` (machine-readable,
uploaded by the CI benchmarks job) plus the usual rendered artifact.
"""

from __future__ import annotations

import functools
import json
import time

from repro.core import ClusterSimulation, FcfsScheduler
from repro.state import (
    restore,
    result_fingerprint,
    run_checkpointed,
    snapshot,
    state_fingerprint,
    to_bytes,
)
from repro.state.serialize import clear_record_memo
from repro.workload import Job

from .conftest import OUT_DIR, bench_machine, write_artifact


def _best_of(fn, rounds: int = 3, setup=None) -> float:
    """Best-of-N wall time of one call (first call warms caches);
    *setup* runs untimed before each timed call."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into benchmarks/out/BENCH_state.json."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_state.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _build(nodes: int, seed: int = 5) -> ClusterSimulation:
    jobs = [
        Job(
            job_id=f"b{i}",
            nodes=max(1, (i * 7) % (nodes // 2)),
            work_seconds=600.0 + 90.0 * (i % 11),
            walltime_request=9000.0,
            submit_time=40.0 * i,
        )
        for i in range(48)
    ]
    return ClusterSimulation(
        bench_machine(nodes), FcfsScheduler(), jobs, seed=seed
    )


def _cut(nodes: int) -> ClusterSimulation:
    sim = _build(nodes)
    sim.prepare()
    while sim.sim.now < 2000.0 and sim.sim.step():
        pass
    return sim


def test_bench_state_snapshot_cost(artifact_dir):
    """snapshot/serialize/restore cost and checkpoint size vs nodes."""
    rows = {}
    for nodes in (256, 1024, 4096):
        sim = _cut(nodes)
        factory = functools.partial(_build, nodes)

        st = snapshot(sim)
        blob = to_bytes(st)
        t_snapshot = _best_of(lambda: snapshot(sim))
        # Cold: the record memo is dropped before each timed encode,
        # so this is the cost of rendering every record.  Warm: the
        # same state again, every unchanged record a memo hit.
        t_serialize = _best_of(lambda: to_bytes(st), setup=clear_record_memo)
        t_warm = _best_of(lambda: to_bytes(st))
        t_restore = _best_of(lambda: restore(st, factory))
        rows[nodes] = (t_snapshot, t_serialize, t_warm, t_restore, len(blob))

        # Correctness on the benchmarked machine: restore is a fixed
        # point here too.
        assert state_fingerprint(snapshot(restore(st, factory))) == \
            state_fingerprint(st)

    lines = [
        "EXP-STATE — checkpoint subsystem cost\n"
        "(mid-run FCFS simulation, 48 jobs; one snapshot of live state)\n"
    ]
    for nodes, (ts, tz, tw, tr, size) in rows.items():
        lines.append(
            f"{nodes:5d} nodes: snapshot {ts * 1e3:7.2f} ms"
            f"   serialize {tz * 1e3:7.2f} ms (warm {tw * 1e3:6.2f})"
            f"   restore {tr * 1e3:7.2f} ms"
            f"   checkpoint {size / 1024.0:8.1f} KiB"
        )
    write_artifact("exp-state", "\n".join(lines) + "\n")
    _update_bench_json(
        "snapshot_cost",
        {
            str(nodes): {
                "snapshot_seconds": ts,
                "serialize_seconds": tz,
                "serialize_warm_seconds": tw,
                "restore_seconds": tr,
                "checkpoint_bytes": size,
            }
            for nodes, (ts, tz, tw, tr, size) in rows.items()
        },
    )

    # Shape claims: a checkpoint of a 4k-node sim stays comfortably
    # under 32 MiB and under a second to take.
    ts, tz, _, _, size = rows[4096]
    assert size < 32 * 1024 * 1024, f"checkpoint ballooned to {size} bytes"
    assert ts + tz < 1.0, f"snapshot+serialize took {ts + tz:.2f}s at 4k nodes"


def test_bench_state_resume_identical(artifact_dir):
    """The acceptance invariant on the bench machine: a mid-run
    checkpoint resumed to completion matches the uninterrupted run."""
    nodes = 1024
    reference = result_fingerprint(_build(nodes).run())
    sim = _cut(nodes)
    st = snapshot(sim)
    resumed = run_checkpointed(restore(st, functools.partial(_build, nodes)))
    assert result_fingerprint(resumed) == reference

    t_resume_full = _best_of(
        lambda: run_checkpointed(
            restore(st, functools.partial(_build, nodes))
        ),
        rounds=2,
    )
    write_artifact(
        "exp-state-resume",
        "EXP-STATE-RESUME — resume-to-completion from a mid-run checkpoint\n"
        f"({nodes} nodes; restored result identical to uninterrupted run)\n\n"
        f"restore+finish {t_resume_full * 1e3:8.1f} ms\n",
    )
    _update_bench_json(
        "resume",
        {
            "nodes": nodes,
            "restore_and_finish_seconds": t_resume_full,
            "identical": True,
        },
    )
