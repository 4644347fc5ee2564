"""Experiment ``exp-engine``: substrate performance.

Not a paper artifact — the sanity benches that keep the simulator
usable at scale: raw event throughput, machine power evaluation, a
10k-job end-to-end run, and workload generation speed.

The batched-dispatch benches time ``run_batched()`` against the
stepped reference on the three regimes that matter for the ROADMAP's
million-node target, asserting the two paths produce identical
results before comparing clocks:

* ``dispatch storm`` — deep same-instant cohorts with reactive
  same-instant scheduling (the schedule-pass-at-now pattern);
* ``congested 64k`` — a congested 64k-node machine under an idle-
  shutdown policy, where scalar per-tick O(N) node scans dominate and
  the batched path reads the SoA lifecycle view (the ≥5x acceptance
  scenario);
* ``sparse multi-year SWF replay`` — singleton timestamps for years of
  simulated time (the fast path must not regress);
* ``million node`` — the 1M-node synthetic cluster, gated behind
  ``REPRO_BENCH_1M=1`` (minutes of wall time).

Timings land in ``benchmarks/out/BENCH_engine.json`` (machine-readable,
uploaded by the CI engine-bench job).
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import time

import pytest

from repro.cluster import NodeState
from repro.core import (
    ClusterSimulation,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    LowPowerAllocator,
)
from repro.policies import IdleShutdownPolicy
from repro.simulator import EventPriority, RngStreams, Simulator
from repro.state import result_fingerprint
from repro.units import HOUR
from repro.workload import WorkloadGenerator, WorkloadSpec
from repro.workload.swf import read_swf, roundtrip_string

from .conftest import OUT_DIR, bench_machine, bench_workload


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into benchmarks/out/BENCH_engine.json."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_engine.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _timed(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_bench_event_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = 100_000
        for i in range(count):
            sim.at(float(i % 1000), lambda: None)
        sim.run()
        return sim.events_fired

    fired = benchmark.pedantic(run_events, rounds=3, iterations=1)
    assert fired == 100_000


def test_bench_machine_power_evaluation(benchmark):
    machine = bench_machine(1024)
    sim = ClusterSimulation(machine, EasyBackfillScheduler(), [])
    watts = benchmark(sim.machine_power)
    assert watts > 0


def test_bench_workload_generation(benchmark):
    def generate():
        spec = WorkloadSpec(arrival_rate=1.0, duration=10_000.0, max_nodes=256)
        rng = RngStreams(5).stream("gen")
        return WorkloadGenerator(spec, rng).generate(count=10_000)

    jobs = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(jobs) == 10_000


def test_bench_end_to_end_simulation(benchmark):
    """A full day on 128 nodes with ~1.5k jobs."""

    def run():
        machine = bench_machine(128)
        jobs = bench_workload(seed=61, count=1500, nodes=128,
                              rate_per_hour=120.0, mean_work_hours=0.3)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                seed=1, sample_interval=300.0,
                                trace_enabled=False)
        return sim.run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.metrics.jobs_completed >= 1400


def test_bench_cancel_heavy_churn(benchmark):
    """Cancel/reschedule churn: the cap-heavy pattern where every speed
    change cancels and reschedules a completion event.  Tombstone
    compaction must keep the heap bounded by the live count, not by
    the total number of cancellations."""

    def churn():
        sim = Simulator()
        live = [sim.at(1e12 + i, lambda: None) for i in range(200)]
        for i in range(100_000):
            slot = i % 200
            live[slot].cancel()
            live[slot] = sim.at(1e12 + i, lambda: None)
        return sim

    sim = benchmark.pedantic(churn, rounds=3, iterations=1)
    assert sim.pending == 200
    # Bounded heap: compaction keeps tombstones under half the heap
    # (plus the trigger threshold), nowhere near the 100k cancelled.
    assert sim.heap_size <= 2 * (200 + sim._COMPACT_MIN_TOMBSTONES)


# ----------------------------------------------------------------------
# Batched dispatch (BENCH_engine.json)
# ----------------------------------------------------------------------
def _storm(cohorts: int = 1500, width: int = 24):
    """Deep same-instant cohorts: each CONTROL event schedules a
    same-instant REPORT reaction (the schedule-pass-at-now pattern)."""
    sim = Simulator()

    def react():
        pass

    def control():
        sim.at(sim.now, react, priority=EventPriority.REPORT)

    for t in range(cohorts):
        for _ in range(width):
            sim.at(float(t), control, priority=EventPriority.CONTROL)
    return sim


def test_bench_dispatch_storm(artifact_dir):
    stepped = _storm()
    t_step, _ = _timed(lambda: [None for _ in iter(stepped.step, False)])
    batched = _storm()
    t_batch, _ = _timed(batched.run_batched)
    assert batched.events_fired == stepped.events_fired == 1500 * 24 * 2
    speedup = t_step / t_batch
    _update_bench_json("dispatch_storm", {
        "cohorts": 1500, "width": 24,
        "events": batched.events_fired,
        "stepped_s": round(t_step, 6),
        "batched_s": round(t_batch, 6),
        "speedup": round(speedup, 3),
    })
    # Same-instant storms must not be slower batched.
    assert speedup >= 0.9


def _congested_64k(nodes: int = 65_536):
    """Energy-aware center under a demand burst: the machine starts
    mostly powered down, a deep queue of narrow jobs arrives faster
    than the powered pool can serve, and a tight idle-shutdown control
    loop (15 s) boots and sheds nodes to track demand.  Per tick the
    scalar path scans all 64k nodes three times; the batched path
    reads the SoA lifecycle view."""
    machine = bench_machine(nodes, boot_time=300.0, shutdown_time=120.0)
    jobs = bench_workload(seed=97, count=1500, nodes=128,
                          rate_per_hour=600.0, mean_work_hours=1.5)
    sim = ClusterSimulation(
        machine,
        FcfsScheduler(),
        jobs,
        policies=[IdleShutdownPolicy(idle_threshold=3600.0, min_spare=512,
                                     check_interval=15.0)],
        seed=5,
        sample_interval=300.0,
        trace_enabled=False,
    )
    # Pre-run state, not timed: all but 1024 nodes already off at t=0.
    for node in machine.nodes[1024:]:
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 0.0)
    return sim


def test_bench_congested_64k_end_to_end(artifact_dir):
    """The ≥5x acceptance scenario: congested 64k nodes, stepped vs
    batched — identical results, batched wall
    clock at least 5x better."""
    horizon = 12.0 * HOUR

    ref = _congested_64k()
    t_step, _ = _timed(lambda: ref.run(until=horizon))
    bat = _congested_64k()
    t_batch, _ = _timed(lambda: bat.run_batched(until=horizon))

    # Identical physics and decisions before any clock comparison.
    assert bat.sim.events_fired == ref.sim.events_fired
    assert bat.sim.now == ref.sim.now
    assert bat.meter.energy_joules == ref.meter.energy_joules
    assert bat.rm.boots_initiated == ref.rm.boots_initiated
    assert bat.rm.shutdowns_initiated == ref.rm.shutdowns_initiated
    for rj, bj in zip(ref.jobs, bat.jobs):
        assert rj.state is bj.state and rj.end_time == bj.end_time

    speedup = t_step / t_batch
    _update_bench_json("congested_64k", {
        "nodes": 65_536,
        "jobs": len(ref.jobs),
        "boots": ref.rm.boots_initiated,
        "shutdowns": ref.rm.shutdowns_initiated,
        "horizon_h": 12.0,
        "events": ref.sim.events_fired,
        "stepped_s": round(t_step, 3),
        "batched_s": round(t_batch, 3),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 5.0


def _baseline_fingerprint(section: str) -> str:
    """Result fingerprint committed in ``baseline/BENCH_engine.json``:
    recorded when the per-node lifecycle reference engine still ran
    alongside and produced the same result."""
    path = pathlib.Path(__file__).parent / "baseline" / "BENCH_engine.json"
    return json.loads(path.read_text())[section]["fingerprint"]


def _wide_job_churn(nodes: int = 65_536):
    """Wide-job churn on 64k nodes: every start/teardown moves a
    2k-16k node cohort, and every scheduling pass ranks the full free
    pool by effective power.  The engine moves each cohort in one SoA
    pass and selects rows straight off the availability mask."""
    machine = bench_machine(nodes)
    years = 8.0 * HOUR
    spec = WorkloadSpec(
        arrival_rate=60.0 / HOUR,
        duration=years,
        min_nodes=2048,
        max_nodes=16_384,
        mean_work=0.75 * HOUR,
    )
    jobs = WorkloadGenerator(
        spec, RngStreams(43).stream("wide")
    ).generate(count=300)
    return ClusterSimulation(
        machine,
        EasyBackfillScheduler(LowPowerAllocator()),
        jobs,
        seed=3,
        sample_interval=300.0,
        trace_enabled=False,
    )


def test_bench_wide_job_churn_64k(artifact_dir):
    """The bulk-transition scenario: the committed result fingerprint,
    and the wall clock recorded for the baseline guard."""
    horizon = 8.0 * HOUR

    sim_obj = _wide_job_churn()
    wall, result = _timed(lambda: sim_obj.run(until=horizon))

    # Decision identity before any clock is recorded.
    fingerprint = result_fingerprint(result)
    assert fingerprint == _baseline_fingerprint("wide_job_churn")

    _update_bench_json("wide_job_churn", {
        "nodes": 65_536,
        "jobs": len(sim_obj.jobs),
        "horizon_h": 8.0,
        "events": sim_obj.sim.events_fired,
        "fingerprint": fingerprint,
        "bulk_s": round(wall, 3),
    })


def _deep_queue_backfill(nodes: int = 4096):
    """Deep-queue conservative backfill: a burst of work arriving much
    faster than the machine drains it, so every scheduling pass walks
    hundreds of pending reservations through the free-node profile.
    The profile walk (earliest_fit / reserve) and the per-pass context
    build dominate; the array profile plus the lazy context keep a
    pass proportional to the profile size, not the machine size."""
    machine = bench_machine(nodes)
    spec = WorkloadSpec(
        arrival_rate=900.0 / HOUR,
        duration=2.0 * HOUR,
        min_nodes=8,
        max_nodes=nodes // 4,
        mean_work=1.5 * HOUR,
    )
    jobs = WorkloadGenerator(
        spec, RngStreams(71).stream("deepq")
    ).generate(count=900)
    return ClusterSimulation(
        machine,
        ConservativeBackfillScheduler(),
        jobs,
        seed=17,
        sample_interval=600.0,
        trace_enabled=False,
    )


def test_bench_deep_queue_backfill(artifact_dir):
    """Deep-queue conservative backfill end to end: the committed
    result fingerprint, and the wall clock recorded for the baseline
    guard (which is what catches profile-kernel slowdowns)."""
    horizon = 2.0 * HOUR

    sim_obj = _deep_queue_backfill()
    wall, result = _timed(lambda: sim_obj.run(until=horizon))

    fingerprint = result_fingerprint(result)
    assert fingerprint == _baseline_fingerprint("deep_queue_backfill")

    _update_bench_json("deep_queue_backfill", {
        "nodes": 4096,
        "jobs": len(sim_obj.jobs),
        "horizon_h": 2.0,
        "events": sim_obj.sim.events_fired,
        "fingerprint": fingerprint,
        "bulk_s": round(wall, 3),
    })


def test_bench_sparse_multiyear_swf_replay(artifact_dir):
    """Two simulated years of sparse SWF-replayed load on 1k nodes:
    the singleton fast path must not regress vs stepped dispatch."""
    years = 2.0 * 365.0 * 86400.0
    spec = WorkloadSpec(arrival_rate=3000.0 / years, duration=years,
                        min_nodes=1, max_nodes=256, mean_work=2.0 * HOUR)
    jobs = WorkloadGenerator(
        spec, RngStreams(23).stream("swf")
    ).generate(count=3000)
    # Stamp the generated jobs as a finished trace (SWF records
    # observed runtimes; unrun jobs carry -1 fields and are skipped by
    # the parser), then round-trip through the SWF format: the replay
    # consumes the same parsed stream a real-trace study would.
    for job in jobs:
        job.start(job.submit_time, list(range(job.nodes)))
        job.complete(job.submit_time + job.work_seconds)
    swf_text = roundtrip_string(jobs)

    def build():
        replayed = read_swf(io.StringIO(swf_text))
        assert len(replayed) == 3000
        return ClusterSimulation(
            bench_machine(1024), EasyBackfillScheduler(), replayed,
            seed=9, sample_interval=HOUR, scheduler_interval=900.0,
            trace_enabled=False,
        )

    ref = build()
    t_step, _ = _timed(lambda: ref.run(until=years))
    bat = build()
    t_batch, _ = _timed(lambda: bat.run_batched(until=years))

    assert bat.sim.events_fired == ref.sim.events_fired
    assert bat.meter.energy_joules == ref.meter.energy_joules
    ratio = t_step / t_batch
    _update_bench_json("sparse_swf_replay", {
        "nodes": 1024,
        "jobs": 3000,
        "years": 2.0,
        "events": ref.sim.events_fired,
        "stepped_s": round(t_step, 3),
        "batched_s": round(t_batch, 3),
        "speedup": round(ratio, 3),
    })
    # No-regression bar for the sparse regime.
    assert ratio >= 0.8


@pytest.mark.skipif(not os.environ.get("REPRO_BENCH_1M"),
                    reason="1M-node bench gated behind REPRO_BENCH_1M=1")
def test_bench_million_node_cluster(artifact_dir):
    """The ROADMAP target: a 1M-node synthetic cluster driven batched.

    Minutes of wall clock — run explicitly with REPRO_BENCH_1M=1.
    """
    nodes = 1_048_576
    machine = bench_machine(nodes, nodes_per_cabinet=512)
    jobs = bench_workload(seed=131, count=2000, nodes=nodes,
                          rate_per_hour=600.0, mean_work_hours=1.0)
    csim = ClusterSimulation(
        machine, FcfsScheduler(), jobs,
        policies=[IdleShutdownPolicy(idle_threshold=1800.0, min_spare=512,
                                     check_interval=300.0)],
        seed=7, sample_interval=600.0, trace_enabled=False,
    )
    horizon = 6.0 * HOUR
    t_batch, _ = _timed(lambda: csim.run_batched(until=horizon))
    _update_bench_json("million_node", {
        "nodes": nodes,
        "jobs": len(jobs),
        "horizon_h": 6.0,
        "events": csim.sim.events_fired,
        "batched_s": round(t_batch, 3),
        "events_per_s": round(csim.sim.events_fired / max(t_batch, 1e-9), 1),
    })
    assert csim.sim.events_fired > 0
