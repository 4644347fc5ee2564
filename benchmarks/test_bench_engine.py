"""Experiment ``exp-engine``: substrate performance.

Not a paper artifact — the sanity benches that keep the simulator
usable at scale: raw event throughput, machine power evaluation, a
10k-job end-to-end run, and workload generation speed.

The large-scale scenarios run the one event loop (``run()``) and pin
each result fingerprint before recording a wall clock:

* ``congested 64k`` — a congested 64k-node machine under an idle-
  shutdown policy whose 15-s tick reads counts and candidates off the
  machine's node-store columns (a per-node scan there costs ~17x);
* ``wide job churn`` — 2k-16k node cohorts started and torn down on
  64k nodes;
* ``deep queue backfill`` — conservative backfill over hundreds of
  pending reservations;
* ``million node`` — the 1M-node synthetic cluster, gated behind
  ``REPRO_BENCH_1M=1`` (minutes of wall time); it records the machine
  and simulation build (``build_s``) apart from the run (``bulk_s``).

Timings land in ``benchmarks/out/BENCH_engine.json`` (machine-readable,
uploaded by the CI engine-bench job).
"""

from __future__ import annotations

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
from repro.simulator import RngStreams, Simulator
from repro.state import result_fingerprint
from repro.units import HOUR
from repro.workload import WorkloadGenerator, WorkloadSpec

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
# Large-scale scenarios (BENCH_engine.json)
# ----------------------------------------------------------------------
def _baseline_fingerprint(section: str) -> str:
    """Result fingerprint committed in ``baseline/BENCH_engine.json``:
    recorded when a reference engine (per-node lifecycle, or the
    per-node idle-shutdown scan) still ran alongside and produced the
    same result."""
    path = pathlib.Path(__file__).parent / "baseline" / "BENCH_engine.json"
    return json.loads(path.read_text())[section]["fingerprint"]


def _congested_64k(nodes: int = 65_536):
    """Energy-aware center under a demand burst: the machine starts
    mostly powered down, a deep queue of narrow jobs arrives faster
    than the powered pool can serve, and a tight idle-shutdown control
    loop (15 s) boots and sheds nodes to track demand.  Each tick reads
    state counts and ranked candidates off the power mirror instead of
    scanning all 64k nodes."""
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
    """Congested 64k nodes under idle shutdown: the committed result
    fingerprint and counts, and the wall clock recorded for the
    baseline guard (which catches a slip back to per-node scans)."""
    horizon = 12.0 * HOUR

    sim_obj = _congested_64k()
    wall, result = _timed(lambda: sim_obj.run(until=horizon))

    fingerprint = result_fingerprint(result)
    assert fingerprint == _baseline_fingerprint("congested_64k")
    assert sim_obj.sim.events_fired == 18170
    assert sim_obj.rm.boots_initiated == 3993
    assert sim_obj.rm.shutdowns_initiated == 4447

    _update_bench_json("congested_64k", {
        "nodes": 65_536,
        "jobs": len(sim_obj.jobs),
        "boots": sim_obj.rm.boots_initiated,
        "shutdowns": sim_obj.rm.shutdowns_initiated,
        "horizon_h": 12.0,
        "events": sim_obj.sim.events_fired,
        "fingerprint": fingerprint,
        "bulk_s": round(wall, 3),
    })


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


@pytest.mark.skipif(not os.environ.get("REPRO_BENCH_1M"),
                    reason="1M-node bench gated behind REPRO_BENCH_1M=1")
def test_bench_million_node_cluster(artifact_dir):
    """The ROADMAP target: a 1M-node synthetic cluster.

    Minutes of wall clock — run explicitly with REPRO_BENCH_1M=1.
    """
    nodes = 1_048_576
    jobs = bench_workload(seed=131, count=2000, nodes=nodes,
                          rate_per_hour=600.0, mean_work_hours=1.0)

    def build():
        return ClusterSimulation(
            bench_machine(nodes, nodes_per_cabinet=512), FcfsScheduler(), jobs,
            policies=[IdleShutdownPolicy(idle_threshold=1800.0, min_spare=512,
                                         check_interval=300.0)],
            seed=7, sample_interval=600.0, trace_enabled=False,
        )

    build_s, csim = _timed(build)
    horizon = 6.0 * HOUR
    wall, _ = _timed(lambda: csim.run(until=horizon))
    _update_bench_json("million_node", {
        "nodes": nodes,
        "jobs": len(jobs),
        "horizon_h": 6.0,
        "events": csim.sim.events_fired,
        "build_s": round(build_s, 3),
        "bulk_s": round(wall, 3),
        "events_per_s": round(csim.sim.events_fired / max(wall, 1e-9), 1),
    })
    assert csim.sim.events_fired > 0
