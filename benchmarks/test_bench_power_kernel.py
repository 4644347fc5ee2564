"""Experiment ``exp-power-kernel``: machine-power accounting at scale.

The tentpole claim of the SoA power rewrite: a whole-machine power
re-sum — what every budget/capping control loop pays per tick — runs
as one numpy kernel over the store columns instead of N Python
``operating_point`` calls, and is ≥10× faster at 16k nodes.  The
"scalar" side is timed here as that per-node loop over the scalar spec
(the test oracle ``tests/power_oracles.py``), and the two are first
asserted to agree on the benchmarked machine itself (on top of the
randomized equivalence sweeps in ``tests/test_power_vector.py``).

Also benched here:

* the *wide-job reconfigure* fold — re-capping a 4096-node slice of a
  16k machine dirties those rows only; the fold is one kernel over the
  sorted dirty rows vs a per-node spec delta fold;
* ``build_context()`` at 64k nodes — the available list and usable
  count come from masks maintained on node state transitions, replacing
  the seed's two O(N) attribute scans per scheduler pass.

Timings land in ``benchmarks/out/BENCH_power.json`` (machine-readable,
uploaded by the CI benchmarks job) plus the usual rendered .txt
artifacts.
"""

from __future__ import annotations

import json
import time
import timeit

import numpy as np

from repro.cluster import NodeState
from repro.core import ClusterSimulation, FcfsScheduler

from tests.power_oracles import simulation_operating_point

from .conftest import OUT_DIR, bench_machine, write_artifact


def _best_of(fn, rounds: int = 3) -> float:
    """Best-of-N wall time of one call (first call warms caches)."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


#: Context-build bench: rounds per side, calls per timed round.
CONTEXT_ROUNDS = 5
CONTEXT_CALLS = 1_000


def _interleaved_per_call(fns) -> list:
    """Best-of-CONTEXT_ROUNDS mean time per call of each of *fns*, each
    round timing CONTEXT_CALLS back-to-back calls of every function in
    turn.

    Interleaving spreads each side's rounds over the whole measurement,
    so a slow spell on a shared host hits both sides alike instead of
    all rounds of one (``timeit``: garbage collection off while timing).
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(CONTEXT_ROUNDS):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], timeit.timeit(fn, number=CONTEXT_CALLS))
    return [max(b / CONTEXT_CALLS, 1e-9) for b in best]


def _update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into benchmarks/out/BENCH_power.json."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_power.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _sim(nodes: int) -> ClusterSimulation:
    return ClusterSimulation(bench_machine(nodes), FcfsScheduler(), [])


def test_bench_power_full_resum(benchmark, artifact_dir):
    """Whole-machine power re-sum, per-node spec vs vector, 16k and 64k."""
    rows = {}
    for n in (16_384, 65_536):
        vector = _sim(n)

        def scalar_resum():
            watts = {}
            total = 0.0
            for node in vector.machine.nodes:
                w = simulation_operating_point(vector, node).watts
                watts[node.node_id] = w
                total += w
            return total

        def vector_resum():
            vector.power_vector.force_resum()
            return vector.machine_power()

        # Spec and kernel must agree on the benchmarked machine itself.
        assert abs(scalar_resum() - vector_resum()) <= 1e-6 * n

        t_scalar = _best_of(scalar_resum)
        t_vector = _best_of(vector_resum)
        rows[n] = (t_scalar, t_vector, t_scalar / t_vector)

    # Machine-readable timing for the 16k vector kernel.
    vec16 = _sim(16_384)

    def bench_target():
        vec16.power_vector.force_resum()
        return vec16.machine_power()

    benchmark.pedantic(bench_target, rounds=5, iterations=1)

    lines = [
        "EXP-POWER-KERNEL — full machine power re-sum\n"
        "(idle machine; one machine_power() with every row stale)\n"
    ]
    for n, (ts, tv, speedup) in rows.items():
        lines.append(
            f"{n:6d} nodes: scalar {ts * 1e3:8.2f} ms"
            f"   vector {tv * 1e3:7.3f} ms   speedup {speedup:7.1f}x"
        )
    write_artifact("exp-power-kernel", "\n".join(lines) + "\n")
    _update_bench_json(
        "full_resum",
        {
            str(n): {
                "scalar_seconds": ts,
                "vector_seconds": tv,
                "speedup": speedup,
            }
            for n, (ts, tv, speedup) in rows.items()
        },
    )

    # The tentpole acceptance bar: >=10x at 16k nodes.
    speedup_16k = rows[16_384][2]
    assert speedup_16k >= 10.0, f"only {speedup_16k:.1f}x at 16k nodes"


def test_bench_power_reconfigure(artifact_dir):
    """Wide-job reconfigure: re-cap a 4096-node slice of a 16k machine,
    then fold the dirty rows into the cached total."""
    n, width = 16_384, 4_096
    csim = _sim(n)
    csim.machine_power()  # settle the cache
    slice_nodes = csim.machine.nodes[:width]
    caps = iter([200.0, 300.0] * 50)
    spec_watts = {node.node_id: simulation_operating_point(csim, node).watts
                  for node in csim.machine.nodes}
    spec_total = sum(spec_watts.values())

    def spec_fold():
        # The per-node twin of the mirror's dirty fold: re-evaluate the
        # re-capped nodes in id order and fold their deltas.
        nonlocal spec_total
        for node in sorted(slice_nodes, key=lambda nd: nd.node_id):
            w = simulation_operating_point(csim, node).watts
            spec_total += w - spec_watts[node.node_id]
            spec_watts[node.node_id] = w
        return spec_total

    # Time the fold alone: dirty the rows outside the clock.
    def dirty_then_time(fold):
        csim.rm.set_power_cap(slice_nodes, next(caps))
        t0 = time.perf_counter()
        fold()
        return time.perf_counter() - t0

    results = {}
    for label, fold in (("scalar", spec_fold), ("vector", csim.machine_power)):
        dirty_then_time(fold)  # warm
        results[label] = min(dirty_then_time(fold) for _ in range(3))
    # Both folds ended on the same caps: the totals must agree.
    spec_fold()
    assert abs(spec_total - csim.machine_power()) <= 1e-6 * n

    speedup = results["scalar"] / max(results["vector"], 1e-9)
    write_artifact(
        "exp-power-reconfigure",
        "EXP-POWER-RECONFIGURE — dirty-row fold after a wide re-cap\n"
        f"({n} nodes, {width}-node slice re-capped; machine_power() only)\n\n"
        f"scalar fold {results['scalar'] * 1e3:8.2f} ms\n"
        f"vector fold {results['vector'] * 1e3:8.3f} ms\n"
        f"speedup {speedup:10.1f}x\n",
    )
    _update_bench_json(
        "reconfigure_fold",
        {
            "nodes": n,
            "slice": width,
            "scalar_seconds": results["scalar"],
            "vector_seconds": results["vector"],
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, f"only {speedup:.1f}x on the dirty fold"


def test_bench_context_build(artifact_dir):
    """build_context() on a congested 64k machine vs the seed's scans."""
    n = 65_536
    csim = _sim(n)
    machine = csim.machine
    # Congest the machine: all but one cabinet-ish worth of nodes busy.
    for node in machine.nodes[: n - 512]:
        node.transition(NodeState.BUSY, 0.0)

    def reference_scan():
        # The seed's two O(N) passes per scheduler invocation.
        available = [node for node in machine.nodes if node.is_available]
        usable = sum(
            1 for node in machine.nodes if node.state is not NodeState.DOWN
        )
        return available, usable

    ctx = csim.build_context()
    ref_available, ref_usable = reference_scan()
    assert np.flatnonzero(ctx.selection.avail_mask).tolist() == [
        r.node_id for r in ref_available
    ]
    assert ctx.usable_node_count == ref_usable

    # One build_context() is a few microseconds: timed one call at a
    # time, perf_counter's own cost and scheduler jitter swamp it.
    t_incremental, t_reference = _interleaved_per_call(
        [csim.build_context, reference_scan]
    )
    speedup = t_reference / t_incremental

    write_artifact(
        "exp-context-build",
        "EXP-CONTEXT-BUILD — scheduler context snapshot cost\n"
        f"({n} nodes, 512 idle; per build_context() call, best of "
        f"{CONTEXT_ROUNDS} rounds of {CONTEXT_CALLS} calls)\n\n"
        f"seed O(N) scans {t_reference * 1e3:8.2f} ms\n"
        f"incremental     {t_incremental * 1e3:8.3f} ms\n"
        f"speedup {speedup:15.1f}x\n",
    )
    _update_bench_json(
        "context_build",
        {
            "nodes": n,
            "idle": 512,
            "reference_seconds": t_reference,
            "incremental_seconds": t_incremental,
            "speedup": speedup,
        },
    )
    assert speedup >= 10.0, f"only {speedup:.1f}x over the seed scans"
