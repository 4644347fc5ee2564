"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload fed-budget --seed 1 --seconds 50 --trace 0

Runs from a checkout root holding ``src/repro``.  With ``--trace 0`` it
repeats the workload (its campaigns, or its matrix) untraced for
``--seconds`` and reports the end-to-end metrics (medians over the
repetitions), then times the set-up in fresh processes.  With
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones.  Every repetition's outputs
are checked; the last stdout line is the JSON result.  ``--write-reference`` regenerates reference.json at
the default seed (only when a change is meant to alter results).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics in the JSON result (BENCHMARK.json gates them).
#: ``jobs_per_s`` and ``failed_frac`` are printed above it only: the
#: first swings with the seed's job mix (and carries wall_s's signal at
#: fixed work), the second is 0 on a correct run.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulator.events": "count",
    "simulator.self_s": "s",
    "sched.passes": "count",
    "sched.busy_s": "s",
    "sched.self_s": "s",
    "sched.pending_mean": "jobs",
    "sched.starts": "count",
    "sched.start_ratio": "ratio",
    "admit.calls": "count",
    "admit.busy_s": "s",
    "admit.veto_ratio": "ratio",
    "tick.calls": "count",
    "tick.busy_s": "s",
    "power.machine_power_calls": "count",
    "power.busy_s": "s",
    "build.calls": "count",
    "build.busy_s": "s",
    "state.snapshot_s": "s",
    "state.encode_s": "s",
    "state.encode_calls": "count",
    "state.digest_s": "s",
    "state.decode_s": "s",
    "state.restore_s": "s",
    "state.blob_bytes": "bytes",
    "site.advances": "count",
    "site.advance_s_p50": "s",
    "site.advance_s_p90": "s",
    "epoch.imbalance": "ratio",
    "broker.allocate_s": "s",
    "billing_s": "s",
    "fanout.map_s": "s",
    "fanout.task_bytes": "bytes",
    "fanout.outcome_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
SETUP_PROBES = 5


def _import_benchmark():
    """Put the checkout's sources first on the path; None when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    return workloads


def _median(values):
    return statistics.median(values) if values else 0.0


class Measurement:
    """Checked repetitions of one workload at one seed."""

    def __init__(self, workload, seed: int, reference) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.plain = []
        self.traced = []
        self.tracers = []
        #: Peak RSS after the first untraced repetition (see peak_rss_mb).
        self.rss_mb = 0.0

    def repeat(self, traced: bool) -> None:
        from perfbench.tracer import Instrument, Tracer

        tracer = Tracer() if traced else None
        with Instrument(tracer) as instrument:
            run = self.workload.execute(self.seed)
        rep = self.workload.verify(run, self.seed, self.reference,
                                   instrument.raised)
        if traced:
            # The wrappers must not perturb the run.
            if self.plain:
                baseline = self.plain[0].ops
                bad = sorted(k for k in rep.ops if rep.ops[k] != baseline.get(k))
                if bad:
                    rep.fail(bad, f"traced fingerprints differ from untraced: {bad[:4]}")
            self.traced.append(rep)
            self.tracers.append(tracer)
        else:
            self.plain.append(rep)
            if len(self.plain) == 1:
                # Read after one repetition: every ClusterSimulation leaks
                # (README.md), so this process's peak keeps growing with
                # the number of repetitions that fit in the run.
                self.rss_mb = peak_rss_mb()

    def run_for(self, seconds: float, trace: bool) -> None:
        """Repeat until the next repetition would end past *seconds*
        (at least one untraced, and one traced with *trace*)."""
        start = time.perf_counter()
        while True:
            want_traced = trace and len(self.traced) < len(self.plain)
            self.repeat(want_traced)
            elapsed = time.perf_counter() - start
            if trace and not self.traced:
                continue
            pending_traced = trace and len(self.traced) < len(self.plain)
            reps = self.traced if pending_traced else self.plain
            if elapsed + _median([r.wall for r in reps]) > seconds:
                return

    @property
    def reps(self):
        return self.plain + self.traced

    def attempted_failed(self):
        attempted = sum(len(r.ops) for r in self.reps)
        failed = sum(len(r.failed) for r in self.reps)
        return attempted, failed

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "wall_s": _median([r.wall for r in self.plain]),
            "setup_s": setup_s,
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self) -> dict:
        from perfbench.tracer import layer_metrics

        rows = [layer_metrics(t) for t in self.tracers]
        out = {}
        for key in rows[0]:
            values = [row[key] for row in rows]
            # Counts repeat exactly; keep them whole numbers.
            out[key] = values[0] if len(set(values)) == 1 else _median(values)
        out["trace.overhead_frac"] = (
            _median([r.wall for r in self.traced])
            / _median([r.wall for r in self.plain]) - 1.0
        )
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children (the
    pool workers), MB.  Own peak from ``VmHWM``: ``ru_maxrss`` keeps
    the high-water mark of the process that forked this one."""
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds (import ``repro`` + build every simulation once),
    timed in a fresh process so the import is included."""
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(out.stdout.split()[-1])


def _setup_child(workload, seed: int) -> None:
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.analysis  # noqa: F401
    import repro.federation  # noqa: F401

    workload.setup(seed)
    print(time.perf_counter() - start)


def report(m: Measurement, metrics: dict, units: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    wl = m.workload
    attempted, failed = m.attempted_failed()
    print(f"workload {wl.name}: {wl.describe()}; seed {m.seed}")
    print(f"  closed loop of one process; {len(m.plain)} untraced + "
          f"{len(m.traced)} traced repetitions")
    if m.plain:
        walls = sorted(r.wall for r in m.plain)
        print(f"  repetition walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    if m.plain:
        jobs_per_s = _median([r.jobs / r.wall for r in m.plain])
        print(f"  {'jobs_per_s':<28} {jobs_per_s:>16.6g} 1/s "
              f"({m.plain[0].jobs} terminal jobs per repetition)")
    print(f"  {'failed_frac':<28} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    rep = m.reps[0]
    print(f"  {'site':<10} {'terminal':>9} {'power samples':>14}")
    for name, jobs, samples in rep.sites:
        flag = ""
        if jobs == 0 and samples == 0:
            flag = ("  <- did no work: known seed defect (the site starts "
                    "after the campaign horizon); not counted as a failure")
        print(f"  {name:<10} {jobs:>9} {samples:>14}{flag}")
    for r in m.reps:
        for problem in r.problems:
            print(f"  FAILED CHECK: {problem}", file=sys.stderr)


def write_reference(workloads) -> None:
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        run = wl.execute(workloads.DEFAULT_SEED)
        rep = wl.verify(run, workloads.DEFAULT_SEED, None, Counter())
        if rep.failed:
            raise SystemExit(f"{name}: {rep.problems}")
        out["workloads"][name] = {"fingerprint": rep.fingerprint, "ops": rep.ops}
        print(f"{name}: {rep.fingerprint}")
    workloads.REFERENCE_PATH.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def measure(workload, seed: int, seconds: float, trace: bool, reference):
    """Run one measurement; returns (Measurement, metrics, units)."""
    m = Measurement(workload, seed, reference)
    m.run_for(seconds, trace)
    if trace:
        return m, m.per_layer(), PER_LAYER
    setup_s = _median([setup_probe(workload.name, seed)
                       for _ in range(SETUP_PROBES)])
    return m, m.end_to_end(setup_s), END_TO_END


def result_line(m: Measurement, metrics: dict, units: dict) -> str:
    attempted, failed = m.attempted_failed()
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fed-budget")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=pathlib.Path,
                        help="with --trace 1, write the first traced "
                             "repetition's spans to this JSON file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    workloads = _import_benchmark()
    if workloads is None:
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.write_reference:
        write_reference(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        _setup_child(workload, args.seed)
        return 0

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference().get(workload.name)
    m, metrics, units = measure(workload, args.seed, args.seconds,
                                bool(args.trace), reference)
    if args.spans is not None and m.tracers:
        args.spans.write_text(json.dumps(m.tracers[0].spans), encoding="utf-8")
    report(m, metrics, units)
    print(result_line(m, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
