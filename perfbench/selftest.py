"""Self-test of the benchmark on tiny workloads (about ten seconds).

    python3 perfbench/selftest.py

Checks, on two sites in two short epochs and on two centers:

* the CLI prints every metric BENCHMARK.json names, with its unit,
  in both modes, and reports no failed operation;
* a perturbed reference fingerprint counts as a failed operation;
* traced spans nest (self time >= 0, children inside their parents),
  worker spans reach the parent process, and per-layer counts repeat exactly
  between two traced runs of one seed;
* in a directory holding only BENCHMARK.json and the benchmark, the
  CLI exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.tracer import Instrument, Tracer, check_nesting, layer_metrics  # noqa: E402

SEED = 3
TINY = ("tiny-fed", "tiny-matrix")
COUNTS = ("simulator.events", "sched.passes", "sched.starts", "admit.calls",
          "tick.calls", "power.machine_power_calls", "build.calls",
          "state.encode_calls", "site.advances")


def _cli(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def check_cli_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in TINY:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            out = _cli("--workload", name, "--seed", str(SEED),
                       "--seconds", "0", "--trace", trace)
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got, want)
            assert result["correct"] and result["failed"] == 0, out.stderr
            assert result["attempted"] >= 1
            text = "\n".join(lines[:-1])
            extra = ["failed_frac"] + (["jobs_per_s"] if trace == "0" else [])
            for metric in [*want, *extra]:
                assert f" {metric} " in text, (name, metric)


def check_perturbed_reference() -> None:
    for name in TINY:
        wl = workloads.WORKLOADS[name]
        run_ = wl.execute(SEED)
        clean = wl.verify(run_, SEED, None, Counter())
        reference = {"fingerprint": clean.fingerprint, "ops": dict(clean.ops)}
        assert not wl.verify(run_, SEED, reference, Counter()).failed
        victim = sorted(reference["ops"])[0]
        reference["ops"][victim] = "0" * 64
        rep = wl.verify(run_, SEED, reference, Counter())
        assert victim in rep.failed, (name, rep.failed)


def check_spans() -> None:
    for name in TINY:
        wl = workloads.WORKLOADS[name]
        counts = []
        for _ in range(2):
            tracer = Tracer()
            with Instrument(tracer):
                assert wl.execute(SEED).error is None
            problems = check_nesting(tracer)
            assert not problems, problems[:5]
            assert tracer.spans, name
            metrics = layer_metrics(tracer)
            counts.append({k: metrics[k] for k in COUNTS})
        assert counts[0] == counts[1], (name, counts)
        pids = {span[0][0] for span in tracer.spans}
        if name == "tiny-fed":
            assert len(pids) > 1, "no spans came back from the pool workers"
        else:
            for key in ("state.encode_calls", "site.advances", "fanout.map_s",
                        "fanout.task_bytes", "state.encode_s"):
                assert metrics[key] == 0, (key, metrics[key])


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-bare-") as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _cli("--workload", "fed-budget", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout


def main() -> int:
    os.chdir(ROOT)
    for check in (check_bare_directory, check_perturbed_reference,
                  check_spans, check_cli_metrics):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
