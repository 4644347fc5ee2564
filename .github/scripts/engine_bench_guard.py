"""Fail CI when a measured performance advantage regresses.

Compares the freshly produced ``benchmarks/out/BENCH_*.json`` files
against the committed baselines in ``benchmarks/baseline/``.  Wall
clocks on shared CI runners are noisy, so the guard compares *speedup
ratios* (fast path vs reference on the same host), not absolute
seconds: for every speedup present in both files, the fresh value must
be at least ``(1 - TOLERANCE)`` of the committed one.  Speedups may sit
at a section's top level or one level down in per-size sub-sections
(``full_resum.16384.speedup``).

``BENCH_state.json`` records no speedups; its noise-free guardable
metric is the checkpoint size (``snapshot_cost.<nodes>.checkpoint_bytes``
must not balloon past ``SIZE_TOLERANCE``) plus the ``resume.identical``
replay bit.

Speedup ratios are blind to a slowdown that hits both paths equally,
and some sections (``congested_64k``, ``wide_job_churn``,
``deep_queue_backfill``) time a single engine with no reference to
compare against.  The fast-path wall clocks (``bulk_s``) therefore
also carry a *coarse* ceiling: ``WALL_CEILING``× the committed
baseline, loose enough for runner variance but tight enough to catch
an algorithmic blow-up.

``BENCH_federation.json`` is guarded on its ``determinism.identical``
bit (the lockstep campaign must stay bit-reproducible across worker
counts), the per-variant campaign walls (coarse ``WALL_CEILING``) and
the broker's measured ``cost_reduction`` staying positive.

Usage::

    python .github/scripts/engine_bench_guard.py [fresh_dir] [baseline_dir] \
        [--files=BENCH_a.json,BENCH_b.json]

``--files`` restricts the guard to a subset — CI jobs that produce
only some of the bench files guard exactly those.
"""

from __future__ import annotations

import json
import pathlib
import sys

TOLERANCE = 0.20  # fail when a fast path regresses by more than 20%
SIZE_TOLERANCE = 0.25  # fail when a checkpoint grows by more than 25%
WALL_CEILING = 3.0  # fail when a fast-path wall blows past 3x baseline

#: Fast-path wall-clock keys guarded by the coarse ceiling.
_WALL_KEYS = ("bulk_s",)

#: Per-section wall-ceiling multipliers tighter than WALL_CEILING,
#: plus extra guarded keys: section -> {key: multiplier}.  The batched
#: backfill rewrite cut deep_queue_backfill walls ~7x and the section
#: has no speedup ratio, so its wall is the real guard against a
#: scheduler regression, held to a tighter multiple than the coarse
#: default.  congested_64k likewise: its idle-shutdown tick reads the
#: power mirror, and a slip back to per-node scans costs ~17x.
_SECTION_WALL_CEILINGS = {
    "congested_64k": {"bulk_s": 2.0},
    "deep_queue_backfill": {"bulk_s": 2.0},
}

BENCH_FILES = (
    "BENCH_engine.json",
    "BENCH_power.json",
    "BENCH_state.json",
    "BENCH_federation.json",
)


def _iter_speedups(section_name: str, payload: dict):
    """Yield ``(label, speedup)`` for a section: top-level or per-size."""
    if "speedup" in payload:
        yield section_name, payload["speedup"]
        return
    for key, sub in sorted(payload.items()):
        if isinstance(sub, dict) and "speedup" in sub:
            yield f"{section_name}.{key}", sub["speedup"]


def check_speedups(name: str, fresh: dict, baseline: dict,
                   failures: list) -> int:
    checked = 0
    for section, base in sorted(baseline.items()):
        if section not in fresh:
            continue
        fresh_map = dict(_iter_speedups(section, fresh[section]))
        for label, base_speedup in _iter_speedups(section, base):
            got = fresh_map.get(label)
            if got is None:
                failures.append(f"{name} {label}: fresh run recorded no speedup")
                continue
            checked += 1
            floor = base_speedup * (1.0 - TOLERANCE)
            verdict = "ok" if got >= floor else "REGRESSED"
            print(
                f"{name} {label}: speedup {got:.2f}x vs baseline "
                f"{base_speedup:.2f}x (floor {floor:.2f}x) — {verdict}"
            )
            if got < floor:
                failures.append(
                    f"{name} {label}: {got:.2f}x < {floor:.2f}x "
                    f"(baseline {base_speedup:.2f}x - {TOLERANCE:.0%})"
                )
        overrides = _SECTION_WALL_CEILINGS.get(section, {})
        for key in sorted(set(_WALL_KEYS) | set(overrides)):
            base_wall = base.get(key)
            got_wall = fresh[section].get(key)
            if not isinstance(base_wall, (int, float)) or not isinstance(
                got_wall, (int, float)
            ):
                continue
            checked += 1
            mult = overrides.get(key, WALL_CEILING)
            ceiling = base_wall * mult
            verdict = "ok" if got_wall <= ceiling else "BLEW UP"
            print(
                f"{name} {section}.{key}: {got_wall:.2f}s vs baseline "
                f"{base_wall:.2f}s (ceiling {ceiling:.2f}s) — {verdict}"
            )
            if got_wall > ceiling:
                failures.append(
                    f"{name} {section}.{key}: {got_wall:.2f}s > "
                    f"{mult:.1f}x baseline {base_wall:.2f}s"
                )
    return checked


def check_state(name: str, fresh: dict, baseline: dict,
                failures: list) -> int:
    """State-file metrics: deterministic checkpoint size + replay bit."""
    checked = 0
    base_cost = baseline.get("snapshot_cost", {})
    fresh_cost = fresh.get("snapshot_cost", {})
    for nodes, base in sorted(base_cost.items()):
        base_bytes = base.get("checkpoint_bytes")
        got = fresh_cost.get(nodes, {}).get("checkpoint_bytes")
        if base_bytes is None or got is None:
            continue
        checked += 1
        ceiling = base_bytes * (1.0 + SIZE_TOLERANCE)
        verdict = "ok" if got <= ceiling else "BALLOONED"
        print(
            f"{name} snapshot_cost.{nodes}: {got} bytes vs baseline "
            f"{base_bytes} (ceiling {ceiling:.0f}) — {verdict}"
        )
        if got > ceiling:
            failures.append(
                f"{name} snapshot_cost.{nodes}: checkpoint grew to {got} "
                f"bytes (> baseline {base_bytes} + {SIZE_TOLERANCE:.0%})"
            )
    if "resume" in baseline and "resume" in fresh:
        checked += 1
        identical = fresh["resume"].get("identical")
        print(f"{name} resume.identical: {identical}")
        if identical is not True:
            failures.append(f"{name} resume: restored run not identical")
    return checked


def check_federation(name: str, fresh: dict, baseline: dict,
                     failures: list) -> int:
    """Federation metrics: determinism bit + campaign wall ceilings."""
    checked = 0
    if "determinism" in baseline and "determinism" in fresh:
        checked += 1
        identical = fresh["determinism"].get("identical")
        print(f"{name} determinism.identical: {identical}")
        if identical is not True:
            failures.append(
                f"{name} determinism: campaign repeat not bit-identical"
            )
    base_rows = {
        row["label"]: row
        for row in baseline.get("campaign", {}).get("variants", [])
    }
    fresh_rows = {
        row["label"]: row
        for row in fresh.get("campaign", {}).get("variants", [])
    }
    for label, base in sorted(base_rows.items()):
        got = fresh_rows.get(label)
        base_wall = base.get("wall_s")
        if got is None or not isinstance(base_wall, (int, float)):
            continue
        checked += 1
        ceiling = base_wall * WALL_CEILING
        wall = got.get("wall_s", float("inf"))
        verdict = "ok" if wall <= ceiling else "BLEW UP"
        print(
            f"{name} campaign.{label}: {wall:.1f}s vs baseline "
            f"{base_wall:.1f}s (ceiling {ceiling:.1f}s) — {verdict}"
        )
        if wall > ceiling:
            failures.append(
                f"{name} campaign.{label}: {wall:.1f}s > "
                f"{WALL_CEILING:.1f}x baseline {base_wall:.1f}s"
            )
    if "campaign" in baseline and "campaign" in fresh:
        checked += 1
        reduction = fresh["campaign"].get("cost_reduction", 0.0)
        print(f"{name} campaign.cost_reduction: {reduction:.3f}")
        if not reduction > 0.0:
            failures.append(
                f"{name} campaign: broker no longer reduces cost "
                f"(reduction={reduction:.3f})"
            )
    return checked


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--files=")]
    only = None
    for arg in sys.argv[1:]:
        if arg.startswith("--files="):
            only = set(arg.split("=", 1)[1].split(","))
    fresh_dir = pathlib.Path(args[0] if args else "benchmarks/out")
    base_dir = pathlib.Path(args[1] if len(args) > 1
                            else "benchmarks/baseline")

    failures: list = []
    checked = 0
    for filename in BENCH_FILES:
        if only is not None and filename not in only:
            continue
        base_path = base_dir / filename
        fresh_path = fresh_dir / filename
        if not base_path.exists():
            print(f"{filename}: no committed baseline — skipped")
            continue
        if not fresh_path.exists():
            failures.append(f"{filename}: baseline committed but no fresh run")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(base_path.read_text())
        if filename == "BENCH_state.json":
            checked += check_state(filename, fresh, baseline, failures)
        elif filename == "BENCH_federation.json":
            checked += check_federation(filename, fresh, baseline, failures)
        else:
            checked += check_speedups(filename, fresh, baseline, failures)

    if not checked:
        print("no overlapping guarded metrics — nothing to guard",
              file=sys.stderr)
        return 1
    if failures:
        print("\nbench regression:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"{checked} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
