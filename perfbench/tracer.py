"""Layer tracing from outside the program.

:class:`Instrument` monkey-patches the public entry points of each
``repro`` layer for the lifetime of a ``with`` block and restores them
afterwards; nothing under ``src/`` is edited.  Two levels:

* probe only (``Instrument(None)``): the campaign's fan-out is routed
  through :func:`probe_advance`, which records raised (and therefore
  retried) site-epoch advances.  Untimed runs use this too, so they can
  count failures; it adds one wrapper call per site-epoch.
* traced (``Instrument(Tracer())``): every layer entry point below is
  wrapped and records into the :class:`Tracer`.

Self time of a span is its duration minus the time its direct child
spans (in the same process) cover.  ``calls`` and ``busy`` count only
the outermost span of a layer, so a layer entry that re-enters its own
layer (``state_fingerprint`` -> ``state_digest``) is not counted twice.
Hot layers (per-job admission, per-event engine steps, policy ticks,
power reads, scheduler passes) are kept as aggregates only; the others
also keep full span records for nesting checks and the span dump.

Pool workers: the fan-out stays on its process pool.  Workers are
forked from the traced parent, so they inherit the patches;
:func:`probe_advance` resets the worker's copy of the tracer at the
start of each task and ships the aggregates and spans back with the
outcome, where the parent merges them under its ``fanout`` span.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

perf = time.perf_counter

#: The tracer of the active :class:`Instrument` (``None`` in probe-only
#: mode).  Module-level because :func:`probe_advance` runs in pool
#: workers, which reach it only through the module they inherited.
_ACTIVE: Optional["Tracer"] = None
#: Raised advances seen by this process, keyed (site seed, slug, epoch);
#: a worker pops its entry when the retried task finally succeeds.
_RAISED: Counter = Counter()
_ORIGINAL_ADVANCE = None
_PARENT_PID = 0


class Tracer:
    """In-memory span stack, per-layer aggregates and extra counters."""

    def __init__(self) -> None:
        #: Span ids stay unique across resets (a worker resets per task).
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []
        self.depth: Counter = Counter()
        #: layer -> [outermost calls, outermost busy s, self s]
        self.stats: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        #: (span id, parent id, layer, start, end); ids are (pid, n).
        self.spans: List[Tuple[Any, Any, str, float, float]] = []
        #: ((site seed, epoch), seconds) per site advance: one group per
        #: campaign epoch, the barrier of the lockstep fan-out.
        self.advances: List[Tuple[Tuple[int, int], float]] = []

    def enter(self, layer: str, keep: bool) -> list:
        sid = None
        if keep:
            sid = (self.pid, self._next_id)
            self._next_id += 1
        frame = [layer, perf(), 0.0, sid]
        self.stack.append(frame)
        self.depth[layer] += 1
        return frame

    def exit(self, frame: list) -> bool:
        """Close *frame*; returns whether it was its layer's outermost."""
        end = perf()
        stack = self.stack
        stack.pop()
        layer, start, covered, sid = frame
        duration = end - start
        stats = self.stats[layer]
        stats[2] += duration - covered
        self.depth[layer] -= 1
        outermost = not self.depth[layer]
        if outermost:
            stats[0] += 1
            stats[1] += duration
        if stack:
            stack[-1][2] += duration
        if sid is not None:
            self.spans.append((sid, self._parent_id(), layer, start, end))
        return outermost

    def _parent_id(self) -> Any:
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def export(self) -> tuple:
        return (dict(self.stats), dict(self.counts), self.spans, self.advances)

    def merge(self, payload: tuple, parent: Any) -> None:
        """Fold a worker's exported trace in under span *parent*."""
        stats, counts, spans, advances = payload
        for layer, (calls, busy, self_s) in stats.items():
            mine = self.stats[layer]
            mine[0] += calls
            mine[1] += busy
            mine[2] += self_s
        self.counts.update(counts)
        self.spans.extend(
            (sid, parent if up is None else up, layer, start, end)
            for sid, up, layer, start, end in spans
        )
        self.advances.extend(advances)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(fn, tracer: Tracer, layer: str, keep: bool = False, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            outermost = tracer.exit(frame)
        if after is not None:
            after(tracer, outermost, args, result)
        return result

    return wrapper


def _wrap_engine(fn, tracer: Tracer, engine_of):
    """Engine drain: a ``simulator`` span plus a counting observer
    (the public ``Simulator.observer`` hook) for its duration."""

    def count(event) -> None:
        tracer.counts["simulator.events"] += 1

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        engine = engine_of(self)
        attached = engine.observer is None
        if attached:
            engine.observer = count
        frame = tracer.enter("simulator", True)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(frame)
            if attached:
                engine.observer = None

    return wrapper


def _after_schedule(tracer, outermost, args, decisions) -> None:
    if outermost:
        tracer.counts["sched.pending"] += len(args[1].pending)
        tracer.counts["sched.starts"] += len(decisions)


def _after_admit(tracer, outermost, args, admitted) -> None:
    if not admitted:
        tracer.counts["admit.vetoes"] += 1


def _after_blob(tracer, outermost, args, blob) -> None:
    tracer.counts["state.blobs"] += 1
    tracer.counts["state.blob_bytes"] += len(blob)


def _subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _targets() -> List[tuple]:
    """(owner, attribute, layer, keep, after) for every traced entry."""
    import repro.centers
    import repro.federation.site as site
    import repro.policies  # noqa: F401 - registers every Policy subclass
    import repro.state.fingerprint as fingerprint
    import repro.state.serialize as serialize
    from repro.core.scheduler import Scheduler
    from repro.core.simulation import ClusterSimulation
    from repro.federation.broker import GlobalBroker
    from repro.grid.market import RegionMarket
    from repro.policies.base import Policy

    targets = [
        (ClusterSimulation, "machine_power", "power", False, None),
        (repro.centers, "build_center_simulation", "build", True, None),
        (site, "build_site_simulation", "build", True, None),
        (site, "snapshot", "state.snapshot", True, None),
        (fingerprint, "snapshot", "state.snapshot", True, None),
        (site, "to_bytes", "state.encode", True, _after_blob),
        (serialize, "to_bytes", "state.encode", True, None),
        (site, "state_fingerprint", "state.digest", True, None),
        (fingerprint, "state_digest", "state.digest", True, None),
        (site, "from_bytes", "state.decode", True, None),
        (site, "restore", "state.restore", True, None),
        (GlobalBroker, "allocate", "broker", True, None),
        (RegionMarket, "cost_of", "billing", True, None),
        (RegionMarket, "carbon_of", "billing", True, None),
    ]
    for cls in _subclasses(Scheduler):
        if "schedule" in vars(cls):
            targets.append((cls, "schedule", "sched", False, _after_schedule))
    for cls in _subclasses(Policy):
        if "admit" in vars(cls):
            targets.append((cls, "admit", "admit", False, _after_admit))
        if "on_tick" in vars(cls):
            targets.append((cls, "on_tick", "tick", False, None))
    return targets


# ----------------------------------------------------------------------
# Fan-out probe
# ----------------------------------------------------------------------
@dataclass
class Probed:
    """Worker -> parent envelope around one site-epoch outcome."""

    outcome: Any
    raised: int
    trace: Optional[tuple]


def probe_advance(task) -> Probed:
    """``advance_site`` as run through the pool under the probe."""
    tracer = _ACTIVE
    in_worker = tracer is not None and os.getpid() != _PARENT_PID
    if in_worker:
        tracer.reset()
    key = (task.config.seed, task.config.slug, task.epoch)
    frame = tracer.enter("site.advance", True) if tracer else None
    start = perf()
    try:
        outcome = _ORIGINAL_ADVANCE(task)
    except Exception:
        _RAISED[key] += 1
        raise
    finally:
        if tracer is not None:
            tracer.exit(frame)
    if tracer is not None:
        tracer.advances.append(((task.config.seed, task.epoch), perf() - start))
    payload = None
    if in_worker:
        payload = tracer.export()
        tracer.reset()
    return Probed(outcome, _RAISED.pop(key, 0), payload)


class Instrument:
    """Install the probe (and, given a tracer, every layer wrapper).

    ``raised`` collects (site seed, slug, epoch) -> raised count for the
    advances the pool retried, across every campaign run inside the block.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.raised: Counter = Counter()
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instrument":
        global _ACTIVE, _ORIGINAL_ADVANCE, _PARENT_PID
        import repro.federation.campaign as campaign
        from repro.analysis.executor import FanoutPool
        from repro.core.simulation import ClusterSimulation
        from repro.simulator.engine import Simulator

        _ACTIVE = self.tracer
        _PARENT_PID = os.getpid()
        _ORIGINAL_ADVANCE = campaign.advance_site
        self._patch(FanoutPool, "map", self._probed_map(FanoutPool.map))
        tracer = self.tracer
        if tracer is None:
            return self
        self._patch(Simulator, "run",
                    _wrap_engine(Simulator.run, tracer, lambda s: s))
        self._patch(Simulator, "step",
                    _wrap(Simulator.step, tracer, "simulator"))
        self._patch(ClusterSimulation, "run",
                    _wrap_engine(ClusterSimulation.run, tracer, lambda s: s.sim))
        for owner, name, layer, keep, after in _targets():
            fn = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._patch(owner, name, _wrap(fn, tracer, layer, keep, after))
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
        _ACTIVE = None

    def _probed_map(self, original_map):
        instrument = self

        def probed_map(pool, fn, tasks):
            if fn is not _ORIGINAL_ADVANCE:
                return original_map(pool, fn, tasks)
            tasks = list(tasks)
            tracer = instrument.tracer
            frame = tracer.enter("fanout", True) if tracer else None
            try:
                probes = original_map(pool, probe_advance, tasks)
            finally:
                if tracer is not None:
                    tracer.exit(frame)
            outcomes = []
            for task, probe in zip(tasks, probes):
                if probe.raised:
                    instrument.raised[(task.config.seed, task.config.slug,
                                       task.epoch)] += probe.raised
                if probe.trace is not None:
                    tracer.merge(probe.trace, frame[3])
                outcomes.append(probe.outcome)
            if tracer is not None:
                tracer.counts["fanout.epochs"] += 1
                tracer.counts["fanout.task_bytes"] += len(pickle.dumps(tasks))
                tracer.counts["fanout.outcome_bytes"] += len(pickle.dumps(outcomes))
            return outcomes

        return probed_map


def check_nesting(tracer: Tracer, slack: float = 1e-3) -> List[str]:
    """Problems with the recorded spans: negative self time, or a
    child span outside its parent's interval (cross-process children
    get *slack* seconds for clock-read ordering)."""
    problems = [
        f"{layer}: negative self time {self_s:.6f}"
        for layer, (_, _, self_s) in tracer.stats.items()
        if self_s < -1e-9
    ]
    by_id = {span[0]: span for span in tracer.spans}
    for sid, parent, layer, start, end in tracer.spans:
        if end < start:
            problems.append(f"{layer} span {sid} ends before it starts")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"{layer} span {sid} has unknown parent {parent}")
            continue
        tol = slack if outer[0][0] != sid[0] else 0.0
        if start < outer[3] - tol or end > outer[4] + tol:
            problems.append(f"{layer} span {sid} escapes parent {outer[2]}")
    return problems


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    stats = defaultdict(lambda: [0, 0.0, 0.0], tracer.stats)
    counts = tracer.counts
    per_epoch: Dict[Tuple[int, int], List[float]] = defaultdict(list)
    for key, seconds in tracer.advances:
        per_epoch[key].append(seconds)
    imbalance = [
        max(v) * len(v) / sum(v) for v in per_epoch.values() if sum(v) > 0
    ]
    durations = [seconds for _, seconds in tracer.advances]
    epochs = counts["fanout.epochs"]
    return {
        "simulator.events": counts["simulator.events"],
        "simulator.self_s": stats["simulator"][2],
        "sched.passes": stats["sched"][0],
        "sched.busy_s": stats["sched"][1],
        "sched.self_s": stats["sched"][2],
        "sched.pending_mean": _ratio(counts["sched.pending"], stats["sched"][0]),
        "sched.starts": counts["sched.starts"],
        "sched.start_ratio": _ratio(counts["sched.starts"], counts["sched.pending"]),
        "admit.calls": stats["admit"][0],
        "admit.busy_s": stats["admit"][1],
        "admit.veto_ratio": _ratio(counts["admit.vetoes"], stats["admit"][0]),
        "tick.calls": stats["tick"][0],
        "tick.busy_s": stats["tick"][1],
        "power.machine_power_calls": stats["power"][0],
        "power.busy_s": stats["power"][1],
        "build.calls": stats["build"][0],
        "build.busy_s": stats["build"][1],
        "state.snapshot_s": stats["state.snapshot"][2],
        "state.encode_s": stats["state.encode"][2],
        "state.encode_calls": stats["state.encode"][0],
        "state.digest_s": stats["state.digest"][2],
        "state.decode_s": stats["state.decode"][2],
        "state.restore_s": stats["state.restore"][2],
        "state.blob_bytes": _ratio(counts["state.blob_bytes"], counts["state.blobs"]),
        "site.advances": len(durations),
        "site.advance_s_p50": _quantile(durations, 0.50),
        "site.advance_s_p90": _quantile(durations, 0.90),
        "epoch.imbalance": _ratio(sum(imbalance), len(imbalance)),
        "broker.allocate_s": stats["broker"][1],
        "billing_s": stats["billing"][1],
        "fanout.map_s": stats["fanout"][1],
        "fanout.task_bytes": _ratio(counts["fanout.task_bytes"], epochs),
        "fanout.outcome_bytes": _ratio(counts["fanout.outcome_bytes"], epochs),
    }
