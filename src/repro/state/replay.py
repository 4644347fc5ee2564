"""Replay and divergence detection.

A :class:`RunRecorder` hooks the engine's observer to record a
``(event_index, time, fingerprint)`` stream during a live run without
perturbing it (the fingerprint probe reads state but never flushes
caches).  :func:`replay_from` restores a checkpoint, re-runs it with
the same recorder, and reports the first diverging event — turning
"the restored run is bit-identical" into a generic, debuggable check.

:func:`lockstep_divergence` drives two simulations event-by-event in
lockstep and, at the first fingerprint mismatch, snapshots both sides
and names the differing state paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import StateError
from .capture import restore, snapshot
from .checkpoint import run_checkpointed
from .fingerprint import diff_states, light_fingerprint


@dataclass(frozen=True)
class FingerprintEntry:
    """One probe of the fingerprint stream."""

    index: int  # engine.events_fired after the probed event
    time: float
    digest: str


@dataclass
class DivergenceReport:
    """First point where two runs disagree."""

    index: int
    expected: Optional[FingerprintEntry]
    actual: Optional[FingerprintEntry]
    state_diff: List[Tuple[str, Any, Any]] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        lines = [f"first divergence at event #{self.index}:",
                 f"  expected: {self.expected}",
                 f"  actual:   {self.actual}"]
        for path, a, b in self.state_diff:
            lines.append(f"  {path}: {a!r} != {b!r}")
        return "\n".join(lines)


class RunRecorder:
    """Record a per-event fingerprint stream through the engine
    observer.  Non-perturbing; at most one recorder per engine."""

    def __init__(self, sim_obj, every: int = 1,
                 probe: Callable[[Any], str] = light_fingerprint) -> None:
        if every < 1:
            raise StateError(f"recorder stride must be >= 1, got {every}")
        self.sim_obj = sim_obj
        self.every = every
        self.probe = probe
        self.entries: List[FingerprintEntry] = []
        self._attached = False

    def attach(self) -> "RunRecorder":
        engine = self.sim_obj.sim
        if engine.observer is not None:
            raise StateError("engine already has an observer attached")
        engine.observer = self._observe
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.sim_obj.sim.observer = None
            self._attached = False

    def _observe(self, event) -> None:
        engine = self.sim_obj.sim
        if engine.events_fired % self.every == 0:
            self.entries.append(FingerprintEntry(
                engine.events_fired, engine.now, self.probe(self.sim_obj)
            ))

    def __enter__(self) -> "RunRecorder":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()


def compare_streams(
    reference: List[FingerprintEntry], actual: List[FingerprintEntry]
) -> Optional[DivergenceReport]:
    """First mismatch between two streams, aligned by event index.

    Entries present in only one stream (before the other starts, e.g. a
    reference recorded from t=0 compared against a replay from a
    mid-run checkpoint) are ignored; overlapping indices must agree.
    """
    by_index = {e.index: e for e in reference}
    for entry in actual:
        ref = by_index.get(entry.index)
        if ref is None:
            continue
        if ref.digest != entry.digest or ref.time != entry.time:
            return DivergenceReport(entry.index, ref, entry)
    return None


def replay_from(
    state,
    factory: Callable[[], object],
    reference: List[FingerprintEntry],
    every: int = 1,
    until: Optional[float] = None,
    probe: Callable[[Any], str] = light_fingerprint,
) -> Optional[DivergenceReport]:
    """Restore *state*, re-run it recording fingerprints with the same
    stride, and compare against *reference*.

    Returns None when the replay is fingerprint-identical over the
    overlapping window, else the first divergence.
    """
    sim_obj = restore(state, factory)
    recorder = RunRecorder(sim_obj, every=every, probe=probe)
    with recorder:
        run_checkpointed(sim_obj, until=until)
    return compare_streams(reference, recorder.entries)


def lockstep_divergence(
    sim_a,
    sim_b,
    max_events: Optional[int] = None,
    probe: Callable[[Any], str] = light_fingerprint,
) -> Optional[DivergenceReport]:
    """Step two prepared-or-fresh simulations in lockstep; at the first
    differing fingerprint, snapshot both and report the state diff.
    """
    sim_a.prepare()
    sim_b.prepare()
    fired = 0
    while True:
        # Stop on the run() condition (all jobs terminal), not on heap
        # exhaustion: periodic chains (the power meter) reschedule
        # themselves forever, so the heap never empties.
        done_a = sim_a.all_jobs_terminal
        done_b = sim_b.all_jobs_terminal
        if done_a and done_b:
            return None
        if done_a != done_b:
            return DivergenceReport(
                sim_a.sim.events_fired,
                FingerprintEntry(sim_a.sim.events_fired, sim_a.sim.now,
                                 "terminal" if done_a else "running"),
                FingerprintEntry(sim_b.sim.events_fired, sim_b.sim.now,
                                 "terminal" if done_b else "running"),
            )
        stepped_a = sim_a.sim.step()
        stepped_b = sim_b.sim.step()
        if not stepped_a and not stepped_b:
            return None
        fired += 1
        fp_a = probe(sim_a)
        fp_b = probe(sim_b)
        if stepped_a != stepped_b or fp_a != fp_b:
            try:
                diff = diff_states(snapshot(sim_a), snapshot(sim_b))
            except StateError:
                diff = []
            return DivergenceReport(
                sim_a.sim.events_fired,
                FingerprintEntry(sim_a.sim.events_fired, sim_a.sim.now, fp_a),
                FingerprintEntry(sim_b.sim.events_fired, sim_b.sim.now, fp_b),
                state_diff=diff,
            )
        if max_events is not None and fired >= max_events:
            return None
