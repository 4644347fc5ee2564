"""Tests for the replay/divergence harness (repro.state.replay)."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import StateError
from repro.state import (
    FingerprintEntry,
    RunRecorder,
    compare_streams,
    lockstep_divergence,
    replay_from,
    run_checkpointed,
    snapshot,
)

from .state_scenarios import build_small


class TestRunRecorder:
    def test_records_monotone_stream(self):
        sim = build_small()
        with RunRecorder(sim) as rec:
            run_checkpointed(sim)
        assert rec.entries
        indices = [e.index for e in rec.entries]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        times = [e.time for e in rec.entries]
        assert times == sorted(times)

    def test_stride_skips_entries(self):
        sim = build_small()
        with RunRecorder(sim, every=5) as rec:
            run_checkpointed(sim)
        assert all(e.index % 5 == 0 for e in rec.entries)

    def test_detach_restores_observer(self):
        sim = build_small()
        rec = RunRecorder(sim).attach()
        rec.detach()
        assert sim.sim.observer is None

    def test_double_attach_rejected(self):
        sim = build_small()
        RunRecorder(sim).attach()
        with pytest.raises(StateError, match="observer"):
            RunRecorder(sim).attach()

    def test_bad_stride_rejected(self):
        with pytest.raises(StateError, match="stride"):
            RunRecorder(build_small(), every=0)


class TestReplay:
    def test_replay_from_checkpoint_matches_reference(self):
        sim = build_small()
        with RunRecorder(sim) as rec:
            sim.prepare()
            while sim.sim.now < 700.0 and sim.sim.step():
                pass
            st = snapshot(sim)
            run_checkpointed(sim)
        report = replay_from(st, build_small, rec.entries)
        assert report is None

    def test_replay_detects_tampered_reference(self):
        sim = build_small()
        with RunRecorder(sim) as rec:
            sim.prepare()
            while sim.sim.now < 700.0 and sim.sim.step():
                pass
            st = snapshot(sim)
            run_checkpointed(sim)
        tampered = list(rec.entries)
        victim = tampered[-1]
        tampered[-1] = FingerprintEntry(victim.index, victim.time, "0" * 64)
        report = replay_from(st, build_small, tampered)
        assert report is not None
        assert report.index == victim.index
        assert "divergence" in str(report)

    def test_compare_streams_ignores_non_overlap(self):
        ref = [FingerprintEntry(i, float(i), f"d{i}") for i in range(10)]
        actual = [FingerprintEntry(i, float(i), f"d{i}") for i in range(5, 15)]
        assert compare_streams(ref, actual) is None

    def test_compare_streams_reports_first_mismatch(self):
        ref = [FingerprintEntry(i, float(i), f"d{i}") for i in range(5)]
        actual = list(ref)
        actual[3] = FingerprintEntry(3, 3.0, "other")
        report = compare_streams(ref, actual)
        assert report is not None and report.index == 3


class TestLockstep:
    def test_identical_sims_never_diverge(self):
        assert lockstep_divergence(build_small(), build_small()) is None

    def test_light_fingerprint_stream_pinned(self):
        # The per-event light fingerprint stream of the small scenario,
        # digested.  Recorded when a per-node power spec still marched
        # in lockstep with the mirror (identical streams), so this pins
        # the mirror's power totals event by event.
        sim = build_small()
        with RunRecorder(sim) as rec:
            sim.run()
        h = hashlib.sha256()
        for e in rec.entries:
            h.update(f"{e.index}|{e.time!r}|{e.digest}\n".encode())
        assert len(rec.entries) == 111
        assert h.hexdigest() == (
            "db8388ca537bc58a7e60efff3b6b40c5207eba77d69b1c9e06f465974b3e5815"
        )

    def test_different_workloads_diverge_with_diff(self):
        a = build_small(seed=7)
        b = build_small(seed=7)
        b.jobs[0].work_seconds += 100.0
        report = lockstep_divergence(a, b)
        assert report is not None
        assert report.expected.index == report.actual.index

    def test_max_events_bounds_the_walk(self):
        report = lockstep_divergence(
            build_small(), build_small(), max_events=5
        )
        assert report is None
