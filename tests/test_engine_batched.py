"""Batched execution is replay-identical to stepped execution.

The acceptance contract of the batched dispatcher: over the shared
``state_scenarios`` suite, ``ClusterSimulation.run_batched()`` produces
the *same fingerprint stream* — every event, in order, leaving the
same post-state — as the stepped ``run()`` loop, verified through the
``repro.state`` first-divergence harness.  Snapshots taken mid-run
restore into either execution path bit-identically, and restored
periodic chains keep their phase-locked firing grid.
"""

from __future__ import annotations

import pytest

from repro.simulator.engine import PeriodicChain
from repro.state import (
    RunRecorder,
    compare_streams,
    restore,
    result_fingerprint,
    snapshot,
)

from .state_scenarios import build_rich, build_small, step_until


def _run_recorded(sim_obj, batched: bool):
    with RunRecorder(sim_obj) as rec:
        result = sim_obj.run_batched() if batched else sim_obj.run()
    return result, rec.entries


SCENARIOS = {
    "small-fcfs": lambda: build_small(scheduler="fcfs"),
    "small-easy": lambda: build_small(scheduler="easy"),
    "rich": build_rich,
}

#: ``result_fingerprint`` of each scenario's stepped run, recorded when
#: the per-node power spec still ran alongside and matched it exactly.
PINNED_RESULTS = {
    "small-fcfs":
        "b592539a728d0b10dda8de1ce1a73c711b0fc85a344bbfebeee09dd63a0e92d3",
    "small-easy":
        "c22ce07369c8f93afae75d3910608b446a1847de8e8cd67476940ea3e1e579ac",
    "rich":
        "8009315343d8610b83a4777aa4d48864b615665e62252455cfc40b7dccee90ba",
}


class TestBatchedReplayIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fingerprint_stream_identical(self, name):
        build = SCENARIOS[name]
        ref_result, ref_entries = _run_recorded(build(), batched=False)
        bat_result, bat_entries = _run_recorded(build(), batched=True)
        assert result_fingerprint(ref_result) == PINNED_RESULTS[name]

        assert len(bat_entries) == len(ref_entries)
        report = compare_streams(ref_entries, bat_entries)
        assert report is None, str(report)

        assert bat_result.final_time == ref_result.final_time
        assert bat_result.metrics.makespan == ref_result.metrics.makespan
        assert bat_result.meter.energy_joules == ref_result.meter.energy_joules
        for rj, bj in zip(ref_result.jobs, bat_result.jobs):
            assert rj.job_id == bj.job_id
            assert rj.state is bj.state
            assert rj.start_time == bj.start_time
            assert rj.end_time == bj.end_time
            assert rj.energy_joules == bj.energy_joules

    def test_batch_policy_tick_effects_identical(self):
        # build_rich carries IdleShutdownPolicy: its on_tick_batch
        # (SoA candidate ranking) must leave the same boots/shutdowns
        # and the same accumulated energy estimate as the scalar tick.
        ref = build_rich()
        bat = build_rich()
        ref.run()
        bat.run_batched()
        assert bat.rm.boots_initiated == ref.rm.boots_initiated
        assert bat.rm.shutdowns_initiated == ref.rm.shutdowns_initiated
        ref_policy = ref.policies[1]
        bat_policy = bat.policies[1]
        assert bat_policy.energy_saved_estimate == ref_policy.energy_saved_estimate


class TestBatchedSnapshotRestore:
    def test_snapshot_restores_into_batched_run(self):
        # Reference: stepped run recorded end to end.
        ref = build_small()
        with RunRecorder(ref) as rec:
            step_until(ref, 700.0)
            state = snapshot(ref)
            ref.run()
        # Restore the mid-run checkpoint and finish it *batched*.
        restored = restore(state, build_small)
        with RunRecorder(restored) as rec2:
            restored.run_batched()
        report = compare_streams(rec.entries, rec2.entries)
        assert report is None, str(report)

    def test_snapshot_during_batched_run_restores(self):
        # Snapshot taken from *inside* a batched cohort: the grab event
        # runs at STATE priority at a meter instant, so the meter's
        # MONITOR event is still parked in a dispatch bucket when the
        # state subsystem walks iter_live_events.  The reference run
        # gets a same-seq no-op so both event streams line up.
        from repro.simulator.events import EventPriority

        ref = build_small()
        ref.prepare()
        ref.sim.at(720.0, lambda: None, priority=EventPriority.STATE,
                   name="grab")
        with RunRecorder(ref) as rec:
            ref.run()

        captured = {}
        target = build_small()

        def grab():
            assert target.sim._buckets  # mid-cohort: meter event parked
            captured["state"] = snapshot(target)

        target.prepare()
        target.sim.at(720.0, grab, priority=EventPriority.STATE, name="grab")
        with RunRecorder(target):
            target.run_batched()

        restored = restore(captured["state"], build_small)
        with RunRecorder(restored) as rec2:
            restored.run()
        report = compare_streams(rec.entries, rec2.entries)
        assert report is None, str(report)


def _chain_grids(sim_obj):
    """(name -> (epoch, index, interval, next_time)) for pending chains."""
    grids = {}
    for event in sim_obj.sim.iter_live_events():
        action = event.action
        owner = getattr(action, "__self__", None)
        if isinstance(owner, PeriodicChain):
            grids[owner.name] = (
                owner.epoch, owner.index, owner.interval, event.time
            )
    return grids


class TestRestoredChainGrid:
    def test_restored_chains_keep_phase_locked_grid(self):
        sim_obj = step_until(build_small(), 700.0)
        original = _chain_grids(sim_obj)
        assert original  # meter + schedule-retry at minimum
        restored = restore(snapshot(sim_obj), build_small)
        assert _chain_grids(restored) == original

    def test_restored_chain_future_firings_match_original(self):
        # Restore a mid-run snapshot, advance original and restored in
        # lockstep, and compare the chains' grids tick by tick.
        ref = build_small()
        step_until(ref, 700.0)
        state = snapshot(ref)
        ref_grid = _chain_grids(ref)

        restored = restore(state, build_small)
        for _ in range(200):
            ref.sim.step()
            restored.sim.step()
        assert _chain_grids(restored) == _chain_grids(ref)
        # And the grid stayed phase-locked to the original epoch.
        for name, (epoch, index, interval, next_time) in _chain_grids(
            restored
        ).items():
            assert next_time == epoch + index * interval
            assert ref_grid[name][0] == epoch
