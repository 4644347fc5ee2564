"""Snapshot/restore round trips of live simulations (repro.state).

The central invariant: restoring a mid-run snapshot yields a
simulation whose remaining run is bit-identical to the original —
same events, same floats, same final :class:`SimulationResult`.
"""

from __future__ import annotations

import functools

import pytest

from repro.cluster import NodeState
from repro.errors import StateError
from repro.simulator.engine import PeriodicChain
from repro.state import (
    diff_states,
    light_fingerprint,
    load_state,
    resume_run,
    result_fingerprint,
    run_checkpointed,
    restore,
    sim_fingerprint,
    snapshot,
    state_fingerprint,
)

from repro.state.serialize import from_bytes, to_bytes

from .state_scenarios import build_rich, build_small, step_until

class TestSmallRoundTrip:
    def test_snapshot_restore_fixed_point(self):
        sim = step_until(build_small(), 700.0)
        st = snapshot(sim)
        restored = restore(st, build_small)
        assert state_fingerprint(snapshot(restored)) == state_fingerprint(st)
        assert light_fingerprint(restored) == light_fingerprint(sim)

    def test_resumed_run_is_identical(self):
        ref = result_fingerprint(build_small().run())
        sim = step_until(build_small(), 700.0)
        st = snapshot(sim)
        restored = restore(st, build_small)
        assert result_fingerprint(run_checkpointed(restored)) == ref
        # The donor simulation is untouched by snapshot: it finishes
        # identically too.
        assert result_fingerprint(run_checkpointed(sim)) == ref

    def test_snapshot_does_not_perturb(self):
        ref = result_fingerprint(build_small().run())
        sim = build_small()
        sim.prepare()
        while sim.sim.step():
            snapshot(sim)
            if sim.all_jobs_terminal:
                break
        assert result_fingerprint(sim.finalize()) == ref

    def test_until_horizon_resume(self):
        ref = result_fingerprint(build_small().run(until=1500.0))
        sim = step_until(build_small(), 600.0)
        st = snapshot(sim)
        result = resume_run(
            st, build_small, until=1500.0
        )
        assert result_fingerprint(result) == ref


class TestRichRoundTrip:
    """All six node states, power caps, pending boot event, backfill."""

    def cut_sim(self):
        sim = step_until(build_rich(), 900.0)
        # Manufacture the remaining states deterministically: one DOWN
        # node and one BOOTING node with its boot event in flight.
        idle = [n for n in sim.machine.nodes if n.state is NodeState.IDLE]
        off = [n for n in sim.machine.nodes if n.state is NodeState.OFF]
        assert idle and off, "scenario must leave idle and off nodes at the cut"
        sim.rm.drain_node(idle[0])
        sim.rm.boot_node(off[0])
        return sim

    def test_all_six_states_present(self):
        sim = self.cut_sim()
        states = {n.state for n in sim.machine.nodes}
        assert states == {
            NodeState.OFF, NodeState.BOOTING, NodeState.IDLE,
            NodeState.BUSY, NodeState.SHUTTING_DOWN, NodeState.DOWN,
        }
        assert any(n.power_cap is not None for n in sim.machine.nodes)

    def test_fixed_point_and_identical_finish(self):
        sim = self.cut_sim()
        st = snapshot(sim)
        restored = restore(st, build_rich)
        st2 = snapshot(restored)
        assert diff_states(st, st2) == []
        assert state_fingerprint(st2) == state_fingerprint(st)
        fp_restored = result_fingerprint(run_checkpointed(restored))
        fp_original = result_fingerprint(run_checkpointed(sim))
        assert fp_restored == fp_original

    def test_node_fields_survive(self):
        sim = self.cut_sim()
        restored = restore(
            snapshot(sim), build_rich
        )
        for a, b in zip(sim.machine.nodes, restored.machine.nodes):
            assert a.state is b.state
            assert a.power_cap == b.power_cap
            assert a.frequency == b.frequency
            assert a.idle_since == b.idle_since or (
                a.idle_since is None and b.idle_since is None
            )


class TestCheckpointedRun:
    def test_checkpointed_run_identical_to_plain(self, tmp_path):
        ref = result_fingerprint(build_small().run())
        sim = build_small()
        saves = []
        result = run_checkpointed(
            sim, interval=300.0,
            sink=lambda s: saves.append(sim_fingerprint(s)),
        )
        assert result_fingerprint(result) == ref
        assert len(saves) >= 2

    def test_kill_and_resume_from_file(self, tmp_path):
        ref = result_fingerprint(build_rich().run())
        from repro.state import checkpoint_to

        path = str(tmp_path / "ck.ckpt")
        sink = checkpoint_to(path)
        sim = step_until(build_rich(), 1200.0)
        sink(sim)  # the "kill" leaves only the file behind
        del sim
        result = resume_run(load_state(path), build_rich)
        assert result_fingerprint(result) == ref


class TestGuards:
    def test_restore_rejects_different_config(self):
        st = snapshot(step_until(build_small(), 500.0))
        with pytest.raises(StateError, match="config"):
            restore(st, build_rich)

    def test_restore_rejects_different_seed(self):
        st = snapshot(step_until(build_small(seed=7), 500.0))
        with pytest.raises(StateError, match="config"):
            restore(st, functools.partial(build_small, seed=8))

    def test_restore_rejects_scalar_power_section(self):
        # Blobs recorded by the retired per-node power backend carry a
        # "scalar" power section; they must fail loudly, not restore.
        blob = to_bytes(snapshot(step_until(build_small(), 500.0)))
        st = from_bytes(blob)
        assert st.data["power"]["backend"] == "vector"
        st.data["power"]["backend"] = "scalar"
        with pytest.raises(StateError, match="backend"):
            restore(st, build_small)

    def test_trace_and_meter_survive(self):
        sim = step_until(build_small(), 700.0)
        n_records = len(sim.trace)
        n_samples = sim.meter.num_samples
        restored = restore(snapshot(sim), build_small)
        assert len(restored.trace) == n_records
        assert restored.trace.total_emitted == sim.trace.total_emitted
        assert restored.meter.num_samples == n_samples
        assert restored.meter.energy_joules == sim.meter.energy_joules
        times_a, _ = sim.meter.series()
        times_b, _ = restored.meter.series()
        assert list(times_a) == list(times_b)

    def test_rng_streams_survive(self):
        sim = step_until(build_small(), 700.0)
        # Advance a stream so its captured position differs from a
        # fresh one; the restored stream must continue from there.
        sim.rng.stream("probe").random(5)
        restored = restore(snapshot(sim), build_small)
        a = sim.rng.stream("probe").random(4).tolist()
        b = restored.rng.stream("probe").random(4).tolist()
        assert a == b
        fresh = build_small()
        assert fresh.rng.stream("probe").random(5).tolist() != a

    def test_captured_rng_state_is_not_aliased(self):
        # The snapshot holds the bit-generator state without a copy:
        # numpy's getter builds a fresh dict per read and the setter
        # copies values in, so neither side can reach the other.
        sim = step_until(build_small(), 700.0)
        gen = sim.rng.stream("probe")
        gen.random(3)
        st = snapshot(sim)
        captured = st.data["rng"]["probe"]
        assert captured is not gen.bit_generator.state
        assert captured == gen.bit_generator.state
        gen.random(7)
        assert captured != gen.bit_generator.state
        live = restore(st, build_small).rng.stream("probe")
        before = live.bit_generator.state
        assert before == captured
        captured["state"]["state"] += 1
        assert live.bit_generator.state == before


SCENARIOS = {
    "small-fcfs": lambda: build_small(scheduler="fcfs"),
    "small-easy": lambda: build_small(scheduler="easy"),
    "rich": build_rich,
}

#: ``result_fingerprint`` of each scenario's run, recorded when the
#: per-node power spec still ran alongside and matched it exactly.
PINNED_RESULTS = {
    "small-fcfs":
        "b592539a728d0b10dda8de1ce1a73c711b0fc85a344bbfebeee09dd63a0e92d3",
    "small-easy":
        "c22ce07369c8f93afae75d3910608b446a1847de8e8cd67476940ea3e1e579ac",
    "rich":
        "8009315343d8610b83a4777aa4d48864b615665e62252455cfc40b7dccee90ba",
}


class TestPinnedScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_result_fingerprint_pinned(self, name):
        result = SCENARIOS[name]().run()
        assert result_fingerprint(result) == PINNED_RESULTS[name]

    def test_idle_shutdown_tick_effects_pinned(self):
        # build_rich carries IdleShutdownPolicy.  Its tick ranks
        # candidates on the power mirror's SoA columns; the boots,
        # shutdowns and accumulated estimate were recorded from the
        # per-node scan it replaced.
        sim = build_rich()
        sim.run()
        assert sim.rm.boots_initiated == 25
        assert sim.rm.shutdowns_initiated == 41
        assert sim.policies[1].energy_saved_estimate == 246000.0


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
