"""Tests for the discrete-event engine."""

import heapq
import itertools
import random

import pytest

from repro.errors import EventOrderError, SimulationError
from repro.simulator import EventPriority, Simulator
from repro.simulator.events import Event


class TestScheduling:
    def test_clock_starts_at_start_time(self):
        assert Simulator().now == 0.0
        assert Simulator(start_time=100.0).now == 100.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.at(5.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self, sim):
        order = []
        sim.at(1.0, lambda: order.append("control"), priority=EventPriority.CONTROL)
        sim.at(1.0, lambda: order.append("state"), priority=EventPriority.STATE)
        sim.at(1.0, lambda: order.append("monitor"), priority=EventPriority.MONITOR)
        sim.run()
        assert order == ["state", "monitor", "control"]

    def test_after_is_relative(self, sim):
        sim.at(10.0, lambda: sim.after(5.0, lambda: None))
        sim.run()
        assert sim.now == 15.0

    def test_scheduling_in_past_raises(self, sim):
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(EventOrderError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(EventOrderError):
            sim.after(-1.0, lambda: None)

    def test_args_passed_through(self, sim):
        got = []
        sim.at(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestEventOrder:
    """Events order by ``time``, then ``priority``, then ``seq``."""

    @staticmethod
    def _keys():
        # Every combination ties with others on time, and on time plus
        # priority; seq alone is unique.
        combos = itertools.product(
            [0.0, 1.0, 2.5], [EventPriority.STATE, EventPriority.CONTROL,
                              EventPriority.REPORT], range(4)
        )
        return [(t, int(p), seq) for seq, (t, p, _) in enumerate(combos)]

    @pytest.mark.parametrize("seed", range(5))
    def test_heap_pops_in_time_priority_seq_order(self, seed):
        keys = self._keys()
        shuffled = keys[:]
        random.Random(seed).shuffle(shuffled)
        heap = []
        for t, p, seq in shuffled:
            heapq.heappush(heap, Event(t, p, seq, lambda: None))
        popped = [heapq.heappop(heap) for _ in range(len(heap))]
        assert [(e.time, e.priority, e.seq) for e in popped] == sorted(keys)

    def test_lt_compares_field_by_field(self):
        def ev(t, p, seq):
            return Event(t, p, seq, lambda: None)

        assert ev(1.0, 30, 0) < ev(2.0, 0, 0)  # time first
        assert ev(1.0, 0, 9) < ev(1.0, 10, 0)  # then priority
        assert ev(1.0, 10, 3) < ev(1.0, 10, 4)  # then seq
        assert not ev(1.0, 10, 4) < ev(1.0, 10, 4)
        assert not ev(2.0, 0, 0) < ev(1.0, 30, 9)

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_fires_restored_events_in_order(self, sim, seed):
        # restore_event plants explicit seqs, so the engine's heap sees
        # the same shuffled ties as above.
        keys = self._keys()
        shuffled = keys[:]
        random.Random(100 + seed).shuffle(shuffled)
        fired = []
        for t, p, seq in shuffled:
            sim.restore_event(t, p, seq, fired.append, ((t, p, seq),))
        sim.run()
        assert fired == sorted(keys)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.at(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.active

    def test_handle_active_lifecycle(self, sim):
        handle = sim.at(1.0, lambda: None)
        assert handle.active
        assert handle.time == 1.0
        sim.run()
        # fired events are popped; the handle is no longer cancelled
        # but the event cannot fire again.
        assert sim.events_fired == 1

    def test_pending_excludes_tombstones(self, sim):
        h1 = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        h1.cancel()
        assert sim.pending == 1


class TestRun:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.at(1.0, lambda: None)
        final = sim.run(until=10.0)
        assert final == 10.0
        assert sim.now == 10.0

    def test_run_until_leaves_future_events(self, sim):
        fired = []
        sim.at(20.0, lambda: fired.append(1))
        sim.run(until=10.0)
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_max_events_guard(self, sim):
        def reschedule():
            sim.after(1.0, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_not_reentrant(self, sim):
        def inner():
            sim.run()

        sim.at(1.0, inner)
        with pytest.raises(SimulationError):
            sim.run()

    def test_same_instant_schedule_fires_after_earlier_same_tier(self, sim):
        order = []

        def control():
            order.append("control")
            sim.at(sim.now, lambda: order.append("reaction"),
                   priority=EventPriority.REPORT)

        sim.at(1.0, control, priority=EventPriority.CONTROL)
        sim.at(1.0, lambda: order.append("report"),
               priority=EventPriority.REPORT)
        sim.run()
        # FIFO within the REPORT tier: the pre-scheduled report has the
        # lower seq.
        assert order == ["control", "report", "reaction"]

    def test_lower_tier_same_instant_event_fires_first(self, sim):
        order = []

        def control_a():
            order.append("control_a")
            sim.at(sim.now, lambda: order.append("state"),
                   priority=EventPriority.STATE)

        sim.at(1.0, control_a, priority=EventPriority.CONTROL)
        sim.at(1.0, lambda: order.append("control_b"),
               priority=EventPriority.CONTROL)
        sim.run()
        # Heap order (time, priority, seq): the STATE event outranks
        # the remaining CONTROL event and must fire between them.
        assert order == ["control_a", "state", "control_b"]

    def test_cancel_later_same_instant_event(self, sim):
        order = []
        handles = {}

        def canceller():
            order.append("canceller")
            handles["victim"].cancel()

        sim.at(1.0, canceller, priority=EventPriority.STATE)
        handles["victim"] = sim.at(1.0, lambda: order.append("victim"),
                                   priority=EventPriority.CONTROL)
        sim.at(1.0, lambda: order.append("survivor"),
               priority=EventPriority.REPORT)
        sim.run()
        assert order == ["canceller", "survivor"]
        assert sim.pending == 0
        assert sim.events_fired == 2


class TestPeriodic:
    def test_every_fires_at_interval(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_every_with_start_offset(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_offset=0.0)
        sim.run(until=25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_every_until_bound(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), until=25.0)
        sim.run(until=100.0)
        assert times == [10.0, 20.0]

    def test_every_cancel_stops_chain(self, sim):
        times = []
        handle = sim.every(10.0, lambda: times.append(sim.now))
        sim.at(25.0, handle.cancel)
        sim.run(until=100.0)
        assert times == [10.0, 20.0]

    def test_every_rejects_bad_interval(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_every_starting_beyond_until_is_noop(self, sim):
        handle = sim.every(10.0, lambda: None, until=5.0)
        assert not handle.active
        sim.run()
        assert sim.events_fired == 0

    def test_every_noop_handle_priority_is_int(self, sim):
        # Regression: the dummy handle stored the raw EventPriority
        # enum where at() stores a plain int.
        handle = sim.every(10.0, lambda: None, until=5.0,
                           priority=EventPriority.MONITOR)
        assert type(handle._event.priority) is int

    def test_pending_counts_only_live_events(self, sim):
        live = sim.at(1.0, lambda: None)
        dead = sim.at(2.0, lambda: None)
        dead.cancel()
        assert live.active
        assert sim.pending == 1


class TestHeapHygiene:
    """Tombstone counters and heap compaction invariants."""

    def test_pending_is_counter_not_scan(self, sim):
        handles = [sim.at(float(i + 1), lambda: None) for i in range(50)]
        assert sim.pending == 50
        for h in handles[:20]:
            h.cancel()
        assert sim.pending == 30

    def test_compaction_drops_tombstones(self, sim):
        handles = [sim.at(float(i + 1), lambda: None) for i in range(100)]
        for h in handles[:60]:
            h.cancel()
        # Compaction ran (at the 51st cancel): the heap is no longer
        # the full 100 entries, and the standing invariant holds —
        # tombstones never exceed the trigger threshold AND half the
        # heap at rest.
        assert sim.pending == 40
        assert sim.heap_size < 60
        tombstones = sim.heap_size - sim.pending
        assert (
            tombstones <= sim._COMPACT_MIN_TOMBSTONES
            or 2 * tombstones <= sim.heap_size
        )

    def test_compaction_preserves_firing_order(self, sim):
        fired = []
        handles = []
        for i in range(100):
            t = float(100 - i)  # scheduled in reverse time order
            handles.append(sim.at(t, fired.append, t))
        for h in handles[::2]:
            h.cancel()
        survivors = sorted(h.time for h in handles[1::2])
        sim.run()
        assert fired == survivors
        assert sim.events_fired == len(survivors)

    def test_events_fired_unaffected_by_compaction(self, sim):
        for i in range(10):
            sim.at(float(i + 1), lambda: None)
        doomed = [sim.at(1000.0 + i, lambda: None) for i in range(40)]
        for h in doomed:
            h.cancel()
        sim.run()
        assert sim.events_fired == 10

    def test_cancel_after_fire_keeps_counters_sane(self, sim):
        h1 = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.step()
        h1.cancel()  # already fired: must not decrement live again
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_fired == 2

    def test_self_cancel_during_fire_is_noop(self, sim):
        holder = {}

        def action():
            holder["h"].cancel()

        holder["h"] = sim.at(1.0, action)
        sim.at(2.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        assert sim.events_fired == 2

    def test_cancel_reschedule_churn_bounds_heap(self, sim):
        # The cap-heavy pattern: every speed change cancels and
        # reschedules a completion event.  The heap must stay O(live),
        # not O(total cancellations).
        handle = sim.at(1e9, lambda: None)
        for i in range(10_000):
            handle.cancel()
            handle = sim.at(1e9 + i, lambda: None)
        assert sim.pending == 1
        assert sim.heap_size <= 2 * sim._COMPACT_MIN_TOMBSTONES + 2

    def test_periodic_chain_cancel_updates_counters(self, sim):
        ticks = []
        handle = sim.every(10.0, lambda: ticks.append(sim.now))

        def stop():
            handle.cancel()

        sim.at(35.0, stop, priority=0)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0, 30.0]
        assert sim.pending == 0

    def test_compaction_mid_run_keeps_heap_alive(self, sim):
        # A fired action cancels enough future events to trigger
        # tombstone compaction, then schedules new work.  The run loop
        # must keep seeing the (compacted) heap — the follow-up event
        # and surviving victims all still fire.
        fired = []
        victims = [
            sim.at(100.0, lambda i=i: fired.append(("victim", i)))
            for i in range(40)
        ]

        def churn():
            fired.append(("churn", sim.now))
            for handle in victims[:30]:
                handle.cancel()
            sim.at(50.0, lambda: fired.append(("late", sim.now)))

        sim.at(0.0, churn)
        sim.run()
        assert sim._tombstones == 0  # compaction really ran
        assert ("late", 50.0) in fired
        assert [f for f in fired if f[0] == "victim"] == [
            ("victim", i) for i in range(30, 40)
        ]
        assert sim.pending == 0 and sim.heap_size == 0
        assert sim.events_fired == 12  # churn + late + 10 survivors


class TestPeriodicChainCorrectness:
    """Regression tests: chain exhaustion and phase-locked grids."""

    def test_exhausted_until_chain_reports_inactive(self, sim):
        # Regression: after the final tick of an until-bounded chain the
        # event had done=True, cancelled=False, so handle.active stayed
        # True forever.
        handle = sim.every(10.0, lambda: None, until=25.0)
        sim.run(until=100.0)
        assert sim.events_fired == 2
        assert not handle.active

    def test_active_chain_still_reports_active(self, sim):
        handle = sim.every(10.0, lambda: None, until=1000.0)
        sim.run(until=100.0)
        assert handle.active

    def test_chain_self_cancel_inside_action_stops_chain(self, sim):
        holder = {}
        ticks = []

        def action():
            ticks.append(sim.now)
            if len(ticks) == 2:
                holder["h"].cancel()

        holder["h"] = sim.every(10.0, action)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0]
        assert not holder["h"].active
        assert sim.pending == 0

    def test_periodic_times_stay_on_grid(self, sim):
        # Regression: next_time = now + interval accumulates one
        # rounding error per tick; 0.1 is not representable so the
        # naive recurrence drifts off the k*0.1 grid within ~10 ticks.
        times = []
        sim.every(0.1, lambda: times.append(sim.now))
        sim.run(until=1000.0)
        assert len(times) == 9_999
        for k in (1, 7, 99, 1234, 9999):
            assert times[k - 1] == 0.1 * k

    def test_grid_is_phase_locked_to_first_firing(self, sim):
        times = []
        sim.at(3.0, lambda: sim.every(0.1, lambda: times.append(sim.now)))
        sim.run(until=50.0)
        assert times[0] == 3.0 + 0.1
        assert times[100] == 3.1 + 0.1 * 100
