"""Property-based tests: event engine ordering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Simulator
from repro.simulator.events import EventPriority

event_spec = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([EventPriority.STATE, EventPriority.MONITOR,
                     EventPriority.CONTROL, EventPriority.REPORT]),
)


class TestEngineProperties:
    @given(st.lists(event_spec, max_size=200))
    def test_events_fire_in_canonical_order(self, specs):
        sim = Simulator()
        fired = []
        for i, (time, priority) in enumerate(specs):
            sim.at(time, lambda t=time, p=priority, i=i: fired.append((t, p, i)),
                   priority=priority)
        sim.run()
        assert len(fired) == len(specs)
        # (time, priority, insertion order) must be non-decreasing.
        keys = [(t, int(p), i) for t, p, i in fired]
        assert keys == sorted(keys)

    @given(st.lists(event_spec, max_size=200))
    def test_clock_monotone(self, specs):
        sim = Simulator()
        observed = []
        for time, priority in specs:
            sim.at(time, lambda: observed.append(sim.now), priority=priority)
        sim.run()
        assert observed == sorted(observed)

    @given(st.lists(event_spec, min_size=1, max_size=100),
           st.data())
    def test_cancellation_subset(self, specs, data):
        sim = Simulator()
        fired = []
        handles = []
        for i, (time, priority) in enumerate(specs):
            handles.append(
                sim.at(time, lambda i=i: fired.append(i), priority=priority)
            )
        to_cancel = data.draw(
            st.sets(st.integers(0, len(specs) - 1), max_size=len(specs))
        )
        for idx in to_cancel:
            handles[idx].cancel()
        sim.run()
        assert set(fired) == set(range(len(specs))) - to_cancel

    @given(st.floats(min_value=0.1, max_value=1000.0),
           st.floats(min_value=1.0, max_value=10_000.0))
    @settings(max_examples=50, deadline=None)
    def test_periodic_count(self, interval, horizon):
        sim = Simulator()
        count = [0]
        sim.every(interval, lambda: count.__setitem__(0, count[0] + 1))
        sim.run(until=horizon)
        # The exact count is ambiguous near multiples (floor itself is
        # float-sensitive) and repeated addition drifts; check the
        # defining inequalities with one-slot slack instead.
        n = count[0]
        assert (n - 1) * interval <= horizon * (1 + 1e-9)
        assert (n + 1) * interval >= horizon * (1 - 1e-9)


# Strategy biased toward same-instant collisions: few distinct times,
# all four tiers.
_collide_spec = st.tuples(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 5.0]),
    st.sampled_from([EventPriority.STATE, EventPriority.MONITOR,
                     EventPriority.CONTROL, EventPriority.REPORT]),
)


def _populate(sim, specs, log, cancels):
    """Schedule *specs*; event i appends to *log* and, when
    ``cancels[i]`` is present, cancels the handle of event j from
    inside event i.
    """
    handles = {}

    def make_action(i):
        def action():
            log.append(("fire", i, sim.now))
            j = cancels.get(i)
            if j is not None:
                handles[j].cancel()
        return action

    for i, (time, priority) in enumerate(specs):
        handles[i] = sim.at(time, make_action(i), priority=priority)
    return handles


class TestSameInstantDispatch:
    """Same-instant cohorts under run(): tier order, FIFO, cancels."""

    @given(st.lists(_collide_spec, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_tier_order_and_fifo_within_tier(self, specs):
        sim = Simulator()
        log = []
        _populate(sim, specs, log, {})
        sim.run()
        # (time, tier, insertion order) non-decreasing: tiers dispatch
        # STATE -> MONITOR -> CONTROL -> REPORT and FIFO inside a tier.
        keys = [(t, int(specs[i][1]), i) for kind, i, t in log]
        assert keys == sorted(keys)

    @given(st.lists(_collide_spec, min_size=2, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_instant_cancellation_counters(self, specs, data):
        # An event cancelling another event (often at its own instant):
        # the victim never fires after its canceller, live drops to
        # zero, and no tombstone is left behind.
        idx = st.integers(0, len(specs) - 1)
        cancels = {}
        for i in data.draw(st.sets(idx, max_size=8)):
            j = data.draw(idx)
            if j != i:
                cancels[i] = j
        sim = Simulator()
        log = []
        _populate(sim, specs, log, cancels)
        sim.run()
        fired = {i for kind, i, t in log if kind == "fire"}
        for i, j in cancels.items():
            if i in fired:
                # The victim may only have fired before its canceller.
                if j in fired:
                    order = [x[1] for x in log]
                    assert order.index(j) < order.index(i)
        assert sim.pending == 0
        assert sim.heap_size == 0
        assert sim.events_fired == len(fired)
