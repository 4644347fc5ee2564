"""The discrete-event simulator core.

A thin, fast event loop: a binary heap of :class:`Event` objects, a
monotonically non-decreasing clock, and helpers for one-shot, delayed
and periodic callbacks.  Determinism guarantees:

* events at the same ``(time, priority)`` fire in scheduling order
  (FIFO via a monotone sequence counter);
* cancellation is O(1) (tombstoning) and never perturbs ordering;
* the clock never moves backwards — scheduling strictly in the past
  raises :class:`~repro.errors.EventOrderError`.

One execution path: :meth:`Simulator.step` / :meth:`Simulator.run`
fire one event per heap pop.  Every production caller, the state
subsystem's checkpoint/replay and the engine benches drive it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from ..errors import EventOrderError, SimulationError
from .events import Event, EventPriority


class EventHandle:
    """Opaque, cancellable reference to a scheduled event."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: "Optional[Simulator]" = None) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """Simulated time at which the event will fire."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled/fired)."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        A first effective cancel turns the heap entry into a tombstone:
        the owning simulator's live count drops and its tombstone count
        grows (possibly triggering heap compaction).  Cancelling an
        already-fired or already-cancelled event changes no counters.
        """
        event = self._event
        if event.cancelled or event.done:
            event.cancelled = True
            return
        event.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live -= 1
            sim._tombstones += 1
            sim._maybe_compact()


class PeriodicChain:
    """State of one ``every()`` chain.

    Each firing schedules the next via the bound ``_tick`` method, so
    the pending heap entry of a periodic chain is introspectable (the
    state subsystem recognizes ``event.action.__self__`` as a
    :class:`PeriodicChain` and serializes the chain parameters instead
    of an opaque closure).

    Firing times are *phase-locked*: the chain tracks the grid origin
    ``epoch`` (the first firing time) and the index of the pending
    tick, and computes every firing as ``epoch + index * interval``.
    The naive ``now + interval`` recurrence accumulates one rounding
    error per tick and drifts off the grid over multi-year runs (about
    1e-8 s after 100k ticks at interval 0.1); the closed form stays
    within one ulp of the exact grid forever.
    """

    __slots__ = ("sim", "interval", "action", "args", "priority", "name",
                 "until", "cancelled", "handle", "epoch", "index")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        action: Callable[..., Any],
        args: tuple,
        priority: int,
        name: str,
        until: Optional[float],
        epoch: float = 0.0,
        index: int = 0,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.action = action
        self.args = args
        self.priority = priority
        self.name = name
        self.until = until
        self.cancelled = False
        self.handle: Optional[EventHandle] = None
        #: Grid origin: the time of tick 0.
        self.epoch = epoch
        #: Index of the pending (not yet fired) tick on the grid.
        self.index = index

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.action(*self.args)
        if self.cancelled:
            return  # the action cancelled its own chain
        next_index = self.index + 1
        next_time = self.epoch + next_index * self.interval
        if self.until is not None and next_time > self.until:
            # Exhausted: mark the whole chain dead so handles over it
            # report inactive (the final tick's event has done=True but
            # cancelled=False, which alone would read as still-pending).
            self.cancelled = True
            return
        self.index = next_index
        self.handle = self.sim.at(
            next_time, self._tick, priority=self.priority, name=self.name
        )


class _ChainHandle(EventHandle):
    """Handle over a whole periodic chain (cancels all future firings)."""

    __slots__ = ("_chain",)

    def __init__(self, chain: PeriodicChain) -> None:
        self._chain = chain

    @property
    def time(self) -> float:
        return self._chain.handle.time

    @property
    def active(self) -> bool:
        return not self._chain.cancelled and self._chain.handle.active

    def cancel(self) -> None:
        self._chain.cancelled = True
        self._chain.handle.cancel()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.  Defaults to
        zero; center scenarios that model calendar effects (seasonal
        capping, diurnal load) pick an epoch offset instead.
    """

    #: Tombstone compaction threshold: compact once more than half the
    #: heap is cancelled events (and the absolute count is non-trivial).
    _COMPACT_MIN_TOMBSTONES = 16

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = 0
        self._running = False
        self._events_fired = 0
        # Live (scheduled, not yet fired or cancelled) and tombstoned
        # (cancelled but still in the heap) event counts.  `pending`
        # used to scan the whole heap per call — O(H) with H inflated
        # by tombstones; cap-heavy runs cancel and reschedule a
        # completion event per speed change, so both the scan and the
        # heap itself grew without bound.
        self._live = 0
        self._tombstones = 0
        #: Optional hook invoked as ``observer(event)`` after each event
        #: fires (post-state).  Used by repro.state.replay to record
        #: per-event fingerprint streams without perturbing ordering.
        self.observer: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for throughput benches)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live events awaiting execution.  O(1).

        Cancelled events (tombstones) still sitting in the heap are
        not counted — they will be skipped, never fired.
        """
        return self._live

    @property
    def heap_size(self) -> int:
        """Heap entries including tombstones (observability for the
        compaction invariant: bounded by ~2x the live count)."""
        return len(self._heap)

    def _maybe_compact(self) -> None:
        """Drop tombstones once they outnumber live heap entries.

        Rebuilding via ``heapify`` is O(H) and safe for determinism:
        events have a strict total order (time, priority, seq), so the
        pop sequence of a heap depends only on its multiset of events,
        not on their internal arrangement.  The compaction mutates the
        heap list *in place*, so any alias of it stays valid.
        """
        if (
            self._tombstones > self._COMPACT_MIN_TOMBSTONES
            and 2 * self._tombstones > len(self._heap)
        ):
            heap = self._heap
            heap[:] = [e for e in heap if not e.cancelled]
            heapq.heapify(heap)
            self._tombstones = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
        name: str = "",
    ) -> EventHandle:
        """Schedule *action(*args)* at absolute simulated *time*."""
        if time < self._now:
            raise EventOrderError(
                f"cannot schedule {name or action!r} at t={time} "
                f"(clock is at t={self._now})"
            )
        event = Event(float(time), int(priority), self._seq, action, args, name)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return EventHandle(event, self)

    def after(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
        name: str = "",
    ) -> EventHandle:
        """Schedule *action(*args)* after *delay* seconds from now."""
        if delay < 0:
            raise EventOrderError(f"negative delay {delay} for {name or action!r}")
        return self.at(self._now + delay, action, *args, priority=priority, name=name)

    def every(
        self,
        interval: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
        name: str = "",
        start_offset: Optional[float] = None,
        until: Optional[float] = None,
    ) -> EventHandle:
        """Schedule *action* periodically every *interval* seconds.

        The returned handle cancels the whole periodic chain.  The first
        firing is at ``now + (start_offset if given else interval)``;
        firings stop once the next slot would exceed *until* (if given).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")

        first = self._now + (interval if start_offset is None else start_offset)
        if until is not None and first > until:
            # Nothing to do; return an already-cancelled handle.
            dummy = Event(self._now, int(priority), self._seq, lambda: None)
            self._seq += 1
            dummy.cancelled = True  # never entered the heap: no counters
            return EventHandle(dummy, self)
        chain = PeriodicChain(
            self, float(interval), action, args, int(priority),
            name or "periodic", until, epoch=float(first), index=0,
        )
        chain.handle = self.at(first, chain._tick, priority=priority, name=chain.name)
        return _ChainHandle(chain)

    # ------------------------------------------------------------------
    # State capture/restore support (used by repro.state)
    # ------------------------------------------------------------------
    def iter_live_events(self) -> List[Event]:
        """Live (pending, not cancelled) events in firing order.

        Sorted by the event total order ``(time, priority, seq)`` —
        exactly the order :meth:`step` would pop them.
        """
        live = [e for e in self._heap if not e.cancelled]
        live.sort()
        return live

    def clear_events(self) -> None:
        """Drop every pending event (restore support: the state
        subsystem wipes a freshly-built simulation's heap before
        grafting the captured one).

        Cleared events are marked cancelled+done so any handle still
        pointing at one becomes a no-op instead of corrupting the
        live/tombstone counters.
        """
        for event in self._heap:
            event.cancelled = True
            event.done = True
        self._heap.clear()
        self._live = 0
        self._tombstones = 0

    def restore_clock(self, now: float, seq: int, events_fired: int) -> None:
        """Overwrite clock/sequence counters with captured values.

        The sequence counter must be restored exactly: future events
        scheduled after a restore must receive the same seq numbers
        (and hence the same FIFO tie-breaks) as in the original run.
        """
        self._now = float(now)
        self._seq = int(seq)
        self._events_fired = int(events_fired)

    def restore_event(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[..., Any],
        args: tuple = (),
        name: str = "",
    ) -> EventHandle:
        """Re-plant a captured event with its original sequence number.

        Unlike :meth:`at` this does not consume the seq counter — the
        caller replays recorded seqs and restores the counter itself
        via :meth:`restore_clock`.
        """
        event = Event(float(time), int(priority), int(seq), action, tuple(args), name)
        heapq.heappush(self._heap, event)
        self._live += 1
        return EventHandle(event, self)

    def restore_periodic(
        self,
        interval: float,
        action: Callable[..., Any],
        args: tuple,
        priority: int,
        name: str,
        until: Optional[float],
        next_time: float,
        seq: int,
        epoch: Optional[float] = None,
        index: int = 0,
    ) -> EventHandle:
        """Re-plant a periodic chain with its pending tick at *next_time*
        carrying the captured *seq*.  Returns the chain handle.

        *epoch* and *index* restore the phase-locked grid so the chain
        keeps firing at ``epoch + k * interval`` exactly as the
        original run would have; with no epoch (legacy descriptions)
        the grid re-anchors at *next_time*.
        """
        chain = PeriodicChain(
            self, float(interval), action, tuple(args), int(priority),
            name or "periodic", until,
            epoch=float(next_time if epoch is None else epoch),
            index=int(index),
        )
        chain.handle = self.restore_event(
            next_time, priority, seq, chain._tick, (), chain.name
        )
        return _ChainHandle(chain)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._tombstones -= 1
                continue
            event.done = True
            self._live -= 1
            self._now = event.time
            self._events_fired += 1
            event.fire()
            if self.observer is not None:
                self.observer(event)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to *until*.  ``None`` runs to exhaustion.
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SimulationError` when exceeded.

        Returns the final clock value.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._tombstones -= 1
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                event.done = True
                self._live -= 1
                self._now = event.time
                self._events_fired += 1
                event.fire()
                if self.observer is not None:
                    self.observer(event)
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False
        return self._now
