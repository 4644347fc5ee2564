"""Event types for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  The priority tier
exists because several things can legitimately happen at the same
simulated instant — a job finishing, the power meter sampling, the
scheduler reacting — and the outcome must not depend on insertion
order.  The tiers below encode the canonical ordering used throughout
the framework: state changes happen first, then monitoring observes
them, then control reacts, then bookkeeping runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Tie-break tiers for events at equal simulation time.

    Lower values run first.  The ordering mirrors the monitor/control
    split of Figure 1 in the paper: the physical state of the machine
    settles before telemetry samples it, and telemetry samples before
    the scheduler or any EPA policy reacts to the sample.
    """

    #: Physical/system state transitions (job end, node boot complete).
    STATE = 0
    #: Telemetry sampling and aggregation.
    MONITOR = 10
    #: Scheduler passes and EPA policy decisions.
    CONTROL = 20
    #: Metrics, reporting and other observers.
    REPORT = 30

    #: Default tier for user callbacks.
    DEFAULT = 20


@dataclass(slots=True)
class Event:
    """A single scheduled callback.

    Instances are created by :class:`~repro.simulator.engine.Simulator`;
    user code normally only sees the opaque
    :class:`~repro.simulator.engine.EventHandle`.

    ``slots=True`` matters here: the engine allocates and compares one
    Event per scheduled callback, so dropping the per-instance dict
    shrinks the hot loop.  For the same reason the heap order is an
    explicit :meth:`__lt__` rather than ``order=True``, whose generated
    comparison builds two tuples per call.
    """

    time: float
    priority: int
    seq: int
    action: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: Set by the engine once the event has been popped for execution.
    #: Lets a late cancel() (e.g. from within the event's own action)
    #: be a no-op for the engine's live/tombstone bookkeeping.
    done: bool = field(compare=False, default=False)

    def __lt__(self, other: "Event") -> bool:
        """Heap order: ``time``, then ``priority``, then ``seq``."""
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled."""
        if not self.cancelled:
            self.action(*self.args)
