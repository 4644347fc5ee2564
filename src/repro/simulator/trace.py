"""Structured trace recording.

A :class:`TraceRecorder` is an append-only log of typed records emitted
by any component.  It is the simulation-side analogue of the long-term
monitoring archives the surveyed centers maintain (STFC: "continuously
collecting power and energy system monitoring info, data center,
machine, and job levels") — analyses are run over the trace after the
simulation, never by reaching into live objects.

Retention
---------
By default every record is kept.  Long checkpointed campaigns can bound
memory with ``max_records``: the recorder then keeps only the trailing
window, dropping the oldest records as new ones arrive.  Positions are
tracked as *absolute* emission indices so the per-category bucket index
stays consistent across drops (stale positions are pruned lazily on
query).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Pending-buffer auto-flush threshold: bounds deferred memory while
#: keeping the per-emit cost a plain tuple append for long stretches.
_FLUSH_THRESHOLD = 8192


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulated time of the record, seconds.
    category:
        Dotted topic string, e.g. ``"job.start"``, ``"power.cap"``.
    data:
        Arbitrary payload; by convention a flat ``dict`` of primitives.
    """

    time: float
    category: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only, queryable trace log.

    Categories are dotted paths; queries match by exact category or by
    prefix (``"job"`` matches ``"job.start"`` and ``"job.end"``).
    Optional live subscribers receive records as they are emitted —
    used by telemetry aggregators and by tests.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` is a no-op.
    max_records:
        Optional retention bound: keep only the most recent
        *max_records* records (ring semantics).  ``None`` keeps all.
    """

    def __init__(self, enabled: bool = True, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be > 0 or None, got {max_records}")
        self.enabled = enabled
        self.max_records = max_records
        # ``_records`` may carry a dead prefix of ``_dead`` entries
        # already dropped from the retention window; they are physically
        # deleted in amortized-O(1) chunks (see ``_compact``) so ring
        # retention never degrades emit() to O(window).
        self._records: List[TraceRecord] = []
        self._dead = 0
        #: Total *flushed* records; the absolute index of
        #: ``_records[i]`` is ``_emitted - len(_records) + i``.
        self._emitted = 0
        #: Deferred-flush buffer: with no live subscribers, ``emit``
        #: is a plain tuple append here and record construction plus
        #: bucket indexing happen in one batch at the next read (or at
        #: the auto-flush threshold).  Every query path flushes first,
        #: so readers never observe the buffer.
        self._pending: List[Tuple[float, str, Dict[str, Any]]] = []
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # Per-category bucket index: category -> *absolute* emission
        # indices (each list ascending by construction).  Category
        # queries fold the matching buckets instead of scanning every
        # record; analyses over long simulations query specific
        # categories thousands of times.  With ring retention, indices
        # older than the window are pruned lazily at query time.
        self._buckets: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        if self._pending and self.max_records is not None:
            self._flush()
        return len(self._records) - self._dead + len(self._pending)

    @property
    def total_emitted(self) -> int:
        """Records ever emitted, including any dropped by retention."""
        return self._emitted + len(self._pending)

    @property
    def _first_abs(self) -> int:
        """Absolute emission index of the oldest retained record."""
        return self._emitted - (len(self._records) - self._dead)

    def emit(self, time: float, category: str, **data: Any) -> None:
        """Record an event at *time* under *category* with payload *data*.

        With no live subscribers this defers record construction and
        bucket indexing to the next flush; a subscriber forces the
        eager path so delivery order stays emission order.
        """
        if not self.enabled:
            return
        if not self._subscribers:
            self._pending.append((time, category, data))
            if len(self._pending) >= _FLUSH_THRESHOLD:
                self._flush()
            return
        self._flush()
        record = TraceRecord(time, category, data)
        bucket = self._buckets.get(category)
        if bucket is None:
            self._buckets[category] = [self._emitted]
        else:
            bucket.append(self._emitted)
        self._records.append(record)
        self._emitted += 1
        if (
            self.max_records is not None
            and len(self._records) - self._dead > self.max_records
        ):
            self._dead += 1
            self._compact()
        for sub in self._subscribers:
            sub(record)

    def emit_batch(
        self, time: float, category: str, payloads: Iterable[Dict[str, Any]]
    ) -> None:
        """Record many same-timestamp events under one *category*.

        One list-extend for the whole batch when no subscribers are
        live — the cohort-batched emitters (bulk node transitions) use
        this so a thousand-node boot costs one Python call, not a
        thousand.  Each payload dict is
        stored as passed (not copied); callers hand over ownership.
        Record order matches the iteration order of *payloads*,
        exactly as the equivalent :meth:`emit` loop would produce.
        """
        if not self.enabled:
            return
        if not self._subscribers:
            self._pending.extend((time, category, data) for data in payloads)
            if len(self._pending) >= _FLUSH_THRESHOLD:
                self._flush()
            return
        for data in payloads:
            self.emit(time, category, **data)

    def _flush(self) -> None:
        """Materialize the pending buffer into storage and buckets."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        records = self._records
        buckets = self._buckets
        emitted = self._emitted
        for time, category, data in pending:
            records.append(TraceRecord(time, category, data))
            bucket = buckets.get(category)
            if bucket is None:
                buckets[category] = [emitted]
            else:
                bucket.append(emitted)
            emitted += 1
        self._emitted = emitted
        if self.max_records is not None:
            over = len(records) - self._dead - self.max_records
            if over > 0:
                self._dead += over
                self._compact()

    def _compact(self) -> None:
        """Physically delete the dead prefix once it dominates storage."""
        if self._dead > 256 and 2 * self._dead >= len(self._records):
            del self._records[: self._dead]
            self._dead = 0

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live subscriber invoked for every new record.

        Records already emitted (including any still pending) predate
        the registration and are not delivered."""
        self._flush()
        self._subscribers.append(callback)

    def _record_at(self, abs_index: int) -> TraceRecord:
        return self._records[abs_index - self._emitted + len(self._records)]

    def _prune(self, positions: List[int]) -> List[int]:
        """Drop bucket positions that fell out of the retention window."""
        first = self._first_abs
        if positions and positions[0] < first:
            del positions[: bisect.bisect_left(positions, first)]
        return positions

    def _matching_buckets(self, category: str) -> List[List[int]]:
        """Position lists of every bucket matching *category* (exact or
        dotted-prefix), pruned to the retention window, unmerged."""
        prefix = category + "."
        return [
            self._prune(positions)
            for cat, positions in self._buckets.items()
            if cat == category or cat.startswith(prefix)
        ]

    def records(self, category: Optional[str] = None) -> List[TraceRecord]:
        """Return records, optionally filtered by category prefix.

        Emission order is preserved: matching buckets hold ascending
        record positions, so a k-way merge restores the global order
        without touching non-matching records.
        """
        self._flush()
        if category is None:
            return self._records[self._dead:]
        buckets = self._matching_buckets(category)
        if not buckets:
            return []
        if len(buckets) == 1:
            positions: Iterable[int] = buckets[0]
        else:
            positions = heapq.merge(*buckets)
        return [self._record_at(i) for i in positions]

    def iter_between(
        self, start: float, end: float, category: Optional[str] = None
    ) -> Iterator[TraceRecord]:
        """Yield records with ``start <= time < end`` (prefix-filtered)."""
        self._flush()
        return self._iter_between(start, end, category)

    def _iter_between(
        self, start: float, end: float, category: Optional[str]
    ) -> Iterator[TraceRecord]:
        prefix = None if category is None else category + "."
        for i in range(self._dead, len(self._records)):
            r = self._records[i]
            if not (start <= r.time < end):
                continue
            if category is None or r.category == category or r.category.startswith(prefix):  # type: ignore[arg-type]
                yield r

    def count(self, category: Optional[str] = None) -> int:
        """Number of retained records under *category* (prefix match).

        O(#distinct categories) plus any lazy pruning triggered by
        retention, independent of the record count.
        """
        if category is None:
            return len(self)
        self._flush()
        return sum(len(b) for b in self._matching_buckets(category))

    def clear(self) -> None:
        """Drop all records (subscribers stay registered)."""
        self._emitted += len(self._pending)
        self._pending.clear()
        self._records.clear()
        self._buckets.clear()
        self._dead = 0
