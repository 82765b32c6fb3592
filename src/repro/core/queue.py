"""In-place coalescing event queue (paper Section IV-B/IV-D).

The queue is the centerpiece of GraphPulse.  It is organised as a group
of *bins*, each structured like a direct-mapped cache: one storage slot
per vertex, so at most one in-flight event per vertex ever exists.
Inserting an event whose slot is occupied *coalesces* the two payloads
with the algorithm's reduce operator instead of growing the queue —
"compressing the storage of events destined to the same vertex".

The slot is the accumulator.  Each occupied slot holds one queue-owned
entry, and every arrival is folded into it as it is inserted:
``delta = reduce(delta, new)``, ``generation = max``, ``ready = max``.
Arrivals fold in insertion order, so a drained payload is the left fold
of everything that landed in the slot since the last drain.  A message
that coalesces allocates nothing: producers hand :meth:`insert` plain
scalars.

Parity exception.  While a bin-SRAM ``payload_check`` is installed (the
resilience harness's bitflip model), each slot instead keeps the raw
list of stored entries.  The drain sweep checks every entry's parity
before folding, so coalescing can never hide a corrupted payload inside
a merged one.  The queue picks the representation from whether a check
is installed; both drain to the same bits for the same arrivals.

Vertex→slot mapping.  The paper maps a *block* of vertices adjacent in
graph memory to adjacent slots of the same bin (blocks of 128 in
Section V, enabling accurate prefetch), while consecutive blocks spread
over different bins (so graph clusters don't overload one bin):

    block(v) = v // block_size
    bin(v)   = block(v) % num_bins
    slot     = within-block offset + (block(v) // num_bins) * block_size

Within one bin the slot index grows with the vertex id, so sweep order
is vertex order.  Draining a bin therefore yields events sorted by
vertex id in blocks of spatially-adjacent vertices — the property the
scheduler and prefetcher exploit ("when events from a bin are
scheduled, the set of vertices activated over a short period of time
are closely placed in memory").

This class models the queue's *semantics and occupancy*; the cycle-level
wrapper in :mod:`repro.core.accelerator` adds the 4-stage coalescer
pipeline timing, row-port conflicts and drain bandwidth on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import QueueCapacityError
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from .event import Event

__all__ = ["CoalescingQueue", "QueueStats", "VertexBinMap"]


@dataclass
class QueueStats:
    """Counters used by the Figure 4 experiment and capacity planning."""

    inserted: int = 0  #: events pushed into the queue (pre-coalescing)
    coalesced: int = 0  #: insertions absorbed into an existing event
    drained: int = 0  #: events handed to the scheduler
    peak_occupancy: int = 0  #: max simultaneous unique events
    discarded: int = 0  #: payloads rejected by the parity check at drain

    @property
    def coalesce_rate(self) -> float:
        """Fraction of insertions eliminated by coalescing."""
        return self.coalesced / self.inserted if self.inserted else 0.0


class VertexBinMap:
    """Pure mapping from vertex ids to (bin, slot) pairs."""

    def __init__(self, num_vertices: int, num_bins: int, block_size: int):
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_vertices = num_vertices
        self.num_bins = num_bins
        self.block_size = block_size

    def bin_of(self, vertex: int) -> int:
        return (vertex // self.block_size) % self.num_bins

    def slot_of(self, vertex: int) -> int:
        block = vertex // self.block_size
        return (block // self.num_bins) * self.block_size + (
            vertex % self.block_size
        )

    def vertices_of_bin(self, bin_index: int) -> Iterator[int]:
        """All vertices mapped to a bin, in slot (sweep) order."""
        block = bin_index
        while block * self.block_size < self.num_vertices:
            start = block * self.block_size
            stop = min(start + self.block_size, self.num_vertices)
            yield from range(start, stop)
            block += self.num_bins


class CoalescingQueue:
    """Binned, direct-mapped, in-place coalescing event store."""

    def __init__(
        self,
        num_vertices: int,
        reduce_fn: Callable[[float, float], float],
        *,
        num_bins: int = 64,
        block_size: int = 128,
        capacity_vertices: Optional[int] = None,
    ):
        """
        Parameters
        ----------
        num_vertices:
            Size of the vertex space the queue must cover.
        reduce_fn:
            The algorithm's reduce operator, used to coalesce payloads.
        num_bins:
            Number of collector bins (64 in the paper's 64MB queue; the
            Figure 8 experiment uses 256).
        block_size:
            Vertices per spatial block (128 in Section V).
        capacity_vertices:
            Maximum vertex ids representable — the direct-mapped storage
            limit that forces slicing for large graphs (Section IV-F).
            Defaults to unlimited (functional modelling).
        """
        if capacity_vertices is not None and num_vertices > capacity_vertices:
            raise QueueCapacityError(num_vertices, capacity_vertices)
        self.mapping = VertexBinMap(num_vertices, num_bins, block_size)
        self.reduce_fn = reduce_fn
        self._block_size = block_size
        # vertex -> slot: one queue-owned folded Event, or the raw list
        # of stored entries while a payload check is installed
        self._bins: List[Dict[int, Any]] = [dict() for _ in range(num_bins)]
        self._size = 0
        self.stats = QueueStats()
        #: optional bin-SRAM parity check, run per stored entry by the
        #: drain sweep *before* coalescing (a corrupted payload must not
        #: be laundered into a merged event).  Returning False discards
        #: the entry.  Installed by the resilience harness before the
        #: first insert; while set, slots keep their raw entries.
        self.payload_check: Optional[Callable[[Event], bool]] = None

    # ------------------------------------------------------------------
    @property
    def num_bins(self) -> int:
        return self.mapping.num_bins

    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    @property
    def occupancy(self) -> int:
        """Unique vertices with pending events (watchdog diagnostics)."""
        return self._size

    def bin_occupancy(self, bin_index: int) -> int:
        return len(self._bins[bin_index])

    # ------------------------------------------------------------------
    def _fold(
        self, entry: Event, delta: float, generation: int, ready: int
    ) -> None:
        """Coalesce one arrival into a queue-owned slot entry.

        The payload merges through the reduce operator; generation and
        readiness take the max (the compounded payload is as far ahead
        as its most advanced contributor, and fully in place only once
        every insertion completed).
        """
        entry.delta = self.reduce_fn(entry.delta, delta)
        if generation > entry.generation:
            entry.generation = generation
        if ready > entry.ready:
            entry.ready = ready

    def _folded(self, entries: Sequence[Event]) -> Event:
        """A fresh event holding the left fold of ``entries``."""
        first = entries[0]
        entry = Event(first.vertex, first.delta, first.generation, first.ready)
        for other in entries[1:]:
            self._fold(entry, other.delta, other.generation, other.ready)
        return entry

    def insert(
        self, vertex: int, delta: float, generation: int = 0, ready: int = 0
    ) -> bool:
        """Insert one message, coalescing it into its slot.

        An arrival at an empty slot claims it with a queue-owned entry;
        an arrival at an occupied slot is folded into that entry on the
        spot (under a parity check it is stored raw instead, see the
        module docs).  Returns True when the message coalesced (no
        occupancy growth), False when it claimed an empty slot.
        """
        self.stats.inserted += 1
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter("queue.inserted").inc()
        bin_index = (vertex // self._block_size) % len(self._bins)
        bucket = self._bins[bin_index]
        slot = bucket.get(vertex)
        if slot is None:
            entry = Event(vertex, delta, generation, ready)
            bucket[vertex] = entry if self.payload_check is None else [entry]
            self._size += 1
            if self._size > self.stats.peak_occupancy:
                self.stats.peak_occupancy = self._size
            if obs_trace.ACTIVE is not None:
                probe.queue_insert(vertex, bin_index, ready, False)
            return False
        if self.payload_check is None:
            self._fold(slot, delta, generation, ready)
        else:
            slot.append(Event(vertex, delta, generation, ready))
        self.stats.coalesced += 1
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter("queue.coalesced").inc()
        if obs_trace.ACTIVE is not None:
            probe.queue_insert(vertex, bin_index, ready, True)
        return True

    def insert_event(self, event: Event) -> bool:
        """:meth:`insert` for a caller-held event.

        The queue stores a copy, never ``event`` itself, so later folds
        cannot mutate an object the caller still holds.  The copy keeps
        the event's parity tag while a payload check is installed.
        """
        coalesced = self.insert(
            event.vertex, event.delta, event.generation, event.ready
        )
        if self.payload_check is not None and getattr(
            event, "_parity_bad", False
        ):
            bucket = self._bins[self.mapping.bin_of(event.vertex)]
            bucket[event.vertex][-1]._parity_bad = True  # type: ignore[attr-defined]
        return coalesced

    def peek_bin(self, bin_index: int) -> List[Event]:
        """Copies of a bin's coalesced events, in sweep order, not removed."""
        bucket = self._bins[bin_index]
        if self.payload_check is None:
            return [self._copy_event(bucket[v]) for v in sorted(bucket)]
        return [self._folded(bucket[v]) for v in sorted(bucket)]

    def drain_bin(self, bin_index: int) -> List[Event]:
        """Remove and return a bin's events in sweep order.

        Models the row-sweep removal: "a full row is read in each cycle
        and the events are placed in an output buffer", bins visited
        round-robin.  Because slots coalesce, at most one event per
        vertex is ever returned per drain — the guarantee that makes
        vertex updates atomic without locks.  The returned events belong
        to the caller; the queue keeps no reference to them.
        """
        bucket = self._bins[bin_index]
        if not bucket:
            return []
        check = self.payload_check
        if check is None:
            events = [bucket[v] for v in sorted(bucket)]
        else:
            events = []
            for vertex in sorted(bucket):
                entries = bucket[vertex]
                # the parity read happens as the sweep lifts each stored
                # entry, before coalescing can launder a corrupted payload
                kept = [e for e in entries if check(e)]
                self.stats.discarded += len(entries) - len(kept)
                if kept:
                    events.append(self._folded(kept))
        self._size -= len(bucket)
        bucket.clear()
        self.stats.drained += len(events)
        if obs_metrics.ACTIVE is not None and events:
            obs_metrics.ACTIVE.counter("queue.drained").inc(len(events))
        return events

    def drain_all(self) -> List[Event]:
        """Drain every bin in order (used when swapping slices out)."""
        out: List[Event] = []
        for b in range(self.num_bins):
            out.extend(self.drain_bin(b))
        return out

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    @staticmethod
    def _copy_event(event: Event) -> Event:
        copy = Event(
            vertex=event.vertex,
            delta=event.delta,
            generation=event.generation,
            ready=event.ready,
        )
        # preserve the parity tag: a corrupted payload captured in a
        # checkpoint must still fail parity after a rollback
        if getattr(event, "_parity_bad", False):
            copy._parity_bad = True  # type: ignore[attr-defined]
        return copy

    def snapshot(self) -> List[List[Event]]:
        """Deep copy of the slot contents, one group per occupied slot.

        While a payload check is installed a group is the slot's raw
        entries, so per-entry parity tags survive a checkpoint/rollback
        round trip; otherwise it is the slot's one folded entry.
        """
        raw = self.payload_check is not None
        return [
            [self._copy_event(e) for e in (slot if raw else (slot,))]
            for bucket in self._bins
            for slot in (bucket[v] for v in sorted(bucket))
        ]

    def clear(self) -> None:
        """Drop all pending events (occupancy returns to zero)."""
        for bucket in self._bins:
            bucket.clear()
        self._size = 0

    def restore(self, snapshot: List[List[Event]]) -> None:
        """Replace the queue contents with a :meth:`snapshot`.

        The snapshot itself is copied again so it can be restored more
        than once.  A multi-entry group (a snapshot taken under a parity
        check) is folded left in order unless a check is installed now.
        Statistics keep accumulating across the rollback (the work done
        before the rollback really happened).
        """
        self.clear()
        raw = self.payload_check is not None
        for entries in snapshot:
            vertex = entries[0].vertex
            self._bins[self.mapping.bin_of(vertex)][vertex] = (
                [self._copy_event(e) for e in entries]
                if raw
                else self._folded(entries)
            )
            self._size += 1
        if self._size > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._size

    def __iter__(self) -> Iterator[Event]:
        for b in range(self.num_bins):
            yield from self.peek_bin(b)
