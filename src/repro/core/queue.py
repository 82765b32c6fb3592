"""In-place coalescing event queue (paper Section IV-B/IV-D).

The queue is the centerpiece of GraphPulse.  It is organised as a group
of *bins*, each structured like a direct-mapped cache: one storage slot
per vertex, so at most one in-flight event per vertex ever exists.
Inserting an event whose slot is occupied *coalesces* the two payloads
with the algorithm's reduce operator instead of growing the queue —
"compressing the storage of events destined to the same vertex".

The slot is the accumulator.  Every arrival is folded into its slot as
it is inserted: ``delta = reduce(delta, new)``, ``generation = max``,
``ready = max``.  Arrivals fold in insertion order, so a drained payload
is the left fold of everything that landed in the slot since the last
drain.

Slot columns.  The slots are stored as columns indexed by vertex id:
``array('d')`` deltas, ``array('q')`` generations and ready cycles, and
a ``bytearray`` occupancy map, plus :func:`numpy.frombuffer` views of
the same memory.  Two access paths share them:

- :meth:`insert` folds one message through the scalar ``reduce``,
  indexing the ``array`` objects at Python speed (the cycle engine's
  per-message path, and every path under a payload check);
- :meth:`insert_many` folds a whole batch through the views with
  ``reduce_ufunc.at``.  ``ufunc.at`` applies repeated indices in index
  order, so a batch laid out in emission order gives each slot the same
  left fold as inserting the messages one by one.

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

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import QueueCapacityError
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from .event import Event

__all__ = [
    "BinDrain",
    "CoalescingQueue",
    "QueueStats",
    "VertexBinMap",
    "first_arrivals",
    "first_arrival_scratch",
]

#: an empty entry of a first-arrival scratch column: above every position
_NO_ARRIVAL = np.iinfo(np.int64).max


def first_arrival_scratch(size: int) -> np.ndarray:
    """A scratch column for :func:`first_arrivals` over keys ``< size``."""
    return np.full(size, _NO_ARRIVAL, dtype=np.int64)


def first_arrivals(keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Positions of each key's first occurrence in ``keys``, ascending.

    The positions ``np.unique(keys, return_index=True)`` returns, in
    position order and without a sort: ``np.minimum.at`` scatters every
    position into ``scratch`` (an int64 column indexed by key, empty
    everywhere, see :func:`first_arrival_scratch`), a position is a
    first arrival where it equals its key's minimum, and the entries of
    the keys seen are reset to empty, so the column serves the next
    batch.  O(len(keys)) work besides the scratch column itself.
    """
    positions = np.arange(len(keys), dtype=np.int64)
    np.minimum.at(scratch, keys, positions)
    firsts = (scratch[keys] == positions).nonzero()[0]
    scratch[keys[firsts]] = _NO_ARRIVAL
    return firsts


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
    """Pure mapping from vertex ids to (bin, slot) pairs.

    The bin-to-vertex sweep order is built once, with numpy, when the
    map is made.  Engines that build many queues over the same vertex
    space (one per slice activation) hand every queue the same map.
    """

    def __init__(self, num_vertices: int, num_bins: int, block_size: int):
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_vertices = num_vertices
        self.num_bins = num_bins
        self.block_size = block_size
        # vertex ids padded to whole rows of blocks: row r holds blocks
        # r*num_bins .. r*num_bins + num_bins - 1, so column b lists the
        # blocks of bin b in slot order
        blocks = -(-num_vertices // block_size)
        rows = -(-blocks // num_bins)
        grid = (
            np.arange(rows * num_bins * block_size, dtype=np.int64)
            .reshape(rows, num_bins, block_size)
            .transpose(1, 0, 2)
            .reshape(num_bins, rows * block_size)
        )
        grid.flags.writeable = False
        self._sweep = [
            row[: int(np.searchsorted(row, num_vertices))] for row in grid
        ]

    def bin_of(self, vertex):
        """Bin of a vertex id (or, elementwise, of an id array)."""
        return (vertex // self.block_size) % self.num_bins

    def slot_of(self, vertex: int) -> int:
        block = vertex // self.block_size
        return (block // self.num_bins) * self.block_size + (
            vertex % self.block_size
        )

    def sweep(self, bin_index: int) -> np.ndarray:
        """The vertices of a bin in slot (sweep) order, as a read-only
        int64 array shared by every queue using this map."""
        return self._sweep[bin_index]

    def vertices_of_bin(self, bin_index: int) -> Iterator[int]:
        """All vertices mapped to a bin, in slot (sweep) order."""
        return iter(self._sweep[bin_index].tolist())


class BinDrain(NamedTuple):
    """One drained bin as columns, in sweep order (ascending vertex)."""

    vertices: np.ndarray  #: int64
    deltas: np.ndarray  #: float64
    generations: np.ndarray  #: int64
    ready: np.ndarray  #: int64

    def events(self) -> List[Event]:
        """The drained payloads as caller-owned :class:`Event` objects."""
        return [
            Event(vertex, delta, generation, ready)
            for vertex, delta, generation, ready in zip(
                self.vertices.tolist(),
                self.deltas.tolist(),
                self.generations.tolist(),
                self.ready.tolist(),
            )
        ]

    @classmethod
    def of(cls, events: Sequence[Event]) -> "BinDrain":
        return cls(
            np.array([e.vertex for e in events], dtype=np.int64),
            np.array([e.delta for e in events], dtype=np.float64),
            np.array([e.generation for e in events], dtype=np.int64),
            np.array([e.ready for e in events], dtype=np.int64),
        )


_EMPTY_DRAIN = BinDrain.of(())
for _column in _EMPTY_DRAIN:
    _column.flags.writeable = False


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
        reduce_ufunc: Optional[np.ufunc] = None,
        mapping: Optional[VertexBinMap] = None,
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
        reduce_ufunc:
            The numpy ufunc equal to ``reduce_fn``
            (:attr:`AlgorithmSpec.reduce_ufunc`).  Without it
            :meth:`insert_many` folds message by message.
        mapping:
            A prebuilt :class:`VertexBinMap` of the same geometry, shared
            so its sweep order is built once per engine.
        """
        if capacity_vertices is not None and num_vertices > capacity_vertices:
            raise QueueCapacityError(num_vertices, capacity_vertices)
        if mapping is None:
            mapping = VertexBinMap(num_vertices, num_bins, block_size)
        elif (mapping.num_vertices, mapping.num_bins, mapping.block_size) != (
            num_vertices,
            num_bins,
            block_size,
        ):
            raise ValueError("mapping geometry does not match the queue")
        self.mapping = mapping
        self.reduce_fn = reduce_fn
        self.reduce_ufunc = reduce_ufunc
        self._block_size = block_size
        self._num_bins = num_bins
        # the slot columns, indexed by vertex id, and numpy views of them
        self._delta = array("d", bytes(8 * num_vertices))
        self._generation = array("q", bytes(8 * num_vertices))
        self._ready = array("q", bytes(8 * num_vertices))
        self._occupied = bytearray(num_vertices)
        self._delta_view = np.frombuffer(self._delta, dtype=np.float64)
        self._generation_view = np.frombuffer(self._generation, dtype=np.int64)
        self._ready_view = np.frombuffer(self._ready, dtype=np.int64)
        self._occupied_view = np.frombuffer(self._occupied, dtype=np.uint8)
        self._bin_size = [0] * num_bins
        #: :func:`first_arrivals` scratch, allocated by the first batch
        self._first_scratch: Optional[np.ndarray] = None
        #: vertex -> raw stored entries, only while a payload check is
        #: installed (the columns then track occupancy alone)
        self._raw: Dict[int, List[Event]] = {}
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
        return self._num_bins

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
        return self._bin_size[bin_index]

    # ------------------------------------------------------------------
    def _folded(self, entries: Sequence[Event]) -> Event:
        """A fresh event holding the left fold of ``entries``.

        The payload merges through the reduce operator; generation and
        readiness take the max (the compounded payload is as far ahead
        as its most advanced contributor, and fully in place only once
        every insertion completed).
        """
        first = entries[0]
        delta, generation, ready = first.delta, first.generation, first.ready
        for other in entries[1:]:
            delta = self.reduce_fn(delta, other.delta)
            if other.generation > generation:
                generation = other.generation
            if other.ready > ready:
                ready = other.ready
        return Event(first.vertex, delta, generation, ready)

    def _claim(
        self, vertex: int, delta: float, generation: int, ready: int
    ) -> None:
        """Occupy an empty slot with its first payload."""
        self._occupied[vertex] = 1
        self._delta[vertex] = delta
        self._generation[vertex] = generation
        self._ready[vertex] = ready
        self._bin_size[(vertex // self._block_size) % self._num_bins] += 1
        self._size += 1

    def insert(
        self, vertex: int, delta: float, generation: int = 0, ready: int = 0
    ) -> bool:
        """Insert one message, coalescing it into its slot.

        An arrival at an empty slot claims it; an arrival at an occupied
        slot is folded into it on the spot (under a parity check it is
        stored raw instead, see the module docs).  Returns True when the
        message coalesced (no occupancy growth), False when it claimed
        an empty slot.
        """
        self.stats.inserted += 1
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter("queue.inserted").inc()
        if not self._occupied[vertex]:
            self._claim(vertex, delta, generation, ready)
            if self.payload_check is not None:
                self._raw[vertex] = [Event(vertex, delta, generation, ready)]
            if self._size > self.stats.peak_occupancy:
                self.stats.peak_occupancy = self._size
            if obs_trace.ACTIVE is not None:
                probe.queue_insert(
                    vertex, self.mapping.bin_of(vertex), ready, False
                )
            return False
        if self.payload_check is None:
            deltas = self._delta
            deltas[vertex] = self.reduce_fn(deltas[vertex], delta)
            if generation > self._generation[vertex]:
                self._generation[vertex] = generation
            if ready > self._ready[vertex]:
                self._ready[vertex] = ready
        else:
            self._raw[vertex].append(Event(vertex, delta, generation, ready))
        self.stats.coalesced += 1
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter("queue.coalesced").inc()
        if obs_trace.ACTIVE is not None:
            probe.queue_insert(vertex, self.mapping.bin_of(vertex), ready, True)
        return True

    def insert_many(
        self,
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
        readies: Optional[np.ndarray] = None,
    ) -> None:
        """Insert a batch of messages, in order.

        Equivalent to calling :meth:`insert` on each message in turn,
        with ``readies`` as their ready cycles (the cycle engine's
        insertion completions); without it every message is untimed
        (``ready=0``).  The first message for an empty slot claims it;
        every other message folds through ``reduce_ufunc.at`` and
        ``np.maximum.at``, which apply repeated indices in index order —
        the same left fold, bit for bit.  A zero ready never raises a
        slot's ready, so untimed readies are not folded.  Without a
        reduce ufunc, under a payload check, or while tracing (one probe
        per message), the batch goes through :meth:`insert` one message
        at a time.
        """
        count = len(vertices)
        if not count:
            return
        if (
            self.reduce_ufunc is None
            or self.payload_check is not None
            or obs_trace.ACTIVE is not None
        ):
            insert = self.insert
            for vertex, delta, generation, ready in zip(
                vertices.tolist(),
                deltas.tolist(),
                generations.tolist(),
                [0] * count if readies is None else readies.tolist(),
            ):
                insert(vertex, delta, generation, ready)
            return
        occupied = self._occupied_view
        fresh = (occupied[vertices] == 0).nonzero()[0]
        claimed = 0
        if len(fresh):
            if self._first_scratch is None:
                self._first_scratch = first_arrival_scratch(len(occupied))
            firsts = fresh[
                first_arrivals(vertices[fresh], self._first_scratch)
            ]
            slots = vertices[firsts]
            claimed = len(slots)
            occupied[slots] = 1
            self._delta_view[slots] = deltas[firsts]
            self._generation_view[slots] = generations[firsts]
            self._ready_view[slots] = 0 if readies is None else readies[firsts]
            per_bin = np.bincount(
                self.mapping.bin_of(slots), minlength=self._num_bins
            )
            bin_size = self._bin_size
            for bin_index in per_bin.nonzero()[0].tolist():
                bin_size[bin_index] += int(per_bin[bin_index])
            self._size += claimed
            if claimed < count:
                rest = np.ones(count, dtype=bool)
                rest[firsts] = False
                vertices = vertices[rest]
                deltas = deltas[rest]
                generations = generations[rest]
                if readies is not None:
                    readies = readies[rest]
        if claimed < count:
            # silent IEEE overflow/NaN, like the scalar reduce
            with np.errstate(all="ignore"):
                self.reduce_ufunc.at(self._delta_view, vertices, deltas)
            np.maximum.at(self._generation_view, vertices, generations)
            if readies is not None:
                np.maximum.at(self._ready_view, vertices, readies)
        stats = self.stats
        stats.inserted += count
        stats.coalesced += count - claimed
        if self._size > stats.peak_occupancy:
            stats.peak_occupancy = self._size
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter("queue.inserted").inc(count)
            if claimed < count:
                obs_metrics.ACTIVE.counter("queue.coalesced").inc(
                    count - claimed
                )

    def insert_event(self, event: Event) -> bool:
        """:meth:`insert` for a caller-held event.

        The queue keeps no reference to ``event``, so later folds cannot
        mutate an object the caller still holds.  The stored copy keeps
        the event's parity tag while a payload check is installed.
        """
        coalesced = self.insert(
            event.vertex, event.delta, event.generation, event.ready
        )
        if self.payload_check is not None and getattr(
            event, "_parity_bad", False
        ):
            self._raw[event.vertex][-1]._parity_bad = True  # type: ignore[attr-defined]
        return coalesced

    # ------------------------------------------------------------------
    def _occupied_in(self, bin_index: int) -> np.ndarray:
        """The occupied vertices of a bin, in sweep order."""
        sweep = self.mapping.sweep(bin_index)
        return sweep[self._occupied_view[sweep].view(bool)]

    def _slot_events(self, vertices: np.ndarray) -> List[Event]:
        """Folded copies of the given occupied slots."""
        if self.payload_check is not None:
            return [self._folded(self._raw[v]) for v in vertices.tolist()]
        return BinDrain(
            vertices,
            self._delta_view[vertices],
            self._generation_view[vertices],
            self._ready_view[vertices],
        ).events()

    def peek_bin(self, bin_index: int) -> List[Event]:
        """Copies of a bin's coalesced events, in sweep order, not removed."""
        if not self._bin_size[bin_index]:
            return []
        return self._slot_events(self._occupied_in(bin_index))

    def drain_bin_arrays(self, bin_index: int) -> BinDrain:
        """Remove and return a bin's events as columns, in sweep order.

        Models the row-sweep removal: "a full row is read in each cycle
        and the events are placed in an output buffer", bins visited
        round-robin.  Because slots coalesce, at most one event per
        vertex is ever returned per drain — the guarantee that makes
        vertex updates atomic without locks.  The columns are copies;
        the queue keeps no reference to them.
        """
        if not self._bin_size[bin_index]:
            return _EMPTY_DRAIN
        vertices = self._occupied_in(bin_index)
        self._occupied_view[vertices] = 0
        self._bin_size[bin_index] = 0
        self._size -= len(vertices)
        check = self.payload_check
        if check is None:
            drained = BinDrain(
                vertices,
                self._delta_view[vertices],
                self._generation_view[vertices],
                self._ready_view[vertices],
            )
        else:
            kept_events = []
            for vertex in vertices.tolist():
                entries = self._raw.pop(vertex)
                # the parity read happens as the sweep lifts each stored
                # entry, before coalescing can launder a corrupted payload
                kept = [e for e in entries if check(e)]
                self.stats.discarded += len(entries) - len(kept)
                if kept:
                    kept_events.append(self._folded(kept))
            drained = BinDrain.of(kept_events)
        count = len(drained.vertices)
        self.stats.drained += count
        if obs_metrics.ACTIVE is not None and count:
            obs_metrics.ACTIVE.counter("queue.drained").inc(count)
        return drained

    def drain_bin(self, bin_index: int) -> List[Event]:
        """:meth:`drain_bin_arrays` as caller-owned :class:`Event` objects."""
        return self.drain_bin_arrays(bin_index).events()

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
        groups: List[List[Event]] = []
        for b in range(self.num_bins):
            if not self._bin_size[b]:
                continue
            vertices = self._occupied_in(b)
            if self.payload_check is not None:
                groups.extend(
                    [self._copy_event(e) for e in self._raw[v]]
                    for v in vertices.tolist()
                )
            else:
                groups.extend([e] for e in self._slot_events(vertices))
        return groups

    def clear(self) -> None:
        """Drop all pending events (occupancy returns to zero)."""
        self._occupied_view[:] = 0
        self._bin_size = [0] * self._num_bins
        self._raw.clear()
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
            head = entries[0] if raw else self._folded(entries)
            self._claim(head.vertex, head.delta, head.generation, head.ready)
            if raw:
                self._raw[head.vertex] = [self._copy_event(e) for e in entries]
        if self._size > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._size

    def __iter__(self) -> Iterator[Event]:
        for b in range(self.num_bins):
            yield from self.peek_bin(b)
