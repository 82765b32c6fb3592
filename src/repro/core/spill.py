"""Off-chip spill buffers of the sliced engines (paper Section IV-F).

Events produced for a vertex of an inactive slice wait off chip until
that slice is next activated: "the outbound events to each slice fill a
DRAM page with burst-write".  Like the on-chip queue, the buffers
coalesce on arrival, so a slice's buffer holds at most one event per
vertex: ``delta = reduce(delta, new)`` and ``generation = max``, folded
left in arrival order.  Spilled messages are untimed (their ready cycle
is always zero), so no ready column is kept.

Layout.  A spilled vertex always belongs to exactly one slice, the one
that owns it (``partition.slice_of_vertex``): cross-slice messages go to
the destination's owner, and the swap-out residue, the seeds and the
repairs go to their own vertex's slice.  One set of columns over global
vertex ids therefore holds every slice's buffer: ``array('d')`` deltas,
``array('q')`` generations and a ``bytearray`` occupancy map, with
:func:`numpy.frombuffer` views of the same memory.  Each slice also keeps
the order in which its vertices first arrived.

Arrival order is load-bearing.  :meth:`SpillBuffers.take` hands a
slice's inbound back in first-arrival order; that decides the insertion
order of the activation that consumes it (and, under a resilience
harness, the draw order of the fault streams), and it is the order a
checkpoint snapshot records and a journal replay rebuilds.

Folding.  :meth:`SpillBuffers.absorb_many` takes a batch of messages in
emission order.  The first message for an empty slot claims it; the rest
fold through ``reduce_ufunc.at`` and ``np.maximum.at``, which apply
repeated indices in index order — the same left fold as absorbing the
messages one at a time, bit for bit (the merge stage of
:meth:`repro.core.queue.CoalescingQueue.insert_many`).  Without a reduce
ufunc every message folds through the scalar ``reduce``.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import CheckpointCorruptError
from .event import Event

__all__ = ["SpillBuffers", "SpillColumns", "journal_spills"]


class SpillColumns:
    """A batch of spilled messages as columns, in order.

    ``len()`` is the number of messages.  The batch is what a slice
    activation consumes (:meth:`SpillBuffers.take`) and what a
    multi-process worker ships back as its outbound stream.
    """

    __slots__ = ("vertices", "deltas", "generations")

    def __init__(
        self,
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
    ):
        self.vertices = vertices  #: int64
        self.deltas = deltas  #: float64
        self.generations = generations  #: int64

    def __len__(self) -> int:
        return len(self.vertices)

    def events(self) -> List[Event]:
        """The messages as caller-owned :class:`Event` objects."""
        return [
            Event(vertex, delta, generation)
            for vertex, delta, generation in zip(
                self.vertices.tolist(),
                self.deltas.tolist(),
                self.generations.tolist(),
            )
        ]

    @classmethod
    def concat(cls, parts: List["SpillColumns"]) -> "SpillColumns":
        """The batches one after another, in the given order."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        return cls(
            np.concatenate([p.vertices for p in parts]),
            np.concatenate([p.deltas for p in parts]),
            np.concatenate([p.generations for p in parts]),
        )


def journal_spills(
    writer,
    owner: np.ndarray,
    vertices: np.ndarray,
    deltas: np.ndarray,
    generations: np.ndarray,
) -> None:
    """Append one SPILL record per message, in order, to a spill WAL.

    ``writer`` is anything with the GPJL ``spill(slice, vertex,
    generation, delta)`` method; each record names the message's owning
    slice.
    """
    spill = writer.spill
    for slice_index, vertex, generation, delta in zip(
        owner[vertices].tolist(),
        vertices.tolist(),
        generations.tolist(),
        deltas.tolist(),
    ):
        spill(slice_index, vertex, generation, delta)


class SpillBuffers:
    """Every slice's coalescing spill buffer, as one column store."""

    def __init__(
        self,
        owner: np.ndarray,
        num_slices: int,
        reduce_fn: Callable[[float, float], float],
        reduce_ufunc: Optional[np.ufunc] = None,
    ):
        """
        Parameters
        ----------
        owner:
            The vertex -> slice map (``partition.slice_of_vertex``).
        num_slices:
            Number of slices, one buffer each.
        reduce_fn, reduce_ufunc:
            The algorithm's reduce operator and, optionally, the numpy
            ufunc equal to it (:attr:`AlgorithmSpec.reduce_ufunc`).
            Without the ufunc every message folds through ``reduce_fn``.
        """
        num_vertices = len(owner)
        self._owner = owner
        self.num_slices = num_slices
        self.reduce_fn = reduce_fn
        self.reduce_ufunc = reduce_ufunc
        self._delta = array("d", bytes(8 * num_vertices))
        self._generation = array("q", bytes(8 * num_vertices))
        self._occupied = bytearray(num_vertices)
        self._delta_view = np.frombuffer(self._delta, dtype=np.float64)
        self._generation_view = np.frombuffer(self._generation, dtype=np.int64)
        self._occupied_view = np.frombuffer(self._occupied, dtype=np.uint8)
        #: per slice, chunks of vertex ids in first-arrival order
        self._arrivals: List[List[np.ndarray]] = [[] for _ in range(num_slices)]
        self._sizes = [0] * num_slices

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not any(self._sizes)

    def size(self, slice_index: int) -> int:
        """Pending vertices in one slice's buffer."""
        return self._sizes[slice_index]

    # the queue-shaped interface the watchdog diagnostic and the
    # checkpoint capture expect: each slice's buffer is one "bin"
    @property
    def num_bins(self) -> int:
        return self.num_slices

    @property
    def occupancy(self) -> int:
        return sum(self._sizes)

    def peek_bin(self, index: int) -> List[Event]:
        """Copies of one slice's pending events, by vertex id."""
        return self._columns(np.sort(self._pending(index))).events()

    # ------------------------------------------------------------------
    def _pending(self, slice_index: int) -> np.ndarray:
        """One slice's pending vertices in first-arrival order."""
        chunks = self._arrivals[slice_index]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def _columns(self, vertices: np.ndarray) -> SpillColumns:
        """Copies of the given slots' payloads."""
        return SpillColumns(
            vertices,
            self._delta_view[vertices],
            self._generation_view[vertices],
        )

    def _arrive(self, slots: np.ndarray) -> None:
        """Append newly claimed vertices, in order, to their slices."""
        owners = self._owner[slots]
        counts = np.bincount(owners, minlength=self.num_slices)
        present = np.flatnonzero(counts).tolist()
        for slice_index in present:
            self._arrivals[slice_index].append(
                slots if len(present) == 1 else slots[owners == slice_index]
            )
            self._sizes[slice_index] += int(counts[slice_index])

    def absorb_many(
        self,
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
    ) -> None:
        """Fold a batch of messages, in order, into the owners' buffers.

        Equivalent to absorbing each message in turn: the first message
        for an empty slot claims it (and fixes its place in the slice's
        arrival order), every later one folds into it.
        """
        count = len(vertices)
        if not count:
            return
        if self.reduce_ufunc is None:
            self._absorb_one_by_one(vertices, deltas, generations)
            return
        fresh = np.flatnonzero(self._occupied_view[vertices] == 0)
        claimed = 0
        if len(fresh):
            # first occurrences, back in emission order
            firsts = np.sort(
                fresh[np.unique(vertices[fresh], return_index=True)[1]]
            )
            slots = vertices[firsts]
            claimed = len(slots)
            self._occupied_view[slots] = 1
            self._delta_view[slots] = deltas[firsts]
            self._generation_view[slots] = generations[firsts]
            self._arrive(slots)
            if claimed < count:
                rest = np.ones(count, dtype=bool)
                rest[firsts] = False
                vertices = vertices[rest]
                deltas = deltas[rest]
                generations = generations[rest]
        if claimed < count:
            # silent IEEE overflow/NaN, like the scalar reduce
            with np.errstate(all="ignore"):
                self.reduce_ufunc.at(self._delta_view, vertices, deltas)
            np.maximum.at(self._generation_view, vertices, generations)

    def _absorb_one_by_one(
        self,
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
    ) -> None:
        occupied, delta, generation = (
            self._occupied,
            self._delta,
            self._generation,
        )
        reduce_fn = self.reduce_fn
        claimed: List[int] = []
        for v, d, g in zip(
            vertices.tolist(), deltas.tolist(), generations.tolist()
        ):
            if occupied[v]:
                delta[v] = reduce_fn(delta[v], d)
                if g > generation[v]:
                    generation[v] = g
            else:
                occupied[v] = 1
                delta[v] = d
                generation[v] = g
                claimed.append(v)
        if claimed:
            self._arrive(np.array(claimed, dtype=np.int64))

    def take(self, slice_index: int) -> SpillColumns:
        """Remove and return one slice's buffer, in first-arrival order."""
        vertices = self._pending(slice_index)
        self._arrivals[slice_index] = []
        self._sizes[slice_index] = 0
        self._occupied_view[vertices] = 0
        return self._columns(vertices)

    # ------------------------------------------------------------------
    # Checkpoint support: the ``List[Dict[int, Event]]`` spill snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[int, Event]]:
        """Copies of every slice's buffer, one dict per slice, each in
        first-arrival order."""
        return [
            {e.vertex: e for e in self._columns(self._pending(s)).events()}
            for s in range(self.num_slices)
        ]

    def clear(self) -> None:
        """Drop every pending message."""
        self._occupied_view[:] = 0
        self._arrivals = [[] for _ in range(self.num_slices)]
        self._sizes = [0] * self.num_slices

    def restore(self, snapshot: List[Dict[int, Event]]) -> None:
        """Replace the contents with a :meth:`snapshot` (or a journal
        replay of the same shape); dict order becomes arrival order."""
        self.clear()
        for slice_index, bucket in enumerate(snapshot):
            if not bucket:
                continue
            vertices = np.fromiter(bucket, dtype=np.int64, count=len(bucket))
            stray = vertices[self._owner[vertices] != slice_index]
            if len(stray):
                raise CheckpointCorruptError(
                    f"spill snapshot files vertex {int(stray[0])} under "
                    f"slice {slice_index}, which does not own it",
                    slice=slice_index,
                    vertex=int(stray[0]),
                )
            events = bucket.values()
            self._delta_view[vertices] = [e.delta for e in events]
            self._generation_view[vertices] = [e.generation for e in events]
            self._occupied_view[vertices] = 1
            self._arrivals[slice_index].append(vertices)
            self._sizes[slice_index] = len(vertices)
