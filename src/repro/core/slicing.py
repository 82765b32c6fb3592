"""Large-graph execution via slicing (paper Section IV-F).

When a graph has more vertices than the coalescing queue can map, it is
partitioned offline into slices that each fit on chip.  Slices execute
one at a time; events produced for vertices in other slices are
buffered in off-chip DRAM ("the outbound events to each slice fill a
DRAM page with burst-write") and streamed back in when their slice is
activated.  Because the event model is asynchronous and data-flow, any
interleaving converges to the same fixed point.

The runtime below reproduces that scheme on top of the functional
engine: a round-robin pass over slices, each processing until its local
queue drains, spilling cross-slice events, until no slice has pending
work.  Spill traffic (bytes written + read back) is accounted — it is
the overhead the paper accepts for Twitter-scale graphs.

Dispatch semantics
------------------
``dispatch="barrier"`` (the default) fixes a pass's active set when the
pass starts: every slice drains exactly the events that were pending at
the pass boundary, and outbound spills only become visible at the next
pass.  Because each activation touches only its own slice's vertices,
the slices of one pass are data-independent — which is what lets the
multi-process engine (:mod:`repro.core.mpsliced`) run them genuinely
concurrently and still merge outbound spills in the deterministic
(slice-id, emission-index) order the sequential engine produces.

``dispatch="chained"`` keeps the historical Gauss-Seidel-style schedule
where slice ``k`` sees spills emitted by slices ``< k`` of the same
pass.  It usually converges in fewer passes (information travels
several slice-hops per pass) but serializes the slices by construction.
Both modes converge to the same fixed point; their float trajectories
differ, so bit-identity oracles must compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..errors import NonConvergenceError, QueueCapacityError, ReproError
from ..graph import CSRGraph
from ..graph.partition import Partition, contiguous_partition
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from ..resilience.harness import ResilienceConfig, ResilienceHarness
from ..resilience.watchdog import ProgressWatchdog, build_diagnostic
from .event import Event
from .functional import TrafficCounters, process_bin
from .queue import CoalescingQueue, VertexBinMap

__all__ = [
    "DISPATCH_MODES",
    "SlicedGraphPulse",
    "SlicedResult",
    "SliceActivation",
    "build_sliced",
    "run_sliced",
    "resolve_partition",
    "run_slice_activation",
    "merge_outbound_streams",
    "ParallelSlicedGraphPulse",
    "ParallelSlicedResult",
    "SuperRound",
]

#: slice-schedule modes: ``barrier`` (pass-start active set, outbound
#: merged at the pass barrier) and ``chained`` (slice k sees spills
#: from slices < k of the same pass)
DISPATCH_MODES = ("barrier", "chained")

#: bytes per spilled event: destination id (4 B per the paper's graphs,
#: we keep 8 to match our 64-bit ids) + payload (8 B)
_SPILL_EVENT_BYTES = 16


@dataclass
class SliceActivation:
    """One activation of one slice (a swap-in / process / swap-out)."""

    pass_index: int
    slice_index: int
    events_in: int  #: events streamed in from the spill buffer
    events_processed: int
    events_spilled: int  #: cross-slice events written to DRAM
    rounds: int


@dataclass
class SlicedResult:
    """Output of a sliced run."""

    values: np.ndarray
    activations: List[SliceActivation]
    traffic: TrafficCounters
    spill_bytes_written: int
    spill_bytes_read: int
    converged: bool
    #: resilience activity summary; None unless resilience was enabled
    resilience: Optional[Dict] = None

    @property
    def num_passes(self) -> int:
        if not self.activations:
            return 0
        return self.activations[-1].pass_index + 1

    @property
    def total_rounds(self) -> int:
        """Engine rounds summed over every slice activation."""
        return sum(a.rounds for a in self.activations)

    @property
    def total_spill_bytes(self) -> int:
        return self.spill_bytes_written + self.spill_bytes_read

    def spill_overhead(self) -> float:
        """Spill traffic as a fraction of total off-chip traffic."""
        total = self.traffic.total_bytes_fetched + self.total_spill_bytes
        return self.total_spill_bytes / total if total else 0.0


class _SpillBufferView:
    """Queue-shaped view over the per-slice spill buffers.

    Adapts the sliced runtime's DRAM spill buffers to the duck-typed
    queue interface the watchdog diagnostics and checkpoint capture
    expect (``num_bins`` / ``occupancy`` / ``peek_bin`` / ``snapshot``):
    each slice's buffer plays the role of one bin, so a watchdog
    diagnostic names the stuck *slices* and their pending vertices.
    """

    def __init__(self, spill: List[Dict[int, Event]]):
        self._spill = spill

    @property
    def num_bins(self) -> int:
        return len(self._spill)

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._spill)

    def peek_bin(self, index: int) -> List[Event]:
        bucket = self._spill[index]
        return [bucket[v] for v in sorted(bucket)]

    def snapshot(self) -> List[Dict[int, Event]]:
        return [
            {
                v: Event(
                    vertex=e.vertex,
                    delta=e.delta,
                    generation=e.generation,
                    ready=e.ready,
                )
                for v, e in bucket.items()
            }
            for bucket in self._spill
        ]


def resolve_partition(
    graph: CSRGraph,
    *,
    num_slices: int = 1,
    queue_capacity: Optional[int] = None,
    auto_slice: bool = True,
    partition_fn=contiguous_partition,
) -> Partition:
    """Partition ``graph``, auto-sizing the slice count to the queue.

    The single place the Section IV-F slice-count decision lives: when
    ``queue_capacity`` is given and the largest slice does not fit, the
    raised :class:`repro.errors.QueueCapacityError` names the minimum
    working count (``required_slices``, the single source of truth);
    with ``auto_slice`` the helper retries once with that suggestion.
    ``build_sliced``, the multi-process engine, and the CLI all route
    through here, so every caller makes the same deterministic decision.
    """
    num_slices = max(1, int(num_slices))
    partition = partition_fn(graph, num_slices)
    if queue_capacity is None:
        return partition
    largest = max(s.num_vertices for s in partition.slices)
    if largest <= queue_capacity:
        return partition
    exc = QueueCapacityError(graph.num_vertices, queue_capacity)
    if not auto_slice or exc.required_slices <= num_slices:
        raise exc
    partition = partition_fn(graph, exc.required_slices)
    largest = max(s.num_vertices for s in partition.slices)
    if largest > queue_capacity:
        # pathological partitioner (e.g. badly skewed greedy cut):
        # even the suggested count produced an oversized slice
        raise QueueCapacityError(graph.num_vertices, queue_capacity)
    return partition


# ----------------------------------------------------------------------
# The slice-activation kernel, shared by the sequential engine and the
# multi-process workers.  ``emit(target_slice, event)`` receives every
# spilled event — cross-slice spills and the swap-out residue — in
# exactly the order the sequential engine would apply them, which is
# what keeps both execution modes bit-identical.
# ----------------------------------------------------------------------


def run_slice_activation(
    partition: Partition,
    spec: AlgorithmSpec,
    pass_index: int,
    slice_index: int,
    inbound: List[Event],
    state: np.ndarray,
    traffic: TrafficCounters,
    emit: Callable[[int, Event], None],
    *,
    num_bins: int = 64,
    block_size: int = 128,
    rounds_per_activation: Optional[int] = None,
    resilience=None,
    mapping: Optional[VertexBinMap] = None,
) -> Tuple[int, int, int]:
    """Swap one slice in, drain it, emit outbound spills in order.

    Returns ``(events_processed, rounds, events_spilled)``.  The caller
    owns what ``emit`` means: the sequential engine coalesces into its
    in-memory spill buckets and appends to the WAL, a worker process
    appends to the outbound stream it ships back to the supervisor.
    Only the vertices of ``partition.slices[slice_index]`` are read or
    written in ``state`` — the contract that lets the supervisor ship
    workers a single slice's state shard.  ``mapping`` is the engine's
    shared :class:`VertexBinMap`, so activations do not rebuild its
    sweep order.
    """
    graph = partition.graph
    now = float(pass_index)
    queue = CoalescingQueue(
        graph.num_vertices,
        spec.reduce,
        num_bins=num_bins,
        block_size=block_size,
        reduce_ufunc=spec.reduce_ufunc,
        mapping=mapping,
    )
    if resilience is not None:
        plan = resilience.config.fault_plan
        if plan.rate("bitflip") > 0 or "bitflip" in plan.scripted:
            queue.payload_check = lambda event: (
                resilience.payload_ok(event, now)
            )
        for event in inbound:
            for survivor in resilience.filter_insert(event, now):
                queue.insert_event(survivor)
    else:
        for event in inbound:
            queue.insert_event(event)

    spilled = 0

    def spill(target: int, vertex: int, delta: float, generation: int) -> None:
        nonlocal spilled
        spilled += 1
        event = Event(vertex, delta, generation)
        if resilience is not None and resilience.spill_lost(event, now):
            return  # lost in the DRAM spill buffer (not journaled)
        emit(target, event)

    processed = 0
    rounds = 0
    while not queue.is_empty:
        if (
            rounds_per_activation is not None
            and rounds >= rounds_per_activation
        ):
            break
        rounds += 1
        processed += _slice_round(
            partition, spec, slice_index, queue, state, traffic, spill,
            resilience, now,
        )
    # events still queued at swap-out are spilled back to this slice's
    # own buffer
    for event in queue.drain_all():
        emit(slice_index, event)
        spilled += 1
    return processed, rounds, spilled


def _slice_round(
    partition: Partition,
    spec: AlgorithmSpec,
    slice_index: int,
    queue: CoalescingQueue,
    state: np.ndarray,
    traffic: TrafficCounters,
    spill: Callable[[int, int, float, int], None],
    resilience=None,
    now: float = 0.0,
) -> int:
    """One round-robin pass over a slice queue's bins through the
    per-bin kernel; returns the events processed."""
    processed = 0
    for bin_index in range(queue.num_bins):
        drained = queue.drain_bin_arrays(bin_index)
        if not len(drained.vertices):
            continue
        processed += len(drained.vertices)
        process_bin(
            partition.graph,
            spec,
            drained,
            state,
            traffic,
            queue,
            resilience,
            now,
            owner=partition.slice_of_vertex,
            slice_index=slice_index,
            spill=spill,
        )
    return processed


def merge_outbound_streams(streams):
    """Merge per-slice outbound spill streams in deterministic order.

    ``streams`` is an iterable of ``(slice_index, [(target, event), ...])``
    pairs, one per activation of a pass; each inner list preserves the
    emission order of :func:`run_slice_activation`.  Yields every
    ``(target, event)`` sorted by **(slice-id, emission-index)** — the
    exact order a sequential barrier pass (slices activated in slice
    order, spills absorbed as emitted) produces, and therefore the exact
    order the spill journal records and replays.  The multi-process
    supervisor routes worker results through here so coalesced spill
    buffers, journal bytes and final state stay bit-identical to the
    sequential engine no matter how activations interleaved in time.
    """
    for _, outbound in sorted(streams, key=lambda item: item[0]):
        yield from outbound


class SlicedGraphPulse:
    """Multi-slice functional GraphPulse execution.

    Prefer constructing through :func:`repro.core.engines.build_engine`
    (``name="sliced"``); direct construction remains supported for
    callers that need a custom :class:`Partition`.
    """

    #: registry name; subclasses override (the resilience harness keys
    #: journal/tolerance behavior off it)
    ENGINE_NAME = "sliced"

    def __init__(
        self,
        partition: Partition,
        spec: AlgorithmSpec,
        *,
        num_bins: int = 64,
        block_size: int = 128,
        max_passes: int = 10_000,
        rounds_per_activation: Optional[int] = None,
        queue_capacity: Optional[int] = None,
        dispatch: str = "barrier",
        resilience: Optional[ResilienceConfig] = None,
    ):
        """
        Parameters
        ----------
        partition:
            Offline partitioning of the graph (``repro.graph.partition``).
        rounds_per_activation:
            Cap on rounds a slice runs before being swapped out even if
            it still has local events (``None``: drain completely).  A
            small cap trades swap overhead for fairness across slices.
        dispatch:
            Slice schedule within a pass — see the module docstring.
            ``"barrier"`` (default) fixes the active set at pass start;
            ``"chained"`` lets slice ``k`` see same-pass spills from
            slices ``< k``.
        queue_capacity:
            On-chip queue capacity in vertices.  Every slice must fit:
            a partition whose largest slice exceeds this raises
            :class:`repro.errors.QueueCapacityError` naming the number
            of slices that would fit (see :func:`run_sliced`).
        resilience:
            Optional fault-injection / detection / recovery configuration
            (:class:`repro.resilience.ResilienceConfig`).
        """
        self.partition = partition
        self.spec = spec
        self.num_bins = num_bins
        self.block_size = block_size
        self.bin_map = VertexBinMap(
            partition.graph.num_vertices, num_bins, block_size
        )
        self.max_passes = max_passes
        self.rounds_per_activation = rounds_per_activation
        if dispatch not in DISPATCH_MODES:
            raise ReproError(
                f"unknown dispatch mode {dispatch!r}; "
                f"expected one of {', '.join(DISPATCH_MODES)}"
            )
        self.dispatch = dispatch
        if queue_capacity is not None:
            largest = max(s.num_vertices for s in partition.slices)
            if largest > queue_capacity:
                raise QueueCapacityError(
                    partition.graph.num_vertices, queue_capacity
                )
        self._now = 0.0
        self._spill: List[Dict[int, Event]] = []
        self._journal = None  #: SpillJournal on durable runs, else None
        self._resumed = False
        self._start_pass = 0
        self._resume_spill: Optional[List[Dict[int, Event]]] = None
        self.state = spec.initial_state(partition.graph)
        #: journal-replay provenance of the last restore() (or None)
        self.journal_replay: Optional[Dict[str, Any]] = None
        self.resilience: Optional[ResilienceHarness] = None
        if resilience is not None:
            # the additive-invariant residual band scales with how many
            # times a vertex's sub-threshold tail is re-dropped; barrier
            # (Jacobi) dispatch runs roughly twice the passes of the
            # chained (Gauss-Seidel) schedule, so its fault-free band
            # doubles (measured fault-free ratios: chained <= ~3x,
            # barrier <= ~5.2x the per-edge bound on tier-1 workloads)
            self.resilience = ResilienceHarness(
                resilience,
                spec,
                partition.graph,
                self.ENGINE_NAME,
                residual_band=8.0 if self.dispatch == "barrier" else 4.0,
            )

    # ------------------------------------------------------------------
    def restore(self, restored) -> None:
        """Adopt a durable checkpoint; the next ``run`` continues from it.

        The checkpoint's spill snapshot is the restored truth; the spill
        journal is independently replayed up to the commit the
        checkpoint references and cross-checked bit-for-bit (raw f64
        delta bits, generations) against it — a torn or inconsistent
        journal fails loudly instead of silently diverging.  The journal
        is then truncated at that commit so resumed appends continue
        from a clean tail.
        """
        if len(restored.queue_snapshot) != self.partition.num_slices:
            from ..errors import CheckpointCorruptError

            raise CheckpointCorruptError(
                f"checkpoint snapshot has {len(restored.queue_snapshot)} "
                f"slices but the partition has {self.partition.num_slices}",
                snapshot_slices=len(restored.queue_snapshot),
                partition_slices=self.partition.num_slices,
            )
        self.state[:] = restored.state
        self._resume_spill = [
            {
                v: Event(
                    vertex=e.vertex,
                    delta=e.delta,
                    generation=e.generation,
                    ready=e.ready,
                )
                for v, e in bucket.items()
            }
            for bucket in restored.queue_snapshot
        ]
        self._start_pass = restored.round_index
        if self.resilience is not None and restored.fault_cursor:
            self.resilience.injector.restore_cursor(restored.fault_cursor)
        self._verify_and_trim_journal(restored)
        self._resumed = True

    def _verify_and_trim_journal(self, restored) -> None:
        """Replay the WAL to the checkpoint's commit and cross-check it."""
        if self.resilience is None or self.resilience.durable is None:
            return
        import struct

        from ..errors import CheckpointCorruptError
        from ..resilience.journal import SpillJournal

        path = self.resilience.durable.store.journal_path
        scan = SpillJournal.scan(
            path,
            self.partition.num_slices,
            restored.journal_commit,
            self.spec.reduce,
        )
        buffers, offset = scan.buffers, scan.offset

        def bits(value: float) -> bytes:
            return struct.pack("<d", value)

        for slice_index, snap in enumerate(restored.queue_snapshot):
            replayed = buffers[slice_index]
            if set(replayed) != set(snap):
                raise CheckpointCorruptError(
                    f"{path}: journal replay disagrees with checkpoint on "
                    f"slice {slice_index}'s pending vertices",
                    path=str(path),
                    slice=slice_index,
                )
            for vertex, event in snap.items():
                delta, generation = replayed[vertex]
                if bits(delta) != bits(event.delta) or generation != event.generation:
                    raise CheckpointCorruptError(
                        f"{path}: journal replay disagrees with checkpoint "
                        f"on vertex {vertex} (slice {slice_index})",
                        path=str(path),
                        slice=slice_index,
                        vertex=vertex,
                    )
        SpillJournal.truncate(path, offset)
        # recovery provenance for `repro resume --json` (resume_run
        # reads this attr after restore; sliced-mp inherits)
        self.journal_replay = scan.provenance()

    def _journal_spill(self, slice_index: int, event: Event) -> None:
        """WAL one event landing in a spill bucket (no-op when off)."""
        if self._journal is not None:
            self._journal.spill(
                slice_index, event.vertex, event.generation, event.delta
            )

    # ------------------------------------------------------------------
    def _setup_run(self):
        """Shared run preamble: spill buffers, WAL, seed events, watchdog.

        Returns ``(spill, view, watchdog)``; used by both this class and
        the multi-process subclass so resume/journal semantics cannot
        drift between them.
        """
        partition, spec = self.partition, self.spec
        # per-slice spill buffers of inbound events (global vertex ids);
        # coalesced on arrival like the DRAM-page burst buffers would be
        spill: List[Dict[int, Event]] = [
            dict() for _ in range(partition.num_slices)
        ]
        self._spill = spill
        view = _SpillBufferView(spill)
        if self.resilience is not None:
            self._journal = self.resilience.open_journal(partition.num_slices)
        if self._resumed:
            for bucket, snap in zip(spill, self._resume_spill or []):
                bucket.update(snap)
        else:
            for vertex, delta in spec.initial_events(partition.graph).items():
                s = int(partition.slice_of_vertex[vertex])
                spill[s][vertex] = Event(vertex=vertex, delta=delta)
                if self._journal is not None:
                    self._journal.spill(s, vertex, 0, delta)
            if self._journal is not None:
                self._journal.commit(0)
        if self.resilience is not None:
            watchdog = self.resilience.make_watchdog(self.max_passes)
        else:
            watchdog = ProgressWatchdog(self.max_passes)
        return spill, view, watchdog

    def _halt_nonconvergence(self, verdict, watchdog, view) -> None:
        diagnostic = build_diagnostic(
            "sliced", verdict, watchdog.rounds, view
        )
        raise NonConvergenceError(
            f"{self.spec.name} did not converge within "
            f"{self.max_passes} slice passes"
            if verdict == "round-limit"
            else f"{self.spec.name} made no progress (livelock: "
            f"events flow but no state changes)",
            diagnostic,
        )

    def _collect_pass_inbound(
        self, spill: List[Dict[int, Event]]
    ) -> List[Tuple[int, List[Event]]]:
        """Capture and clear every pending bucket at a pass barrier.

        Journal ``consume`` marks are written in slice order before any
        activation runs, so a barrier pass's WAL record stream is
        "consume all active slices, then the outbound spills" — replay
        up to the pass commit reconstructs exactly the pass-start
        buffers, same as it does for the chained schedule.
        """
        batch: List[Tuple[int, List[Event]]] = []
        for slice_index, bucket in enumerate(spill):
            if not bucket:
                continue
            if self._journal is not None:
                self._journal.consume(slice_index)
            spill[slice_index] = {}
            batch.append((slice_index, list(bucket.values())))
        return batch

    def run(self) -> SlicedResult:
        partition, spec = self.partition, self.spec
        state = self.state
        traffic = TrafficCounters()
        activations: List[SliceActivation] = []
        spill_written = 0
        spill_read = 0

        spill, view, watchdog = self._setup_run()

        pass_index = self._start_pass
        try:
            while True:
                while any(spill):
                    verdict = watchdog.verdict()
                    if verdict is not None:
                        self._halt_nonconvergence(verdict, watchdog, view)
                    writes_before = traffic.vertex_writes
                    pass_processed = 0
                    if self.dispatch == "barrier":
                        # active set fixed at the pass boundary: every
                        # pending bucket is consumed before any slice
                        # runs, so same-pass outbound spills land in
                        # fresh buckets and only become visible next
                        # pass — the schedule the concurrent engine
                        # reproduces bit-for-bit
                        batch = self._collect_pass_inbound(spill)
                    else:
                        batch = None
                    for slice_index in range(partition.num_slices):
                        if batch is not None:
                            if not batch or batch[0][0] != slice_index:
                                continue
                            inbound_events = batch.pop(0)[1]
                        else:
                            inbound = spill[slice_index]
                            if not inbound:
                                continue
                            if self._journal is not None:
                                self._journal.consume(slice_index)
                            spill[slice_index] = {}
                            inbound_events = list(inbound.values())
                        spill_read += (
                            len(inbound_events) * _SPILL_EVENT_BYTES
                        )
                        activation = self._activate(
                            pass_index,
                            slice_index,
                            inbound_events,
                            state,
                            traffic,
                            spill,
                        )
                        spill_written += (
                            activation.events_spilled * _SPILL_EVENT_BYTES
                        )
                        activations.append(activation)
                        pass_processed += activation.events_processed
                    if obs_metrics.ACTIVE is not None:
                        obs_metrics.round_tick(
                            "sliced",
                            pass_index,
                            events_processed=pass_processed,
                        )
                    watchdog.observe_round(
                        pass_processed, traffic.vertex_writes - writes_before
                    )
                    pass_index += 1
                    if self._journal is not None:
                        # a pass is the durability unit: everything above
                        # reaches stable storage before the checkpoint
                        # that references this commit can be captured
                        self._journal.commit(pass_index)
                    if self.resilience is not None:
                        self.resilience.maybe_checkpoint(
                            pass_index, float(pass_index), state, view
                        )
                # quiescent invariant sweep: repairs re-populate the spill
                # buffers and the pass loop resumes (see functional.py)
                if self.resilience is None:
                    break
                self.resilience.note_quiescence(float(pass_index))
                if not self.resilience.repair(
                    state,
                    float(pass_index),
                    inject=self._inject_repair,
                    restore=self._restore_checkpoint,
                ):
                    break
        finally:
            if self._journal is not None:
                self._journal.close()
        converged = True

        summary = None
        if self.resilience is not None:
            self.resilience.finalize(float(pass_index))
            summary = self.resilience.summary()
        return SlicedResult(
            values=state,
            activations=activations,
            traffic=traffic,
            spill_bytes_written=spill_written,
            spill_bytes_read=spill_read,
            converged=converged,
            resilience=summary,
        )

    # ------------------------------------------------------------------
    # Resilience callbacks
    # ------------------------------------------------------------------
    def _inject_repair(self, vertex: int, delta: float) -> None:
        """Queue a repair delta into the owning slice's spill buffer."""
        target = int(self.partition.slice_of_vertex[vertex])
        bucket = self._spill[target]
        event = Event(vertex=vertex, delta=delta)
        existing = bucket.get(vertex)
        bucket[vertex] = (
            existing.coalesced_with(event, self.spec.reduce)
            if existing is not None
            else event
        )
        self._journal_spill(target, event)

    def _restore_checkpoint(self, checkpoint) -> None:
        """Roll state and spill buffers back to a checkpoint."""
        self.state[:] = checkpoint.state
        for bucket, snap in zip(self._spill, checkpoint.queue_snapshot):
            bucket.clear()
            for v, e in snap.items():
                bucket[v] = Event(
                    vertex=e.vertex,
                    delta=e.delta,
                    generation=e.generation,
                    ready=e.ready,
                )
        if self._journal is not None:
            # in-memory rollback rewrote the buffers without history;
            # re-baseline the WAL so replay-to-commit stays equivalent
            self._journal.reset(
                [
                    {v: (e.delta, e.generation) for v, e in bucket.items()}
                    for bucket in self._spill
                ]
            )

    # ------------------------------------------------------------------
    def _absorb_spill(
        self,
        spill: List[Dict[int, Event]],
        target_slice: int,
        event: Event,
    ) -> None:
        """Coalesce one spilled event into its bucket and WAL it."""
        bucket = spill[target_slice]
        existing = bucket.get(event.vertex)
        bucket[event.vertex] = (
            existing.coalesced_with(event, self.spec.reduce)
            if existing is not None
            else event
        )
        self._journal_spill(target_slice, event)

    def _activate(
        self,
        pass_index: int,
        slice_index: int,
        inbound: List[Event],
        state: np.ndarray,
        traffic: TrafficCounters,
        spill: List[Dict[int, Event]],
    ) -> SliceActivation:
        """Swap a slice in, run it, spill outbound events."""
        self._now = float(pass_index)
        processed, rounds, spilled = run_slice_activation(
            self.partition,
            self.spec,
            pass_index,
            slice_index,
            inbound,
            state,
            traffic,
            lambda target, event: self._absorb_spill(spill, target, event),
            num_bins=self.num_bins,
            block_size=self.block_size,
            rounds_per_activation=self.rounds_per_activation,
            resilience=self.resilience,
            mapping=self.bin_map,
        )
        if obs_trace.ACTIVE is not None:
            probe.slice_activation(
                slice_index,
                pass_index,
                events_in=len(inbound),
                events_processed=processed,
                events_spilled=spilled,
                rounds=rounds,
            )
        return SliceActivation(
            pass_index=pass_index,
            slice_index=slice_index,
            events_in=len(inbound),
            events_processed=processed,
            events_spilled=spilled,
            rounds=rounds,
        )


def build_sliced(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    *,
    num_slices: int = 1,
    queue_capacity: Optional[int] = None,
    auto_slice: bool = True,
    partition_fn=contiguous_partition,
    **kwargs,
) -> SlicedGraphPulse:
    """Partition a graph and build a sliced runner, auto-sizing slices.

    The construction half of :func:`run_sliced`, exposed separately so
    ``repro resume`` can rebuild the exact runner a durable run used
    (same deterministic auto-slice decision) and restore a checkpoint
    into it before running.  Slice-count normalization is
    :func:`resolve_partition`'s job — this helper adds nothing to it.
    """
    partition = resolve_partition(
        graph,
        num_slices=num_slices,
        queue_capacity=queue_capacity,
        auto_slice=auto_slice,
        partition_fn=partition_fn,
    )
    return SlicedGraphPulse(
        partition,
        spec,
        queue_capacity=queue_capacity,
        **kwargs,
    )


def run_sliced(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    *,
    num_slices: int = 1,
    queue_capacity: Optional[int] = None,
    auto_slice: bool = True,
    partition_fn=contiguous_partition,
    **kwargs,
) -> SlicedResult:
    """Partition a graph and run it sliced, auto-sizing the slice count.

    Convenience entry point for the Section IV-F flow: the graph is
    partitioned into ``num_slices`` slices and executed.  When a
    ``queue_capacity`` is given and the largest slice does not fit, the
    resulting :class:`repro.errors.QueueCapacityError` names the number
    of slices that would fit (``exc.required_slices``); with
    ``auto_slice`` (the default) the helper catches it and retries with
    that suggestion, otherwise the error propagates for the caller (or
    the CLI) to surface.
    """
    return build_sliced(
        graph,
        spec,
        num_slices=num_slices,
        queue_capacity=queue_capacity,
        auto_slice=auto_slice,
        partition_fn=partition_fn,
        **kwargs,
    ).run()


@dataclass
class SuperRound:
    """One synchronized step of the multi-accelerator runtime."""

    index: int
    events_processed_per_slice: List[int]
    messages_exchanged: int


@dataclass
class ParallelSlicedResult:
    """Output of a multi-accelerator run."""

    values: np.ndarray
    super_rounds: List[SuperRound]
    traffic: TrafficCounters
    converged: bool

    @property
    def num_super_rounds(self) -> int:
        return len(self.super_rounds)

    @property
    def total_messages(self) -> int:
        return sum(r.messages_exchanged for r in self.super_rounds)

    def load_balance(self) -> float:
        """Mean/max ratio of per-slice work (1.0 = perfectly balanced)."""
        totals = None
        for record in self.super_rounds:
            if totals is None:
                totals = list(record.events_processed_per_slice)
            else:
                for i, count in enumerate(record.events_processed_per_slice):
                    totals[i] += count
        if not totals or max(totals) == 0:
            return 1.0
        return (sum(totals) / len(totals)) / max(totals)


class ParallelSlicedGraphPulse:
    """Multi-accelerator execution (paper Section IV-F, option b).

    The paper names, but does not explore, housing all slices on
    "multiple accelerator chips ... while an interconnection network
    streams inter-slice events in real-time".  This runtime models that
    option: every slice owns an accelerator (its own coalescing queue)
    and all accelerators execute one round per *super-round*
    concurrently.  Events crossing slices travel over the modelled
    interconnect and are inserted into the remote queue at the start of
    the next super-round (one network hop of latency); slice-local
    events coalesce immediately as usual.

    The asynchronous model makes this safe: any delivery schedule
    converges to the same fixed point, which the tests assert against
    the single-accelerator engines.

    Prefer constructing through :func:`repro.core.engines.build_engine`
    (``name="parallel-sliced"``); direct construction remains supported
    for callers that need a custom :class:`Partition`.
    """

    def __init__(
        self,
        partition: Partition,
        spec: AlgorithmSpec,
        *,
        num_bins: int = 64,
        block_size: int = 128,
        max_super_rounds: int = 100_000,
    ):
        self.partition = partition
        self.spec = spec
        self.num_bins = num_bins
        self.block_size = block_size
        self.max_super_rounds = max_super_rounds

    # ------------------------------------------------------------------
    def run(self) -> ParallelSlicedResult:
        partition, spec = self.partition, self.spec
        graph = partition.graph
        state = spec.initial_state(graph)
        traffic = TrafficCounters()
        mapping = VertexBinMap(graph.num_vertices, self.num_bins, self.block_size)
        queues = [
            CoalescingQueue(
                graph.num_vertices,
                spec.reduce,
                num_bins=self.num_bins,
                block_size=self.block_size,
                reduce_ufunc=spec.reduce_ufunc,
                mapping=mapping,
            )
            for _ in range(partition.num_slices)
        ]
        for vertex, delta in spec.initial_events(graph).items():
            target = int(partition.slice_of_vertex[vertex])
            queues[target].insert(vertex, delta)

        super_rounds: List[SuperRound] = []
        # inter-accelerator messages in flight toward each slice
        in_flight: List[List[Event]] = [[] for _ in range(partition.num_slices)]

        def send(target: int, vertex: int, delta: float, generation: int) -> None:
            in_flight[target].append(Event(vertex, delta, generation))

        index = 0
        while any(not q.is_empty for q in queues) or any(in_flight):
            if index >= self.max_super_rounds:
                raise RuntimeError(
                    f"{spec.name} did not converge within "
                    f"{self.max_super_rounds} super-rounds"
                )
            # deliver last super-round's network traffic
            messages = 0
            for slice_index, pending in enumerate(in_flight):
                messages += len(pending)
                for event in pending:
                    queues[slice_index].insert_event(event)
                pending.clear()

            processed_per_slice = [
                _slice_round(
                    partition, spec, slice_index, queue, state, traffic, send
                )
                for slice_index, queue in enumerate(queues)
            ]
            super_rounds.append(
                SuperRound(
                    index=index,
                    events_processed_per_slice=processed_per_slice,
                    messages_exchanged=messages,
                )
            )
            if obs_trace.ACTIVE is not None:
                probe.super_round(
                    index,
                    messages=messages,
                    events_processed=sum(processed_per_slice),
                )
            index += 1

        return ParallelSlicedResult(
            values=state,
            super_rounds=super_rounds,
            traffic=traffic,
            converged=True,
        )
