"""Large-graph execution via slicing (paper Section IV-F).

When a graph has more vertices than the coalescing queue can map, it is
partitioned offline into slices that each fit on chip.  Slices execute
one at a time; events produced for vertices in other slices are
buffered in off-chip DRAM ("the outbound events to each slice fill a
DRAM page with burst-write") and streamed back in when their slice is
activated.  Because the event model is asynchronous and data-flow, any
interleaving converges to the same fixed point.

The runtime below reproduces that scheme on top of the functional
engine: passes over the slices, each activation processing rounds until
its local queue drains or its round cap is reached, spilling
cross-slice events, until no slice has pending work.  Spill traffic
(bytes written + read back) is accounted — it is the overhead the
paper accepts for Twitter-scale graphs.

The slice schedule
------------------
A pass's active set is fixed when the pass starts (a barrier schedule):
every slice starts from exactly the events that were pending at the
pass boundary, and outbound spills only become visible at the next pass.
Because each activation touches only its own slice's vertices, the
slices of one pass are data-independent, and their outbound spills
merge in the (slice-id, emission-index) order a one-at-a-time pass
emits them.

The paper does not say that a slice must drain before it is swapped
out, and the event model converges under any interleaving, so how long
an activation runs is a choice: by default one round for an additive
spec on more than one slice, a full drain otherwise (the reasons are in
:func:`run_slice_activation`).

The pass driver
---------------
:meth:`SlicedGraphPulse.run` is the one pass loop of ``sliced``,
``parallel-sliced`` and ``sliced-mp``.  Each pass is planned (the
pass-start buffers are taken and the journal marks them consumed),
executed, and then updated: outbound streams merged and absorbed,
activations and spill bytes accounted, the WAL committed and a
checkpoint taken when due.  An executor overrides the execute step:
this class runs the slices in process, one after another;
:mod:`repro.core.mpsliced` runs them concurrently in worker processes.
The cross-host engine (:mod:`repro.core.hostsliced`) runs the same
schedule as independently claimed steps with a loop of its own.

Multi-accelerator execution
---------------------------
Section IV-F's option (b) houses every slice on its own accelerator
chip "while an interconnection network streams inter-slice events in
real-time".  That model needs no runtime of its own: it is barrier
dispatch with one round per activation.  Every active slice runs one
round per pass, the pass is the chips' synchronized step, and a
cross-slice message arrives one pass after it was sent (one network
hop).  The registry's ``parallel-sliced`` preset builds exactly that,
which is also what ``sliced`` runs by default for additive specs;
``SliceActivation.events_sent`` counts its inter-chip messages and
:meth:`SlicedResult.load_balance` its per-chip work balance.
"""

from __future__ import annotations

import contextlib
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..errors import CheckpointCorruptError, QueueCapacityError
from ..graph import CSRGraph
from ..graph.partition import Partition, contiguous_partition
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from ..resilience.harness import ResilienceConfig, ResilienceHarness
from ..resilience.journal import SpillJournal
from ..resilience.watchdog import run_to_fixed_point
from .event import Event
from .functional import TrafficCounters, process_bin
from .queue import CoalescingQueue, VertexBinMap
from .spill import SpillBuffers, SpillColumns, journal_spills

__all__ = [
    "SlicedGraphPulse",
    "SlicedResult",
    "SliceActivation",
    "build_sliced",
    "run_sliced",
    "resolve_partition",
    "run_slice_activation",
    "merge_outbound_streams",
    "slice_bins",
]

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
    #: events written to DRAM: cross-slice messages plus the swap-out
    #: residue spilled back to this slice's own buffer
    events_spilled: int
    #: the part of ``events_spilled`` addressed to another slice (the
    #: inter-chip messages when every slice owns an accelerator)
    events_sent: int
    rounds: int


#: the :class:`SliceActivation` counters a durable run's checkpoints
#: total, next to ``processed.<slice>``, the spill bytes and the
#: :class:`TrafficCounters` fields
_ACTIVATION_COUNTERS = (
    "events_processed",
    "events_spilled",
    "events_sent",
    "rounds",
)


def _fold_activations(totals: Counter, activations) -> None:
    """Add ``activations``' counters to the running checkpoint totals."""
    for activation in activations:
        for name in _ACTIVATION_COUNTERS:
            totals[name] += getattr(activation, name)
        totals[f"processed.{activation.slice_index}"] += (
            activation.events_processed
        )


@dataclass
class SlicedResult:
    """Output of a sliced run.

    ``activations`` lists this process's activations; a run resumed
    from a checkpoint starts them at pass ``first_pass`` and carries the
    checkpoint's totals in ``prior``, so every counter below covers the
    whole run.  ``traffic`` and the spill bytes already do.
    """

    values: np.ndarray
    activations: List[SliceActivation]
    traffic: TrafficCounters
    spill_bytes_written: int
    spill_bytes_read: int
    converged: bool
    num_slices: int
    #: resilience activity summary; None unless resilience was enabled
    resilience: Optional[Dict] = None
    first_pass: int = 0
    prior: Counter = field(default_factory=Counter)

    @property
    def num_passes(self) -> int:
        if not self.activations:
            return self.first_pass
        return self.activations[-1].pass_index + 1

    def _total(self, name: str) -> int:
        tail = sum(getattr(a, name) for a in self.activations)
        return self.prior[name] + tail

    @property
    def total_rounds(self) -> int:
        """Engine rounds summed over every slice activation."""
        return self._total("rounds")

    @property
    def events_processed(self) -> int:
        return self._total("events_processed")

    @property
    def messages(self) -> int:
        """Cross-slice messages (:attr:`SliceActivation.events_sent`)."""
        return self._total("events_sent")

    @property
    def total_spill_bytes(self) -> int:
        return self.spill_bytes_written + self.spill_bytes_read

    def spill_overhead(self) -> float:
        """Spill traffic as a fraction of total off-chip traffic."""
        total = self.traffic.total_bytes_fetched + self.total_spill_bytes
        return self.total_spill_bytes / total if total else 0.0

    def load_balance(self) -> float:
        """Mean/max ratio of per-slice work (1.0 = perfectly balanced)."""
        totals = [self.prior[f"processed.{s}"] for s in range(self.num_slices)]
        for activation in self.activations:
            totals[activation.slice_index] += activation.events_processed
        if not totals or max(totals) == 0:
            return 1.0
        return (sum(totals) / len(totals)) / max(totals)


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


def slice_bins(partition: Partition, mapping: VertexBinMap) -> List[List[int]]:
    """Per slice, the ascending indices of the bins holding its vertices.

    Only a slice's own vertices ever enter one of its activations'
    queues (inbound buffers are keyed by owner and remote messages
    spill), so sweeping these bins alone drains exactly what sweeping
    every bin would, in the same order.  A slice's vertices fall in a
    few of the bins, so the executors build this once per (partition,
    bin map) and hand each activation its slice's list.
    """
    # bincount, not np.unique: np.unique imports numpy.ma on first use,
    # about 1.7 MB of peak RSS
    return [
        np.bincount(mapping.bin_of(s.vertices), minlength=mapping.num_bins)
        .nonzero()[0]
        .tolist()
        for s in partition.slices
    ]


# ----------------------------------------------------------------------
# The slice-activation kernel, shared by both executors and the
# cross-host engine.  ``emit(vertices, deltas, generations)`` receives
# every spilled message — cross-slice spills and the swap-out residue —
# as column batches in emission order, the order the driver absorbs
# them in, which is what keeps every execution mode bit-identical.
# ----------------------------------------------------------------------


def run_slice_activation(
    partition: Partition,
    spec: AlgorithmSpec,
    pass_index: int,
    slice_index: int,
    inbound: SpillColumns,
    state: np.ndarray,
    traffic: TrafficCounters,
    emit: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
    *,
    mapping: VertexBinMap,
    bins: Sequence[int],
    rounds_per_activation: Optional[int] = None,
    resilience=None,
) -> Tuple[int, int, int, int]:
    """Swap one slice in, run it, emit outbound spills in order.

    ``inbound`` is the slice's spill buffer as taken
    (:meth:`SpillBuffers.take`).  ``emit(vertices, deltas,
    generations)`` receives the outbound messages as column batches in
    emission order: each drained bin's cross-slice messages, then the
    swap-out residue bin by bin.  Each message is buffered by the slice
    that owns its vertex (``partition.slice_of_vertex``), so no target
    is passed.  Returns ``(events_processed, rounds, events_spilled,
    events_sent)``: ``events_sent`` counts the cross-slice messages,
    ``events_spilled`` adds the swap-out residue to them.
    The caller owns what ``emit`` means: the pass driver's executors
    collect the batches into the slice's outbound stream (a worker
    process ships it back to the supervisor), and the driver absorbs
    the merged streams at the pass barrier.  Only the vertices of
    ``partition.slices[slice_index]`` are read or written in ``state``
    — the contract that lets the supervisor ship workers a single
    slice's state shard.  ``mapping`` is the engine's shared
    :class:`VertexBinMap`, the queue's geometry, so activations do not
    rebuild its sweep order.  ``bins`` is the slice's entry of
    :func:`slice_bins` for that map: each round, and the swap-out
    residue sweep, drains only those bins, in ascending order.  A
    round that drains nothing while events stay queued means ``bins``
    misses a bin holding them, a :class:`ValueError`.

    ``rounds_per_activation`` caps the rounds before swap-out; ``None``
    picks the schedule from the input.  An additive spec on more than
    one slice runs one round per activation: its deltas decay
    geometrically, so the passes needed are bounded by the decay depth,
    not by the graph's diameter, and draining a slice to its threshold
    against boundary values the next pass changes anyway is redundant
    work.  Exact reduces (min/or) drain: a change travels the whole
    diameter, one slice-local hop per pass under a cap.  A single slice
    drains too: one round would only spill its own residue each pass.
    """
    if (
        rounds_per_activation is None
        and spec.additive
        and partition.num_slices > 1
    ):
        rounds_per_activation = 1
    graph = partition.graph
    now = float(pass_index)
    queue = CoalescingQueue(
        graph.num_vertices,
        spec.reduce,
        num_bins=mapping.num_bins,
        block_size=mapping.block_size,
        reduce_ufunc=spec.reduce_ufunc,
        mapping=mapping,
    )
    if resilience is not None:
        if resilience.config.fault_plan.armed("bitflip"):
            queue.payload_check = lambda event: (
                resilience.payload_ok(event, now)
            )
        for event in inbound.events():
            for survivor in resilience.filter_insert(event, now):
                queue.insert_event(survivor)
    else:
        # the swap-in stays on the scalar insert, where the benchmark's
        # traced run attributes it (to ``queue.insert``)
        insert = queue.insert
        for vertex, delta, generation in zip(
            inbound.vertices.tolist(),
            inbound.deltas.tolist(),
            inbound.generations.tolist(),
        ):
            insert(vertex, delta, generation)

    sent = 0

    def spill(
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
    ) -> None:
        nonlocal sent
        sent += len(vertices)
        if resilience is not None:
            kept = np.array(
                [
                    not resilience.spill_lost(Event(v, d, g), now)
                    for v, d, g in zip(
                        vertices.tolist(), deltas.tolist(), generations.tolist()
                    )
                ],
                dtype=bool,
            )
            if not kept.all():
                # lost in the DRAM spill buffer (not journaled)
                vertices, deltas, generations = (
                    vertices[kept],
                    deltas[kept],
                    generations[kept],
                )
                if not len(vertices):
                    return
        emit(vertices, deltas, generations)

    processed = 0
    rounds = 0
    while not queue.is_empty:
        if (
            rounds_per_activation is not None
            and rounds >= rounds_per_activation
        ):
            break
        rounds += 1
        before = processed
        # one round-robin pass over the slice's bins, a bin per kernel call
        for bin_index in bins:
            drained = queue.drain_bin_arrays(bin_index)
            if not len(drained.vertices):
                continue
            processed += len(drained.vertices)
            process_bin(
                graph,
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
        if processed == before and not queue.is_empty:
            # every bin in ``bins`` is empty now: without this the loop
            # would spin on events it never drains
            raise ValueError(
                f"bins {list(bins)} miss events queued for slice {slice_index}"
            )
    # events still queued at swap-out are spilled back to this slice's
    # own buffer, bin by bin
    spilled = sent
    for bin_index in bins:
        residue = queue.drain_bin_arrays(bin_index)
        if len(residue.vertices):
            emit(residue.vertices, residue.deltas, residue.generations)
            spilled += len(residue.vertices)
    return processed, rounds, spilled, sent


def merge_outbound_streams(streams) -> SpillColumns:
    """Merge per-slice outbound spill streams in deterministic order.

    ``streams`` is an iterable of ``(slice_index, outbound)`` pairs, one
    per activation of a pass; each ``outbound`` is a
    :class:`SpillColumns` in the emission order of
    :func:`run_slice_activation`.  Returns every message concatenated in
    **(slice-id, emission-index)** order — the exact order a sequential
    barrier pass (slices activated in slice order, spills absorbed as
    emitted) produces, and therefore the exact order the spill journal
    records and replays.  The pass driver routes every executor's
    results through here, so coalesced spill buffers, journal bytes and
    final state do not depend on how activations interleaved in time.
    """
    return SpillColumns.concat(
        [outbound for _, outbound in sorted(streams, key=lambda item: item[0])]
    )


class SlicedGraphPulse:
    """Multi-slice functional GraphPulse execution.

    Prefer constructing through :func:`repro.core.engines.build_engine`
    (``name="sliced"``); direct construction remains supported for
    callers that need a custom :class:`Partition`.

    By default (``rounds_per_activation=None``) an additive spec on more
    than one slice runs one round per activation and everything else
    drains each activation (:func:`run_slice_activation`).  Additive
    deltas decay geometrically, so the passes one round needs are
    bounded by the decay depth, not the diameter (pagerank on a
    20,000-vertex chain: 107 passes), and it does about a third of the
    drain's work.  A min/or change travels the whole diameter one hop
    per pass under a cap (BFS on that chain: over 10,000 passes against
    the drain's 4), and a single slice under a cap would only spill its
    own residue each pass.
    """

    #: registry name, in diagnostics, metrics labels and durable
    #: checkpoints; subclasses override it, and the ``parallel-sliced``
    #: preset passes ``engine_name``
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
        resilience: Optional[ResilienceConfig] = None,
        engine_name: Optional[str] = None,
    ):
        """
        Parameters
        ----------
        partition:
            Offline partitioning of the graph (``repro.graph.partition``).
        rounds_per_activation:
            Cap on rounds a slice runs before being swapped out even if
            it still has local events.  ``None`` picks one round for an
            additive spec on more than one slice and a full drain
            otherwise (see the class docstring); a cap larger than any
            activation needs, such as ``10**6``, always drains.
        queue_capacity:
            On-chip queue capacity in vertices.  Every slice must fit:
            a partition whose largest slice exceeds this raises
            :class:`repro.errors.QueueCapacityError` naming the number
            of slices that would fit (see :func:`run_sliced`).
        resilience:
            Optional fault-injection / detection / recovery configuration
            (:class:`repro.resilience.ResilienceConfig`).
        engine_name:
            Registry name of a preset built on this class (default:
            :attr:`ENGINE_NAME`).
        """
        if engine_name is not None:
            self.ENGINE_NAME = engine_name
        self.partition = partition
        self.spec = spec
        self.num_bins = num_bins
        self.block_size = block_size
        self.bin_map = VertexBinMap(
            partition.graph.num_vertices, num_bins, block_size
        )
        self.slice_bins = slice_bins(partition, self.bin_map)
        self.max_passes = max_passes
        self.rounds_per_activation = rounds_per_activation
        if queue_capacity is not None:
            largest = max(s.num_vertices for s in partition.slices)
            if largest > queue_capacity:
                raise QueueCapacityError(
                    partition.graph.num_vertices, queue_capacity
                )
        self._spill: Optional[SpillBuffers] = None
        self._journal = None  #: SpillJournal on durable runs, else None
        self._resumed = False
        self._start_pass = 0
        self._prior: Counter = Counter()
        self._resume_spill: List[Dict[int, Event]] = []
        self.state = spec.initial_state(partition.graph)
        #: journal-replay provenance of the last restore() (or None)
        self.journal_replay: Optional[Dict[str, Any]] = None
        self.resilience: Optional[ResilienceHarness] = None
        if resilience is not None:
            self.resilience = ResilienceHarness(
                resilience, spec, partition.graph, self.ENGINE_NAME, "spill"
            )

    # ------------------------------------------------------------------
    def restore(self, restored) -> None:
        """Adopt a durable checkpoint; the next ``run`` continues from it.

        The checkpoint's spill snapshot is the restored truth; the spill
        journal is independently replayed up to the commit the
        checkpoint references and cross-checked bit-for-bit against it
        (:meth:`_replay_journal`), so a torn or inconsistent journal
        fails loudly instead of silently diverging.  The journal is then
        truncated at that commit so resumed appends continue from a
        clean tail.
        """
        if len(restored.queue_snapshot) != self.partition.num_slices:
            raise CheckpointCorruptError(
                f"checkpoint snapshot has {len(restored.queue_snapshot)} "
                f"slices but the partition has {self.partition.num_slices}",
                snapshot_slices=len(restored.queue_snapshot),
                partition_slices=self.partition.num_slices,
            )
        self.state[:] = restored.state
        self._resume_spill = restored.queue_snapshot
        self._start_pass = restored.round_index
        self._prior = Counter(restored.totals)
        if self.resilience is not None and restored.fault_cursor:
            self.resilience.injector.restore_cursor(restored.fault_cursor)
        if self.resilience is not None and self.resilience.durable is not None:
            scan = self._replay_journal(
                restored.journal_commit, restored.queue_snapshot, "checkpoint"
            )
            SpillJournal.truncate(
                self.resilience.durable.store.journal_path, scan.offset
            )
            # recovery provenance for `repro resume --json`
            self.journal_replay = scan.provenance()
        self._resumed = True

    def _replay_journal(
        self, upto: int, snapshot: List[Dict[int, Event]], against: str
    ):
        """Replay the WAL to commit ``upto``; it must equal ``snapshot``.

        The comparison is bitwise (raw f64 delta bits and generations)
        over every slice's pending vertices; any disagreement raises
        :class:`repro.errors.CheckpointCorruptError` naming ``against``.
        Returns the :class:`repro.resilience.journal.JournalScan`.
        """
        where = self.resilience.durable.store.journal_path
        scan = SpillJournal.scan(
            where, self.partition.num_slices, upto, self.spec.reduce
        )

        def bits(value: float) -> bytes:
            return struct.pack("<d", value)

        for slice_index, snap in enumerate(snapshot):
            replayed = scan.buffers[slice_index]
            if set(replayed) != set(snap):
                raise CheckpointCorruptError(
                    f"{where}: journal replay disagrees with {against} on "
                    f"slice {slice_index}'s pending vertices",
                    path=str(where),
                    slice=slice_index,
                    commit=upto,
                )
            for vertex, event in snap.items():
                delta, generation = replayed[vertex]
                if bits(delta) != bits(event.delta) or generation != event.generation:
                    raise CheckpointCorruptError(
                        f"{where}: journal replay disagrees with {against} "
                        f"on vertex {vertex} (slice {slice_index})",
                        path=str(where),
                        slice=slice_index,
                        vertex=vertex,
                        commit=upto,
                    )
        return scan

    def _absorb(
        self,
        vertices: np.ndarray,
        deltas: np.ndarray,
        generations: np.ndarray,
    ) -> None:
        """Fold spilled messages into their buffers and WAL each one."""
        self._spill.absorb_many(vertices, deltas, generations)
        if self._journal is not None:
            journal_spills(
                self._journal,
                self.partition.slice_of_vertex,
                vertices,
                deltas,
                generations,
            )

    # ------------------------------------------------------------------
    def _setup_run(self):
        """Run preamble: spill buffers, WAL, seed events; returns the
        spill buffers."""
        partition, spec = self.partition, self.spec
        # the per-slice spill buffers of inbound events (global vertex
        # ids), coalesced on arrival like the DRAM-page burst buffers
        # would be.  Under a resilience harness they fold one message at
        # a time through the scalar reduce, like the queue's per-message
        # path, so no fault-made payload meets the reduce ufunc.
        spill = SpillBuffers(
            partition.slice_of_vertex,
            partition.num_slices,
            spec.reduce,
            spec.reduce_ufunc if self.resilience is None else None,
        )
        self._spill = spill
        if self.resilience is not None:
            self._journal = self.resilience.open_journal(partition.num_slices)
        if self._resumed:
            spill.restore(self._resume_spill)
        else:
            seeds = spec.initial_events(partition.graph)
            self._absorb(
                np.fromiter(seeds, dtype=np.int64, count=len(seeds)),
                np.fromiter(seeds.values(), dtype=np.float64, count=len(seeds)),
                np.zeros(len(seeds), dtype=np.int64),
            )
            if self._journal is not None:
                self._journal.commit(0)
        return spill

    def _collect_pass_inbound(self) -> List[Tuple[int, SpillColumns]]:
        """Capture and clear every pending buffer at a pass barrier.

        Journal ``consume`` marks are written in slice order before any
        activation runs, so a pass's WAL record stream is "consume all
        active slices, then the outbound spills" — replay up to the
        pass commit reconstructs exactly the pass-start buffers.
        """
        batch = []
        for slice_index in range(self.partition.num_slices):
            if self._spill.size(slice_index):
                if self._journal is not None:
                    self._journal.consume(slice_index)
                batch.append((slice_index, self._spill.take(slice_index)))
        return batch

    # ------------------------------------------------------------------
    # The pass driver: plan (take the pass-start buffers), execute (run
    # every active slice), update (merge outbound spills, account, WAL
    # commit, checkpoint).  Executors override the three hooks below.
    # ------------------------------------------------------------------
    def run(self) -> SlicedResult:
        partition = self.partition
        state = self.state
        prior = self._prior
        traffic = TrafficCounters(
            **{f.name: prior[f.name] for f in fields(TrafficCounters)}
        )
        activations: List[SliceActivation] = []
        spill_written = prior["spill_bytes_written"]
        spill_read = prior["spill_bytes_read"]
        # the running checkpoint totals, folded only under a harness
        totals = Counter(prior)

        spill = self._setup_run()
        pass_index = self._start_pass

        def one_pass() -> None:
            nonlocal pass_index, spill_read, spill_written
            batch, outcomes = self._run_pass(pass_index, state, traffic)
            pass_processed = 0
            streams = []
            for (slice_index, inbound), (counts, outbound) in zip(
                batch, outcomes
            ):
                processed, rounds, spilled, sent = counts
                spill_read += len(inbound) * _SPILL_EVENT_BYTES
                spill_written += spilled * _SPILL_EVENT_BYTES
                pass_processed += processed
                activations.append(
                    SliceActivation(
                        pass_index=pass_index,
                        slice_index=slice_index,
                        events_in=len(inbound),
                        events_processed=processed,
                        events_spilled=spilled,
                        events_sent=sent,
                        rounds=rounds,
                    )
                )
                streams.append((slice_index, outbound))
                if obs_trace.ACTIVE is not None:
                    probe.slice_activation(
                        slice_index,
                        pass_index,
                        events_in=len(inbound),
                        events_processed=processed,
                        events_spilled=spilled,
                        rounds=rounds,
                    )
            merged = merge_outbound_streams(streams)
            self._absorb(merged.vertices, merged.deltas, merged.generations)
            if obs_metrics.ACTIVE is not None:
                obs_metrics.round_tick(
                    self.ENGINE_NAME,
                    pass_index,
                    events_processed=pass_processed,
                )
            pass_index += 1
            if self._journal is not None:
                # a pass is the durability unit: everything above
                # reaches stable storage before the checkpoint that
                # references this commit can be captured
                self._journal.commit(pass_index)
            if self.resilience is not None:
                _fold_activations(
                    totals, activations[len(activations) - len(batch):]
                )
                self.resilience.maybe_checkpoint(
                    pass_index,
                    float(pass_index),
                    state,
                    spill,
                    totals={
                        **totals,
                        **asdict(traffic),
                        "spill_bytes_written": spill_written,
                        "spill_bytes_read": spill_read,
                    },
                )

        try:
            with self._executor():
                run_to_fixed_point(
                    one_pass,
                    spill,
                    engine=self.ENGINE_NAME,
                    algorithm=self.spec.name,
                    budget=self.max_passes,
                    unit="slice passes",
                    at=lambda: float(pass_index),
                    harness=self.resilience,
                    state=state,
                    inject=self._inject_repair,
                    restore=self._restore_checkpoint,
                )
        finally:
            if self._journal is not None:
                self._journal.close()

        return self._result(
            values=state,
            activations=activations,
            traffic=traffic,
            spill_bytes_written=spill_written,
            spill_bytes_read=spill_read,
            converged=True,
            num_slices=partition.num_slices,
            resilience=(
                self.resilience.summary()
                if self.resilience is not None
                else None
            ),
            first_pass=self._start_pass,
            prior=prior,
        )

    @contextlib.contextmanager
    def _executor(self):
        """Hold the executor's resources for one run (none in process)."""
        yield

    def _run_pass(
        self, pass_index: int, state: np.ndarray, traffic: TrafficCounters
    ) -> Tuple[List[Tuple[int, SpillColumns]], list]:
        """Plan and execute one pass: ``(batch, outcomes)``.

        The active set is fixed at the pass boundary: every pending
        buffer is taken before any slice runs, so outbound spills land
        in fresh buffers and only become visible next pass.
        """
        batch = self._collect_pass_inbound()
        return batch, self._execute_pass(pass_index, batch, state, traffic)

    def _execute_pass(
        self,
        pass_index: int,
        batch: List[Tuple[int, SpillColumns]],
        state: np.ndarray,
        traffic: TrafficCounters,
    ) -> List[Tuple[Tuple[int, int, int, int], SpillColumns]]:
        """Run every activation of ``batch``, one slice after another.

        Returns, aligned with ``batch``, each activation's
        :func:`run_slice_activation` counts and its outbound stream.
        Outbound spills are collected, not absorbed: the pass's spills
        are invisible until the next pass anyway, and the driver's
        (slice-id, emission-index) merge is the order in which this
        loop emits them.
        """
        outcomes = []
        for slice_index, inbound in batch:
            outbound: List[SpillColumns] = []
            counts = run_slice_activation(
                self.partition,
                self.spec,
                pass_index,
                slice_index,
                inbound,
                state,
                traffic,
                lambda *columns: outbound.append(SpillColumns(*columns)),
                rounds_per_activation=self.rounds_per_activation,
                resilience=self.resilience,
                mapping=self.bin_map,
                bins=self.slice_bins[slice_index],
            )
            outcomes.append((counts, SpillColumns.concat(outbound)))
        return outcomes

    def _result(self, **fields) -> SlicedResult:
        return SlicedResult(**fields)

    # ------------------------------------------------------------------
    # Resilience callbacks
    # ------------------------------------------------------------------
    def _inject_repair(self, vertex: int, delta: float) -> None:
        """Queue a repair delta into the owning slice's spill buffer."""
        self._absorb(
            np.array([vertex], dtype=np.int64),
            np.array([delta], dtype=np.float64),
            np.zeros(1, dtype=np.int64),
        )

    def _restore_checkpoint(self, checkpoint) -> None:
        """Roll state and spill buffers back to a checkpoint."""
        self.state[:] = checkpoint.state
        self._spill.restore(checkpoint.queue_snapshot)
        if self._journal is not None:
            # in-memory rollback rewrote the buffers without history;
            # re-baseline the WAL so replay-to-commit stays equivalent
            self._journal.reset(
                [
                    {v: (e.delta, e.generation) for v, e in bucket.items()}
                    for bucket in checkpoint.queue_snapshot
                ]
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
