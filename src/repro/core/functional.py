"""Functional GraphPulse engine: Algorithm 1 with exact event semantics.

This engine executes the paper's event-driven model (Algorithm 1) with
the real binned coalescing queue but *without* cycle timing, so it scales
to the 10^5-10^6-edge proxy graphs.  It is the measurement vehicle for:

- correctness of the event model against the golden references;
- Figure 4 (events produced vs remaining after coalescing, per round);
- Figure 8 (lookahead-degree distribution per round);
- event/traffic accounting feeding Figures 11-12 and Table I.

Scheduling follows Section IV-C: bins are drained round-robin; one
complete pass over all bins is a *round*.  Events generated while a round
is in progress land in their destination bin — if that bin is later in
the current round they are processed this round (the source of the
paper's *lookahead* effect), otherwise they wait for the next round.
Coalescing-at-insertion guarantees at most one event per vertex per
round, which is what makes vertex updates race-free without atomics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..graph import CSRGraph
from ..graph.csr import LINE_BYTES as _CACHE_LINE
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from ..obs.timeseries import TimeSeries
from ..resilience.harness import ResilienceConfig, ResilienceHarness
from ..resilience.watchdog import run_to_fixed_point
from .event import Event
from .queue import BinDrain, CoalescingQueue

__all__ = [
    "process_bin",
    "propagate_edges",
    "FunctionalGraphPulse",
    "FunctionalResult",
    "RoundRecord",
    "TrafficCounters",
    "LOOKAHEAD_BUCKETS",
]

#: Histogram bucket upper bounds for Figure 8 (the paper buckets lookahead
#: as 0, <100, <200, <300, <400, >400).
LOOKAHEAD_BUCKETS = (0, 100, 200, 300, 400)


@dataclass
class TrafficCounters:
    """Memory-operation and byte-level traffic accounting.

    Byte counts model a cache-line (64 B) granular off-chip interface:
    a drain batch touches the unique lines covering the vertices it
    processes (binning makes those dense), and each propagating vertex
    streams the lines covering its contiguous CSR edge slice.
    ``useful`` bytes are the bytes the computation actually consumed, so
    ``utilization()`` reproduces the Figure 12 metric.
    """

    vertex_reads: int = 0
    vertex_writes: int = 0
    edge_reads: int = 0
    vertex_bytes_fetched: int = 0
    vertex_bytes_useful: int = 0
    edge_bytes_fetched: int = 0
    edge_bytes_useful: int = 0

    @property
    def total_bytes_fetched(self) -> int:
        return self.vertex_bytes_fetched + self.edge_bytes_fetched

    @property
    def total_bytes_useful(self) -> int:
        return self.vertex_bytes_useful + self.edge_bytes_useful

    def utilization(self) -> float:
        """Fraction of fetched off-chip bytes consumed by computation."""
        fetched = self.total_bytes_fetched
        return self.total_bytes_useful / fetched if fetched else 1.0


@dataclass
class RoundRecord:
    """Per-round measurements (Figures 4 and 8, and the inputs the
    throughput timing model needs to convert a round into cycles)."""

    round_index: int
    events_processed: int
    events_produced: int
    events_coalesced: int
    queue_size_after: int
    progress: float  #: sum of |change| applied this round (termination)
    lookahead_histogram: Dict[str, int] = field(default_factory=dict)
    #: out-edges scanned by this round's propagations
    edges_scanned: int = 0
    #: unique 64 B vertex-property lines touched by the drain batches
    vertex_lines: int = 0
    #: 64 B lines covering the scanned edge slices
    edge_lines: int = 0

    @property
    def events_remaining(self) -> int:
        """Alias matching Figure 4's 'remaining after coalescing' series."""
        return self.queue_size_after

    @property
    def offchip_bytes(self) -> int:
        """Off-chip traffic of this round (vertex lines read+written plus
        edge lines read), at cache-line granularity."""
        return (2 * self.vertex_lines + self.edge_lines) * 64


@dataclass
class FunctionalResult:
    """Output of a functional run."""

    values: np.ndarray
    rounds: List[RoundRecord]
    traffic: TrafficCounters
    total_events_processed: int
    total_events_produced: int
    converged: bool
    #: resilience activity summary; None unless resilience was enabled
    resilience: Optional[Dict] = None
    #: index of ``rounds[0]``: a run resumed from a checkpoint records
    #: only the rounds after it, and ``num_rounds`` still counts from 0
    first_round: int = 0

    @property
    def num_rounds(self) -> int:
        return self.first_round + len(self.rounds)

    def coalesce_rate(self) -> float:
        produced = self.total_events_produced
        if not produced:
            return 0.0
        absorbed = produced - self.total_events_processed
        return max(absorbed, 0) / produced


def _lookahead_bucket(lookahead: int) -> str:
    """Bucket label in the paper's Figure 8 style."""
    if lookahead <= 0:
        return "0"
    for bound in LOOKAHEAD_BUCKETS[1:]:
        if lookahead < bound:
            return f"<{bound}"
    return f">{LOOKAHEAD_BUCKETS[-1]}"


# ----------------------------------------------------------------------
# The per-bin kernel (Algorithm 1 lines 4-14 for one drained bin) and its
# byte accounting, shared by this engine and by every sliced engine.
# ----------------------------------------------------------------------


def _account_drain(
    graph: CSRGraph, vertices: np.ndarray, traffic: TrafficCounters
) -> None:
    """Charge one drain batch: read + write-back of its unique lines.

    A drain comes in sweep (ascending vertex) order, so the vertices on
    one line are adjacent and the unique lines are the line changes.
    """
    lines = graph.vertex_address(vertices) // _CACHE_LINE
    unique = 1 + int(np.count_nonzero(lines[1:] != lines[:-1]))
    traffic.vertex_bytes_fetched += 2 * unique * _CACHE_LINE
    traffic.vertex_bytes_useful += 2 * len(vertices) * graph.vertex_bytes


def process_bin(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    drained: BinDrain,
    state: np.ndarray,
    traffic: TrafficCounters,
    queue: CoalescingQueue,
    resilience: Optional[ResilienceHarness] = None,
    now: float = 0.0,
    owner: Optional[np.ndarray] = None,
    slice_index: int = 0,
    spill: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
    progress: float = 0.0,
) -> float:
    """Algorithm 1 lines 4-14 for one drained bin.

    The events of a drain are distinct vertices, so they cannot
    conflict.  Each is applied in sweep order through the scalar
    ``spec.apply`` / guard / ``should_propagate``, adding its |change|
    to ``progress`` in that order; the updated sum is returned.  All
    per-edge work is then done as arrays over the propagating vertices'
    out-edges: gather, ``spec.propagate_array``, identity drop, edge
    line accounting.  The messages, in event order then edge order, go
    to ``queue.insert_many``.  With ``owner`` (the vertex -> slice map)
    the messages for vertices outside ``slice_index`` go to
    ``spill(vertices, deltas, generations)`` instead, as columns in
    emission order, once per bin.  Under a resilience harness
    every message takes the per-message path in emission order:
    ``filter_insert`` for a local one, a one-message ``spill`` for a
    remote one.
    """
    if not len(drained.vertices):
        return progress
    _account_drain(graph, drained.vertices, traffic)
    progress, sources, changes, generations = _apply_drain(
        spec, drained, state, traffic, resilience, now, progress
    )
    if sources:
        dsts, deltas, generations = _messages(
            graph, spec, sources, changes, generations, traffic
        )
        if resilience is not None:
            remote = None if owner is None else owner[dsts] != slice_index
            for index, (dst, delta, generation) in enumerate(
                zip(dsts.tolist(), deltas.tolist(), generations.tolist())
            ):
                if remote is not None and remote[index]:
                    one = slice(index, index + 1)
                    spill(dsts[one], deltas[one], generations[one])
                    continue
                for survivor in resilience.filter_insert(
                    Event(dst, delta, generation), now
                ):
                    queue.insert_event(survivor)
            return progress
        if owner is not None:
            remote = owner[dsts] != slice_index
            # index arrays and ``take``: cheaper than boolean masks on
            # the few hundred messages of a drain
            sent = remote.nonzero()[0]
            if len(sent):
                spill(dsts.take(sent), deltas.take(sent), generations.take(sent))
                kept = (~remote).nonzero()[0]
                dsts, deltas, generations = (
                    dsts.take(kept),
                    deltas.take(kept),
                    generations.take(kept),
                )
        queue.insert_many(dsts, deltas, generations)
    return progress


def _apply_drain(
    spec: AlgorithmSpec,
    drained: BinDrain,
    state: np.ndarray,
    traffic: TrafficCounters,
    resilience: Optional[ResilienceHarness],
    now: float,
    progress: float,
) -> Tuple[float, List[int], List[float], List[int]]:
    """Apply a drain's events in sweep order.

    Returns the updated progress sum and, for each event whose change
    propagates, its vertex, change and the generation of its messages.
    """
    traffic.vertex_reads += len(drained.vertices)
    apply, should_propagate = spec.apply, spec.should_propagate
    written: List[int] = []
    values: List[float] = []
    sources: List[int] = []
    changes: List[float] = []
    generations: List[int] = []
    for u, old, delta, generation in zip(
        drained.vertices.tolist(),
        state[drained.vertices].tolist(),
        drained.deltas.tolist(),
        drained.generations.tolist(),
    ):
        new_state, change, changed = apply(old, delta)
        if not changed:
            continue
        written.append(u)
        if resilience is not None:
            ok, new_state = resilience.guard_value(u, new_state, now)
            if not ok:
                # quarantine: reset to identity, do not propagate garbage;
                # the quiescent invariant sweep repairs the vertex
                values.append(new_state)
                continue
        values.append(new_state)
        progress += abs(change) if math.isfinite(change) else 0.0
        if should_propagate(change):
            sources.append(u)
            changes.append(change)
            generations.append(generation + 1)
    if written:
        state[written] = values
        traffic.vertex_writes += len(written)
    return progress, sources, changes, generations


def propagate_edges(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    sources: np.ndarray,
    starts: np.ndarray,
    changes: np.ndarray,
    degrees: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every out-edge of every source, in source then edge order, as
    ``(destinations, deltas)``; identity deltas are kept.

    ``starts`` are the sources' first edges (``graph.offsets[sources]``),
    ``degrees`` their out-degrees and ``ends`` the running degree sum
    ``degrees.cumsum()``, whose last entry callers also charge as the
    edges scanned.  The deltas come from one ``spec.propagate_array``
    call, or from ``spec.propagate`` per edge when the spec has no array
    hook.  A drain has a few dozen sources, where numpy's fixed cost per
    call dominates, so the gather uses the method forms (``a.repeat``),
    which skip the function dispatch of ``np.repeat``.
    """
    total = int(ends[-1]) if len(ends) else 0
    # repeating by degree skips zero-degree sources by itself
    edges = np.arange(total, dtype=np.int64) + (
        starts - (ends - degrees)
    ).repeat(degrees)
    dsts = graph.adjacency[edges]
    weights = (
        graph.weights[edges]
        if spec.uses_weights and graph.weights is not None
        else 1.0
    )
    edge_changes = changes.repeat(degrees)
    edge_sources = sources.repeat(degrees)
    edge_degrees = degrees.repeat(degrees)
    if spec.propagate_array is not None:
        # silent IEEE overflow/NaN, like the scalar float arithmetic
        with np.errstate(all="ignore"):
            deltas = spec.propagate_array(
                edge_changes, edge_sources, dsts, weights, edge_degrees
            )
    else:
        propagate = spec.propagate
        deltas = np.array(
            [
                propagate(change, u, dst, weight, degree)
                for change, u, dst, weight, degree in zip(
                    edge_changes.tolist(),
                    edge_sources.tolist(),
                    dsts.tolist(),
                    np.broadcast_to(weights, total).tolist(),
                    edge_degrees.tolist(),
                )
            ],
            dtype=np.float64,
        )
    return dsts, deltas


def _messages(
    graph: CSRGraph,
    spec: AlgorithmSpec,
    sources: List[int],
    changes: List[float],
    generations: List[int],
    traffic: TrafficCounters,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-identity messages of the propagating vertices, as
    ``(destinations, deltas, generations)`` in event then edge order;
    charges the scanned edges."""
    src = np.array(sources, dtype=np.int64)
    degree_table, line_table = graph.edge_line_table()
    degrees = degree_table[src]
    # one degree sum per drain, shared by the counters and the gather
    ends = degrees.cumsum()
    total = int(ends[-1])
    traffic.edge_reads += total
    # the lines covering each source's contiguous CSR edge slice; a
    # zero-degree source scans none
    traffic.edge_bytes_fetched += int(line_table[src].sum()) * _CACHE_LINE
    traffic.edge_bytes_useful += total * graph.edge_bytes
    dsts, deltas = propagate_edges(
        graph,
        spec,
        src,
        graph.offsets[src],
        np.array(changes, dtype=np.float64),
        degrees,
        ends,
    )
    edge_generations = np.array(generations, dtype=np.int64).repeat(degrees)
    # Simplification property: a message equal to the identity is a no-op
    live = deltas != spec.identity
    if np.count_nonzero(live) == len(live):
        return dsts, deltas, edge_generations
    return dsts[live], deltas[live], edge_generations[live]


class FunctionalGraphPulse:
    """Event-faithful, untimed GraphPulse engine."""

    #: bin-visit orders the scheduler supports (Section IV-C notes that
    #: policies other than round-robin are possible):
    #: - ``round-robin``: the paper's default, bins in index order;
    #: - ``occupancy``: fullest bins first (drains the bulk of the
    #:   active set before stragglers, increasing coalescing windows);
    #: - ``reverse``: bins in descending index order (an adversarial
    #:   order — useful to demonstrate schedule independence).
    SCHEDULING_POLICIES = ("round-robin", "occupancy", "reverse")

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        *,
        num_bins: int = 64,
        block_size: int = 128,
        track_lookahead: bool = False,
        global_threshold: Optional[float] = None,
        max_rounds: int = 100_000,
        scheduling: str = "round-robin",
        timeseries: Optional[TimeSeries] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        """
        Parameters
        ----------
        graph, spec:
            The workload.
        num_bins, block_size:
            Queue geometry (Section IV-B/V defaults).
        track_lookahead:
            Record the Figure 8 histogram (small extra cost).
        global_threshold:
            Optional global termination: stop once a full round's summed
            |progress| drops below this (Section IV-C's accumulator).
            ``None`` runs until the queue empties.
        max_rounds:
            Safety bound; exceeded only by diverging configurations.
        scheduling:
            Bin-visit policy, one of :data:`SCHEDULING_POLICIES`.  The
            fixed point is policy-independent (the Reordering property);
            the amount of work is not.
        timeseries:
            Optional metrics sampler.  The functional engine is untimed,
            so its time domain is the round index: the sampler's
            ``interval`` counts rounds.
        resilience:
            Optional fault-injection / detection / recovery configuration
            (:class:`repro.resilience.ResilienceConfig`).  ``None`` (the
            default) keeps the engine on the fault-free fast path: one
            branch per site, bit-identical behaviour.
        """
        if scheduling not in self.SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {scheduling!r}; "
                f"expected one of {self.SCHEDULING_POLICIES}"
            )
        self.graph = graph
        self.spec = spec
        self.queue = CoalescingQueue(
            graph.num_vertices,
            spec.reduce,
            num_bins=num_bins,
            block_size=block_size,
            reduce_ufunc=spec.reduce_ufunc,
        )
        self.track_lookahead = track_lookahead
        self.global_threshold = global_threshold
        self.max_rounds = max_rounds
        self.scheduling = scheduling
        self.state = spec.initial_state(graph)
        self.timeseries = timeseries
        self._now = 0.0
        self._resumed = False
        self._resume_round = 0
        self._resume_totals: Counter = Counter()
        self.resilience: Optional[ResilienceHarness] = None
        if resilience is not None:
            self.resilience = ResilienceHarness(
                resilience, spec, graph, "functional", "bins"
            )
            if resilience.fault_plan.armed("bitflip"):
                self.queue.payload_check = lambda event: (
                    self.resilience.payload_ok(event, self._now)
                )
        if timeseries is not None:
            timeseries.add_gauge(
                "queue_occupancy", lambda: len(self.queue)
            )
            timeseries.add_gauge(
                "events_inserted", lambda: float(self.queue.stats.inserted)
            )
            timeseries.add_gauge(
                "events_drained", lambda: float(self.queue.stats.drained)
            )

    def _bin_visit_order(self) -> List[int]:
        """Bin indices in this round's drain order, per the policy."""
        queue = self.queue
        indices = range(queue.num_bins)
        if self.scheduling == "round-robin":
            return list(indices)
        if self.scheduling == "reverse":
            return list(reversed(indices))
        # occupancy: fullest first, index as tie-break for determinism
        return sorted(indices, key=lambda b: (-queue.bin_occupancy(b), b))

    # ------------------------------------------------------------------
    def restore(self, restored) -> None:
        """Adopt a durable checkpoint; the next ``run`` continues from it.

        The capture was taken *after* round ``restored.round_index``
        completed (the engine checkpoints before incrementing its round
        counter), so execution resumes at the following round with the
        checkpoint's vertex state, queue contents, running totals, and
        fault-injector RNG cursor — everything the continuation needs to
        be bit-identical to the uninterrupted run.
        """
        self.state[:] = restored.state
        self.queue.restore(restored.queue_snapshot)
        self._resume_round = restored.round_index + 1
        self._resume_totals = Counter(restored.totals)
        if self.resilience is not None and restored.fault_cursor:
            self.resilience.injector.restore_cursor(restored.fault_cursor)
        self._resumed = True

    # ------------------------------------------------------------------
    def run(self) -> FunctionalResult:
        """Execute until convergence; returns values plus measurements."""
        graph, spec, queue = self.graph, self.spec, self.queue
        state = self.state
        traffic = TrafficCounters()
        rounds: List[RoundRecord] = []
        total_processed = self._resume_totals["events_processed"]
        total_produced = self._resume_totals["events_produced"]

        if not self._resumed:
            for vertex, delta in spec.initial_events(graph).items():
                queue.insert(vertex, delta)
                total_produced += 1

        round_index = self._resume_round

        def one_round() -> float:
            nonlocal round_index, total_processed, total_produced
            record = self._run_round(round_index, state, traffic)
            rounds.append(record)
            total_processed += record.events_processed
            total_produced += record.events_produced
            if obs_trace.ACTIVE is not None:
                probe.round_span(
                    "functional",
                    round_index,
                    float(round_index),
                    float(round_index + 1),
                    events_processed=record.events_processed,
                    events_produced=record.events_produced,
                    events_coalesced=record.events_coalesced,
                    queue_after=record.queue_size_after,
                    progress=record.progress,
                )
            if obs_metrics.ACTIVE is not None:
                obs_metrics.round_tick(
                    "functional",
                    round_index,
                    events_processed=record.events_processed,
                )
            if self.timeseries is not None:
                self.timeseries.advance(round_index + 1)
            if self.resilience is not None:
                self.resilience.maybe_checkpoint(
                    round_index,
                    float(round_index + 1),
                    state,
                    queue,
                    totals={
                        "events_processed": total_processed,
                        "events_produced": total_produced,
                    },
                )
            round_index += 1
            return record.progress

        run_to_fixed_point(
            one_round,
            queue,
            engine="functional",
            algorithm=spec.name,
            budget=self.max_rounds,
            unit="rounds",
            at=lambda: float(round_index),
            harness=self.resilience,
            state=state,
            inject=self._inject_repair,
            restore=self._restore_checkpoint,
            global_threshold=self.global_threshold,
        )
        return FunctionalResult(
            values=state,
            rounds=rounds,
            traffic=traffic,
            total_events_processed=total_processed,
            total_events_produced=total_produced,
            converged=True,
            resilience=(
                self.resilience.summary()
                if self.resilience is not None
                else None
            ),
            first_round=self._resume_round,
        )

    def _inject_repair(self, vertex: int, delta: float) -> None:
        """Route a repair event straight into the queue (verified write)."""
        self.queue.insert(vertex, delta)

    def _restore_checkpoint(self, checkpoint) -> None:
        """Roll vertex state and queue contents back to a checkpoint."""
        self.state[:] = checkpoint.state
        self.queue.restore(checkpoint.queue_snapshot)

    # ------------------------------------------------------------------
    def _run_round(
        self,
        round_index: int,
        state: np.ndarray,
        traffic: TrafficCounters,
    ) -> RoundRecord:
        graph, spec, queue = self.graph, self.spec, self.queue
        self._now = float(round_index)
        inserted_before = queue.stats.inserted
        coalesced_before = queue.stats.coalesced
        edge_reads_before = traffic.edge_reads
        vertex_lines_before = traffic.vertex_bytes_fetched
        edge_lines_before = traffic.edge_bytes_fetched
        processed = 0
        progress = 0.0
        histogram: Dict[str, int] = {}

        for bin_index in self._bin_visit_order():
            drained = queue.drain_bin_arrays(bin_index)
            if not len(drained.vertices):
                continue
            processed += len(drained.vertices)
            if self.track_lookahead:
                for generation in drained.generations.tolist():
                    bucket = _lookahead_bucket(generation - round_index)
                    histogram[bucket] = histogram.get(bucket, 0) + 1
            progress = process_bin(
                graph, spec, drained, state, traffic, queue,
                self.resilience, self._now, progress=progress,
            )

        return RoundRecord(
            round_index=round_index,
            events_processed=processed,
            events_produced=queue.stats.inserted - inserted_before,
            events_coalesced=queue.stats.coalesced - coalesced_before,
            queue_size_after=len(queue),
            progress=progress,
            lookahead_histogram=histogram,
            edges_scanned=traffic.edge_reads - edge_reads_before,
            vertex_lines=(traffic.vertex_bytes_fetched - vertex_lines_before)
            // (2 * _CACHE_LINE),
            edge_lines=(traffic.edge_bytes_fetched - edge_lines_before)
            // _CACHE_LINE,
        )
