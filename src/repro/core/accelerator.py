"""Cycle-level GraphPulse accelerator model (paper Sections IV and V).

This model executes the exact event semantics of the functional engine
(so its converged values are bit-identical to
:class:`repro.core.functional.FunctionalGraphPulse` and validated against
the golden references) while timing every step against modelled hardware
resources:

- bins drain round-robin at ``drain_events_per_cycle`` (the row sweep
  with occupancy bit-vector, Section IV-D); the sweep is backpressured
  by dispatch — the scheduler dequeues "when it detects an idle
  processor";
- every event is dispatched no earlier than its insertion into the
  queue completed (its ``ready`` cycle), so pipeline latency through the
  crossbar and the 4-stage coalescer is respected end to end;
- the scheduler's arbiter tree grants one dispatch per cycle per stage
  and hands events to idle event processors (Section IV-C);
- each processor is a serial state machine: vertex read → reduce/apply
  (4-stage pipeline) → local-termination check → hand-off into a
  generation stream's input buffer (Section IV-E);
- generation streams (Section V, Figure 9) have a small admission
  buffer: the processor stalls only when every stream's buffer is full
  (the paper's Figure 14 "stalling" state).  The buffer prefetches the
  CSR edge slice through an edge cache with N-block lookahead, the
  stream emits one event per cycle, and events flow through the 16×16
  crossbar into the per-bin pipelined coalescers;
- with prefetching enabled, events are dispatched in *blocks* of
  spatially-adjacent vertices; the prefetcher pulls the block's vertex
  lines while the block waits in the input buffer, so processors see
  ~1-cycle vertex reads, and dirty lines write back once per block;
- all off-chip traffic flows through the 4-channel DDR3 model, so
  bandwidth saturation and row-buffer behaviour shape the timeline.

The run produces the per-stage event profile of Figure 13, the
processor/generator occupancy breakdown of Figure 14, and off-chip
traffic counters for Figures 11-12, alongside the converged vertex
values.

Per-bin routing.  The events a drained bin generates are routed as
arrays once the bin is dispatched.  Generation stays scalar per edge
*line*, because the edge cache and the prefetch schedule are stateful;
each line records its edge count and first emit cycle (a stream emits
one event per cycle).  After the bin, :meth:`GraphPulseAccelerator._route`
gathers the edges, propagates them with one ``propagate_array`` call
(scalar ``propagate`` without the hook), drops identity messages, runs
the crossbar input ports, output ports and bin coalescer pipelines as
next-free chains in call order (:meth:`Crossbar.send_many`,
:meth:`PipelinedResource.issue_many`), folds each bin's latest
insertion with ``np.maximum.at`` and inserts through
:meth:`CoalescingQueue.insert_many` with the insertion completions as
ready cycles.  This is exact:

- between a bin's dispatch and the next drain nothing reads the
  crossbar, the pipelines or the queue;
- a unit with constant service ``c`` obeys ``s_k = max(a_k,
  s_{k-1} + c)``, so ``s_k - k*c`` is a running max of ``a_k - k*c``
  seeded with the unit's next free cycle, which one grouped
  ``np.maximum.accumulate`` reproduces (:func:`repro.sim.kernel.next_free_chain`);
- each chain depends only on the stage before it, so the stages run
  one after another over the whole bin.

Under a resilience harness whose fault plan arms an insertion fault
(``drop``, ``duplicate`` or ``bitflip``: ``filter_insert`` and the
parity payload check act per message) or an installed tracer (one probe
per send) every event takes the per-edge
:meth:`GraphPulseAccelerator._emit` path instead.  A harness that only
checkpoints, retries DRAM reads or kills lanes leaves every message as
it is, so its bins are routed as arrays too; when its plan arms another
event kind the routed bin advances the insertion opportunity counters
by its message count (:meth:`ResilienceHarness.pass_inserts`), as
``filter_insert`` would per message.
``tests/core/test_cycle_differential.py`` keeps the per-edge path as
the oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..graph import CSRGraph
from ..memory.cache import Cache, CacheConfig
from ..memory.dram import DRAMSystem
from ..memory.request import MemoryRequest
from ..network.arbiter import ArbiterTree
from ..network.crossbar import Crossbar
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from ..obs.timeseries import TimeSeries
from ..resilience.harness import ResilienceConfig, ResilienceHarness
from ..resilience.watchdog import run_to_fixed_point
from ..sim.kernel import PipelinedResource, Resource
from ..sim.stats import StatSet
from .config import GraphPulseConfig, optimized_config
from .event import Event
from .functional import propagate_edges
from .queue import CoalescingQueue

__all__ = [
    "GraphPulseAccelerator",
    "CycleResult",
    "StageProfile",
    "OccupancyProfile",
]

_LINE = 64


@dataclass
class StageProfile:
    """Cycles spent by events in each execution stage (Figure 13).

    Chronological stages, matching the paper's stacking order:
    vertex memory → process → generation buffer → edge memory → generate.
    """

    vertex_mem: float = 0.0
    process: float = 0.0
    gen_buffer: float = 0.0
    edge_mem: float = 0.0
    generate: float = 0.0
    events: int = 0

    def per_event(self) -> Dict[str, float]:
        n = max(self.events, 1)
        return {
            "vertex_mem": self.vertex_mem / n,
            "process": self.process / n,
            "gen_buffer": self.gen_buffer / n,
            "edge_mem": self.edge_mem / n,
            "generate": self.generate / n,
        }


@dataclass
class OccupancyProfile:
    """Processor and generator time breakdown (Figure 14)."""

    processor_vertex_read: float = 0.0
    processor_process: float = 0.0
    processor_stall: float = 0.0
    generator_edge_read: float = 0.0
    generator_generate: float = 0.0
    generator_stall: float = 0.0

    def processor_fractions(
        self, horizon: int, num_processors: int
    ) -> Dict[str, float]:
        total = max(horizon * num_processors, 1)
        busy = (
            self.processor_vertex_read
            + self.processor_process
            + self.processor_stall
        )
        return {
            "vertex_read": self.processor_vertex_read / total,
            "process": self.processor_process / total,
            "stall": self.processor_stall / total,
            "idle": max(0.0, 1.0 - busy / total),
        }

    def generator_fractions(
        self, horizon: int, num_generators: int
    ) -> Dict[str, float]:
        total = max(horizon * num_generators, 1)
        busy = (
            self.generator_edge_read
            + self.generator_generate
            + self.generator_stall
        )
        return {
            "edge_read": self.generator_edge_read / total,
            "generate": self.generator_generate / total,
            "stall": self.generator_stall / total,
            "idle": max(0.0, 1.0 - busy / total),
        }


@dataclass
class CycleResult:
    """Output of a cycle-level run."""

    values: np.ndarray
    total_cycles: int
    num_rounds: int
    events_processed: int
    events_produced: int
    stage_profile: StageProfile
    occupancy: OccupancyProfile
    dram_stats: Dict[str, float]
    queue_stats: Dict[str, float]
    config: GraphPulseConfig
    converged: bool
    #: useful bytes actually consumed (Figure 12 numerator)
    useful_bytes: float = 0.0
    #: resilience activity summary; None unless resilience was enabled
    resilience: Optional[Dict] = None
    #: off-chip bytes before the checkpoint a resumed run restored
    #: (``dram_stats`` covers this process's rounds only)
    prior_offchip_bytes: float = 0.0

    @property
    def seconds(self) -> float:
        return self.total_cycles * self.config.seconds_per_cycle()

    @property
    def offchip_bytes(self) -> float:
        return self.prior_offchip_bytes + self.dram_stats.get("bytes", 0.0)

    def data_utilization(self) -> float:
        """Fraction of fetched off-chip bytes used (Figure 12)."""
        fetched = self.offchip_bytes
        return min(self.useful_bytes / fetched, 1.0) if fetched else 1.0


class _GenerationStream:
    """One decoupled generation stream with a small admission buffer.

    ``jobs`` holds the completion cycles of admitted generations (serial,
    so ascending).  A new job can be admitted once fewer than
    ``buffer_entries`` previously-admitted jobs are still unfinished;
    processors stall until then (Figure 14's stall state).
    """

    def __init__(self, index: int, buffer_entries: int):
        self.index = index
        self.buffer_entries = buffer_entries
        self.cursor = 0  #: cycle the stream finishes its admitted work
        self.jobs: List[int] = []

    def admission_time(self, at: int) -> int:
        """Earliest cycle a job arriving at ``at`` can enter the buffer."""
        if len(self.jobs) < self.buffer_entries:
            return at
        # the buffer frees a slot when the oldest of the last
        # ``buffer_entries`` jobs completes
        free_at = self.jobs[-self.buffer_entries]
        return free_at if free_at > at else at

    def admit(self, completion: int) -> None:
        self.jobs.append(completion)
        if len(self.jobs) > 4 * self.buffer_entries:
            del self.jobs[: -2 * self.buffer_entries]
        self.cursor = completion


class _BinEmissions:
    """What one drained bin's generation emits, per source and per edge
    line, for :meth:`GraphPulseAccelerator._route` (module docs)."""

    __slots__ = (
        "streams",
        "sources",
        "changes",
        "degrees",
        "generations",
        "line_at",
        "line_counts",
    )

    def __init__(self) -> None:
        self.streams: List[int] = []
        self.sources: List[int] = []
        self.changes: List[float] = []
        self.degrees: List[int] = []
        self.generations: List[int] = []
        #: first emit cycle of each edge line, and its edge count
        self.line_at: List[int] = []
        self.line_counts: List[int] = []


class GraphPulseAccelerator:
    """Resource-timed cycle model of the GraphPulse accelerator."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        config: Optional[GraphPulseConfig] = None,
        *,
        global_threshold: Optional[float] = None,
        max_rounds: int = 10_000,
        timeseries: Optional[TimeSeries] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.graph = graph
        self.spec = spec
        self.config = config or optimized_config()
        self.global_threshold = global_threshold
        self.max_rounds = max_rounds
        #: optional metrics sampler; gauges are registered below and
        #: sampled at every interval boundary a round barrier crosses
        self.timeseries = timeseries

        cfg = self.config
        self.queue = CoalescingQueue(
            graph.num_vertices,
            spec.reduce,
            num_bins=cfg.num_bins,
            block_size=cfg.queue_block_size,
            capacity_vertices=cfg.queue_capacity_events,
            reduce_ufunc=spec.reduce_ufunc,
        )
        self.dram = DRAMSystem(cfg.dram)
        self.crossbar = Crossbar(
            "xbar",
            num_ports=cfg.crossbar_ports,
            sources_per_port=max(
                1, cfg.total_generation_streams // cfg.crossbar_ports
            ),
            traversal_cycles=cfg.crossbar_traversal_cycles,
        )
        self.sched_arbiter = ArbiterTree(
            "sched",
            cfg.num_processors,
            fan_in=cfg.scheduler_arbiter_fan_in,
        )
        self.processors = [
            Resource(f"proc{i}") for i in range(cfg.num_processors)
        ]
        self.streams = [
            _GenerationStream(i, cfg.generation_buffer_entries)
            for i in range(cfg.total_generation_streams)
        ]
        # streams i*G..(i+1)*G-1 form processor i's generation unit
        per_proc = cfg.total_generation_streams // cfg.num_processors
        self._stream_units = [
            self.streams[i * per_proc: (i + 1) * per_proc]
            for i in range(cfg.num_processors)
        ]
        self.edge_caches = [
            Cache(
                f"edgecache{i}",
                CacheConfig(cfg.edge_cache_bytes, line_bytes=_LINE),
                self.dram,
            )
            for i in range(cfg.num_processors)
        ]
        self.bin_pipelines = [
            PipelinedResource(f"bin{b}", 1, cfg.coalescer_latency_cycles)
            for b in range(cfg.num_bins)
        ]
        self.stats = StatSet("graphpulse")

        self.state = spec.initial_state(graph)
        # per-vertex reads on the generation path index Python lists
        self._offsets: List[int] = graph.offsets.tolist()
        self._out_degrees: List[int] = graph.out_degrees().tolist()
        self._edge_region_base = graph.edge_region_base
        #: edge lines a generation stream prefetches ahead of its cursor
        self._edge_prefetch_depth = (
            cfg.edge_prefetch_blocks if cfg.prefetch_enabled else 1
        )
        self.stage = StageProfile()
        self.occupancy = OccupancyProfile()
        self._useful_bytes = 0.0
        #: completion cycle of the latest insertion into each bin
        self._bin_insert_done = np.zeros(cfg.num_bins, dtype=np.int64)
        self._now = 0.0
        self._resumed = False
        self._start_rounds = 0
        self._start_cycle = 0
        self._start_processed = 0
        self._start_produced = 0
        self._start_offchip = 0.0
        self.resilience: Optional[ResilienceHarness] = None
        #: bins are routed as arrays unless an insertion fault is armed
        #: (the per-edge path applies it per message; module docs)
        self._route_bins = (
            resilience is None or not resilience.fault_plan.any_insert_faults
        )
        if resilience is not None:
            self.resilience = ResilienceHarness(
                resilience, spec, graph, "cycle", "bins"
            )
            if resilience.fault_plan.armed("bitflip"):
                self.queue.payload_check = lambda event: (
                    self.resilience.payload_ok(event, self._now)
                )
        if self.timeseries is not None:
            self._register_gauges(self.timeseries)

    def _register_gauges(self, series: TimeSeries) -> None:
        """Wire the standard cycle-model gauges into a TimeSeries."""
        series.add_gauge("queue_occupancy", lambda: len(self.queue))
        series.add_gauge(
            "dram_bytes", lambda: self.dram.stats.get("bytes")
        )
        series.add_gauge(
            "processor_busy_cycles",
            lambda: self.occupancy.processor_vertex_read
            + self.occupancy.processor_process
            + self.occupancy.processor_stall,
        )
        series.add_gauge(
            "events_inserted", lambda: float(self.queue.stats.inserted)
        )
        series.add_gauge(
            "events_drained", lambda: float(self.queue.stats.drained)
        )

    # ------------------------------------------------------------------
    def restore(self, restored) -> None:
        """Adopt a durable checkpoint; the next ``run`` continues from it.

        The cycle engine checkpoints with its already-incremented round
        count, so the counter resumes exactly there; the clock resumes
        at the capture cycle, and the event, off-chip and useful byte
        counters at the checkpoint's totals.  Values and the round count
        are timing-independent (events are applied in drain order), so
        the continued run converges to bit-identical state at the same
        round; resource pipelines and caches restart cold, making
        post-resume cycle counts and off-chip bytes approximate rather
        than bit-equal.
        """
        self.state[:] = restored.state
        self.queue.restore(restored.queue_snapshot)
        totals = Counter(restored.totals)  # a missing key reads as 0
        self._start_rounds = restored.round_index
        self._start_cycle = int(restored.at)
        self._start_processed = totals["events_processed"]
        self._start_produced = totals["events_produced"]
        self._start_offchip = float(totals["offchip_bytes"])
        self._useful_bytes = float(totals["useful_bytes"])
        if self.resilience is not None and restored.fault_cursor:
            self.resilience.injector.restore_cursor(restored.fault_cursor)
        self._resumed = True

    # ------------------------------------------------------------------
    def run(self) -> CycleResult:
        """Run to convergence; returns timing, profiles and values."""
        spec, queue = self.spec, self.queue
        if not self._resumed:
            for vertex, delta in spec.initial_events(self.graph).items():
                queue.insert(vertex, delta)

        now = self._start_cycle
        rounds = self._start_rounds
        events_processed = self._start_processed

        def one_round() -> float:
            nonlocal now, rounds, events_processed
            round_start = now
            produced_before = queue.stats.inserted
            now, processed, progress = self._run_round(now)
            rounds += 1
            events_processed += processed
            if obs_trace.ACTIVE is not None:
                probe.round_span(
                    "cycle",
                    rounds - 1,
                    round_start,
                    now,
                    events_processed=processed,
                    events_produced=queue.stats.inserted - produced_before,
                    queue_after=len(queue),
                    progress=progress,
                )
            if obs_metrics.ACTIVE is not None:
                obs_metrics.round_tick(
                    "cycle", rounds - 1, events_processed=processed
                )
            if self.timeseries is not None:
                self.timeseries.advance(now)
            if self.resilience is not None:
                self.resilience.maybe_checkpoint(
                    rounds,
                    float(now),
                    self.state,
                    queue,
                    totals={
                        "events_processed": events_processed,
                        "events_produced": self._start_produced
                        + int(queue.stats.inserted),
                        "offchip_bytes": self._start_offchip
                        + self.dram.stats.get("bytes"),
                        "useful_bytes": self._useful_bytes,
                    },
                )
            return progress

        def clock() -> float:
            # repair events are stamped with the engine clock
            self._now = float(now)
            return self._now

        run_to_fixed_point(
            one_round,
            queue,
            engine="cycle",
            algorithm=spec.name,
            budget=self.max_rounds,
            unit="rounds",
            at=clock,
            harness=self.resilience,
            state=self.state,
            inject=self._inject_repair,
            restore=self._restore_checkpoint,
            global_threshold=self.global_threshold,
        )
        return CycleResult(
            values=self.state,
            total_cycles=now,
            num_rounds=rounds,
            events_processed=events_processed,
            events_produced=self._start_produced + int(queue.stats.inserted),
            stage_profile=self.stage,
            occupancy=self.occupancy,
            dram_stats=self.dram.stats.snapshot(),
            queue_stats={
                "inserted": queue.stats.inserted,
                "coalesced": queue.stats.coalesced,
                "drained": queue.stats.drained,
                "peak_occupancy": queue.stats.peak_occupancy,
            },
            config=self.config,
            converged=True,
            useful_bytes=self._useful_bytes,
            resilience=(
                self.resilience.summary()
                if self.resilience is not None
                else None
            ),
            prior_offchip_bytes=self._start_offchip,
        )

    # ------------------------------------------------------------------
    # Resilience callbacks
    # ------------------------------------------------------------------
    def _inject_repair(self, vertex: int, delta: float) -> None:
        """Re-inject a lost/corrective delta discovered by the invariant
        sweep; the event enters the queue as if freshly produced."""
        self.queue.insert(vertex, delta, 0, int(self._now))

    def _restore_checkpoint(self, checkpoint) -> None:
        """Roll state and pending events back to a checkpoint."""
        self.state[:] = checkpoint.state
        self.queue.restore(checkpoint.queue_snapshot)

    # ------------------------------------------------------------------
    def _run_round(self, start: int) -> Tuple[int, int, float]:
        """One round-robin pass over all bins; returns (end, count, progress)."""
        cfg = self.config
        cursor = start
        barrier = start
        processed = 0
        progress = 0.0
        for bin_index in range(cfg.num_bins):
            self._now = float(cursor)
            batch = self.queue.drain_bin(bin_index)
            if not batch:
                continue  # occupancy bit-vector skips empty rows
            drain_start = cursor
            if obs_trace.ACTIVE is not None:
                probe.queue_drain(
                    bin_index, drain_start, len(batch), len(self.queue)
                )
            drain_cycles = -(-len(batch) // cfg.drain_events_per_cycle)
            last_dispatch, last_done, prog = self._dispatch_batch(
                batch, drain_start
            )
            barrier = max(barrier, last_done)
            progress += prog
            processed += len(batch)
            # The scheduler dequeues "when it detects an idle processor";
            # the sweep is backpressured by dispatch.
            cursor = max(drain_start + drain_cycles, last_dispatch)
        # Round barrier: "the scheduler waits until all the cores are
        # idle before rolling over to the first bin again" — including
        # insertions still flowing into the queue.
        barrier = max(
            barrier,
            cursor,
            max((p.next_free for p in self.processors), default=0),
            max((s.cursor for s in self.streams), default=0),
            int(self._bin_insert_done.max()),
        )
        return barrier, processed, progress

    def _dispatch_batch(
        self, batch: List[Event], drain_start: int
    ) -> Tuple[int, int, float]:
        """Dispatch one bin's drained events.

        Returns ``(last_dispatch_start, last_completion, progress)``;
        the first feeds the sweep backpressure, the second the round
        barrier.  The bin's generated events are routed once the
        dispatch is done, except on the per-edge path (module docs).
        """
        cfg = self.config
        emissions = (
            _BinEmissions()
            if self._route_bins and obs_trace.ACTIVE is None
            else None
        )
        last_dispatch = drain_start
        last_done = drain_start
        progress = 0.0
        if cfg.prefetch_enabled:
            groups = self._group_by_block(batch)
        else:
            groups = [[e] for e in batch]

        index = 0
        for group in groups:
            sweep = drain_start + 1 + index // cfg.drain_events_per_cycle
            # the group is dispatched when its first events are in the
            # output buffer; individual events that are still flowing
            # through crossbar + coalescer gate only themselves
            avail = max(sweep, min(e.ready for e in group))
            index += len(group)
            dispatched, done, prog = self._run_group(group, avail, emissions)
            last_dispatch = max(last_dispatch, dispatched)
            last_done = max(last_done, done)
            progress += prog
        if emissions is not None:
            self._route(emissions)
        return last_dispatch, last_done, progress

    def _group_by_block(self, batch: List[Event]) -> List[List[Event]]:
        """Split a sweep-ordered batch into spatial blocks (Section V)."""
        size = self.config.prefetch_block_size
        groups: List[List[Event]] = []
        current_block = None
        for event in batch:
            block = event.vertex // size
            if block != current_block:
                groups.append([])
                current_block = block
            groups[-1].append(event)
        return groups

    # ------------------------------------------------------------------
    def _run_group(
        self,
        group: List[Event],
        avail: int,
        emissions: Optional[_BinEmissions],
    ) -> Tuple[int, int, float]:
        """Run one dispatch group on one processor.

        Returns ``(dispatch_start, last_completion, progress)``.
        Generated events go to ``emissions``, or through :meth:`_emit`
        one by one when it is None.

        The per-event loop reads locals only: the config, the tracer
        test and the bound methods are looked up once per group, and the
        Figure 13/14 profile terms and the useful bytes are summed in
        locals and added to their fields once, at the end.  Every term
        is an integer cycle or byte count below 2**53, so the float
        fields end exactly where per-event additions would leave them.
        """
        cfg = self.config
        graph, spec = self.graph, self.spec
        resilience = self.resilience
        tracing = obs_trace.ACTIVE is not None
        prefetch = cfg.prefetch_enabled
        process_cycles = cfg.process_pipeline_cycles
        vertex_bytes = graph.vertex_bytes
        vertex_address = graph.vertex_address
        dram = self.dram
        # vertex requests skip MemoryRequest's checks: the graph layout's
        # addresses are never negative and its sizes are positive
        request = tuple.__new__

        processors = self.processors
        if resilience is not None:
            lanes = resilience.alive_lanes(cfg.num_processors, avail)
        else:
            lanes = range(cfg.num_processors)
        proc_index = min(lanes, key=lambda i: processors[i].next_free)
        proc = processors[proc_index]
        grant = self.sched_arbiter.request(proc_index, avail)
        t = max(grant, proc.next_free)
        dispatch_start = t

        # Vertex prefetch: pull the block's unique vertex lines once,
        # issued from the input-buffer window as soon as the events are
        # available so DRAM latency overlaps any wait for the processor.
        # ``fills`` pairs each event with its line's fill time; each
        # event's line is computed once.
        line_ready: Dict[int, int] = {}
        fills: Iterable[int] = repeat(0)
        if prefetch:
            event_lines = [vertex_address(e.vertex) // _LINE for e in group]
            for line in sorted(set(event_lines)):
                done = dram.access(
                    request(MemoryRequest, (line * _LINE, _LINE, False, "vertex")),
                    avail,
                ).done_cycle
                if resilience is not None:
                    # transient read error: ECC retry delays the fill
                    done += int(resilience.dram_delay(float(done)))
                line_ready[line] = done
            fills = [line_ready[line] for line in event_lines]

        state = self.state
        apply, should_propagate = spec.apply, spec.should_propagate
        out_degrees = self._out_degrees
        edge_bytes = graph.edge_bytes
        cache = self.edge_caches[proc_index]
        units = self._stream_units[proc_index]
        entries = cfg.generation_buffer_entries
        parallel = cfg.parallel_generation_enabled
        # the group's profile terms and useful bytes (docstring)
        vertex_mem = stall = gen_buffer = edge_mem = generate = useful = 0
        last_done = t
        progress = 0.0
        block_dirty = False
        for event, filled in zip(group, fills):
            u = event.vertex
            ready = event.ready
            # an event cannot be processed before its insertion into the
            # queue completed (lookahead events arrive mid-round)
            start = ready if ready > t else t
            # --- vertex read ------------------------------------------
            if prefetch:
                v_done = (filled if filled > start else start) + 1
            else:
                v_done = dram.access(
                    request(
                        MemoryRequest,
                        (vertex_address(u), vertex_bytes, False, "vertex"),
                    ),
                    start,
                ).done_cycle
                if resilience is not None:
                    v_done += int(resilience.dram_delay(float(v_done)))
            vertex_mem += v_done - start

            # --- reduce / apply ---------------------------------------
            new_state, change, changed = apply(state.item(u), event.delta)
            p_done = v_done + process_cycles
            useful += vertex_bytes  # the read

            t = p_done
            if not changed:
                if p_done > last_done:
                    last_done = p_done
                if tracing:
                    probe.event_process(
                        proc_index,
                        start,
                        p_done,
                        vertex=u,
                        vertex_mem=v_done - start,
                        process=process_cycles,
                    )
                continue

            quarantined = False
            if resilience is not None:
                ok, new_state = resilience.guard_value(
                    u, new_state, float(p_done)
                )
                quarantined = not ok
            state[u] = new_state
            useful += vertex_bytes  # the write-back
            block_dirty = True
            if not prefetch:
                dram.access(
                    request(
                        MemoryRequest,
                        (vertex_address(u), vertex_bytes, True, "vertex"),
                    ),
                    p_done,
                )
            if quarantined:
                # poisoned value was reset to identity: never propagate
                # garbage; the quiescent sweep repairs the vertex later
                if p_done > last_done:
                    last_done = p_done
                if tracing:
                    probe.event_process(
                        proc_index,
                        start,
                        p_done,
                        vertex=u,
                        vertex_mem=v_done - start,
                        process=process_cycles,
                    )
                continue
            if math.isfinite(change):
                progress += abs(change)

            degree = out_degrees[u]
            if not should_propagate(change) or degree == 0:
                if p_done > last_done:
                    last_done = p_done
                if tracing:
                    probe.event_process(
                        proc_index,
                        start,
                        p_done,
                        vertex=u,
                        vertex_mem=v_done - start,
                        process=process_cycles,
                    )
                continue

            # --- hand off into a generation stream's buffer -----------
            # the first stream with the earliest admission
            # (:meth:`_GenerationStream.admission_time`, inlined); none
            # admits before ``p_done``, so one that admits then wins
            stream = None
            for candidate in units:
                jobs = candidate.jobs
                if len(jobs) < entries:
                    stream, admitted = candidate, p_done
                    break
                free_at = jobs[-entries]
                if free_at <= p_done:
                    stream, admitted = candidate, p_done
                    break
                if stream is None or free_at < admitted:
                    stream, admitted = candidate, free_at
            # the processor stalls only while every buffer is full
            stall += admitted - p_done

            gen_done, gen_start, wait, cycles = self._generate(
                stream, cache, event, change, degree, admitted, emissions
            )
            useful += degree * edge_bytes
            gen_buffer += gen_start - p_done
            edge_mem += wait
            generate += cycles
            if tracing:
                probe.event_process(
                    proc_index,
                    start,
                    p_done,
                    vertex=u,
                    vertex_mem=v_done - start,
                    process=process_cycles,
                    gen_buffer=gen_start - p_done,
                    stall=admitted - p_done,
                )
            if gen_done > last_done:
                last_done = gen_done
            # The processor is free as soon as the hand-off happens; the
            # stream works independently (decoupled units, Figure 9).
            t = admitted if parallel else gen_done

        proc.next_free = t
        processed = len(group)
        stage, occupancy = self.stage, self.occupancy
        stage.vertex_mem += vertex_mem
        stage.process += processed * process_cycles
        stage.gen_buffer += gen_buffer
        stage.edge_mem += edge_mem
        stage.generate += generate
        stage.events += processed
        occupancy.processor_vertex_read += vertex_mem
        occupancy.processor_process += processed * process_cycles
        occupancy.processor_stall += stall
        occupancy.generator_edge_read += edge_mem
        occupancy.generator_generate += generate
        self._useful_bytes += useful
        if prefetch and line_ready and block_dirty:
            # write back the block's dirty vertex lines once
            for line in line_ready:
                dram.access(
                    request(MemoryRequest, (line * _LINE, _LINE, True, "vertex")),
                    t,
                )
        return dispatch_start, last_done, progress

    # ------------------------------------------------------------------
    def _generate(
        self,
        stream: _GenerationStream,
        cache: Cache,
        event: Event,
        change: float,
        degree: int,
        admitted: int,
        emissions: Optional[_BinEmissions],
    ) -> Tuple[int, int, int, int]:
        """Generate outgoing events for one vertex on one stream.

        The edge lines are read through ``cache`` (the processor's edge
        cache) and timed here.  Their events are recorded in
        ``emissions`` for :meth:`_route`, or, when it is None,
        propagated and sent through :meth:`_emit` edge by edge.
        Returns ``(completion_cycle, generation_start_cycle,
        edge_wait_cycles, generate_cycles)``; the caller adds the last
        two to the profiles.
        """
        u = event.vertex
        offsets = self._offsets
        first_edge = offsets[u]
        stop_edge = offsets[u + 1]
        eb = self.graph.edge_bytes
        base = self._edge_region_base
        first_line = (base + first_edge * eb) // _LINE
        stop_line = (base + stop_edge * eb - 1) // _LINE + 1

        generation = event.generation + 1
        if emissions is None:
            graph, spec = self.graph, self.spec
            neighbors = graph.neighbors(u)
            weights = graph.edge_weights(u) if spec.uses_weights else None
        else:
            emissions.streams.append(stream.index)
            emissions.sources.append(u)
            emissions.changes.append(change)
            emissions.degrees.append(degree)
            emissions.generations.append(generation)
            line_at = emissions.line_at
            line_counts = emissions.line_counts

        # Edge-line arrival schedule.  The buffer prefetches up to N
        # lines ahead using the degree hint, starting at admission, so
        # fills overlap the tail of the previous job.
        prefetch_depth = self._edge_prefetch_depth
        if stop_line - first_line < prefetch_depth:
            prefetch_depth = stop_line - first_line
        gen_start = stream.cursor if stream.cursor > admitted else admitted
        cursor = gen_start
        consume_time: List[int] = []
        edge_wait = 0
        gen_cycles = 0
        emitted = 0

        # the edges whose records start in each line, [lo, hi); a line's
        # range starts where the previous line's ended
        lo = first_edge
        for i, line in enumerate(range(first_line, stop_line)):
            if i < prefetch_depth:
                issue_at = admitted
            else:
                issue_at = consume_time[i - prefetch_depth]
            done = cache.access(line * _LINE, issue_at, kind="edge").done_cycle
            if done > cursor:
                edge_wait += done - cursor
                cursor = done
            hi = ((line + 1) * _LINE - base + eb - 1) // eb
            if hi > stop_edge:
                hi = stop_edge
            if emissions is not None:
                count = hi - lo
                line_at.append(cursor + 1)
                line_counts.append(count)
                cursor += count  # one event per cycle per stream
                gen_cycles += count
                consume_time.append(cursor)
                lo = hi
                continue
            for k in range(lo - first_edge, hi - first_edge):
                dst = int(neighbors[k])
                weight = float(weights[k]) if weights is not None else 1.0
                delta = spec.propagate(change, u, dst, weight, degree)
                cursor += 1  # one event per cycle per stream
                gen_cycles += 1
                if delta == spec.identity:
                    continue  # Simplification property: identity no-op
                self._emit(stream.index, dst, delta, generation, cursor)
                emitted += 1
            consume_time.append(cursor)
            lo = hi

        stream.admit(cursor)
        if emissions is None:
            self.stats.add("events_generated", emitted)
        if obs_trace.ACTIVE is not None:
            probe.event_generate(
                stream.index,
                gen_start,
                cursor,
                vertex=u,
                fanout=emitted,
                edge_mem=edge_wait,
                generate=gen_cycles,
            )
        return cursor, gen_start, edge_wait, gen_cycles

    def _route(self, emissions: _BinEmissions) -> None:
        """Route one dispatched bin's recorded events (module docs):
        propagate, drop identities, crossbar, coalescer pipelines, queue.
        """
        if not emissions.sources:
            return
        spec = self.spec
        sources = np.array(emissions.sources, dtype=np.int64)
        degrees = np.array(emissions.degrees, dtype=np.int64)
        dsts, deltas = propagate_edges(
            self.graph,
            spec,
            sources,
            self.graph.offsets[sources],
            np.array(emissions.changes, dtype=np.float64),
            degrees,
            degrees.cumsum(),
        )
        # a line's edges are emitted on consecutive cycles; the lines of
        # a source cover its out-edges in order
        counts = np.array(emissions.line_counts, dtype=np.int64)
        at = np.arange(len(dsts), dtype=np.int64) + np.repeat(
            np.array(emissions.line_at, dtype=np.int64)
            - (np.cumsum(counts) - counts),
            counts,
        )
        streams = np.repeat(np.array(emissions.streams, dtype=np.int64), degrees)
        generations = np.repeat(
            np.array(emissions.generations, dtype=np.int64), degrees
        )
        # Simplification property: identity messages are no-ops
        live = deltas != spec.identity
        if not live.all():
            dsts, deltas, at, streams, generations = (
                column[live] for column in (dsts, deltas, at, streams, generations)
            )
        self.stats.add("events_generated", len(dsts))
        if self.resilience is not None:
            self.resilience.pass_inserts(len(dsts))
        if not len(dsts):
            return
        bins = self.queue.mapping.bin_of(dsts)
        delivery = self.crossbar.send_many(
            streams, bins % self.config.crossbar_ports, at
        )
        _, insert_done = PipelinedResource.issue_many(
            self.bin_pipelines, bins, delivery
        )
        np.maximum.at(self._bin_insert_done, bins, insert_done)
        self.queue.insert_many(dsts, deltas, generations, insert_done)

    def _emit(
        self,
        stream_index: int,
        dst: int,
        delta: float,
        generation: int,
        at: int,
    ) -> None:
        """Route one event through the crossbar into its bin's coalescer."""
        bin_index = self.queue.mapping.bin_of(dst)
        port = bin_index % self.config.crossbar_ports
        delivery = self.crossbar.send(stream_index, port, at)
        _, insert_done = self.bin_pipelines[bin_index].issue(delivery)
        self._bin_insert_done[bin_index] = max(
            self._bin_insert_done[bin_index], insert_done
        )
        if self.resilience is None:
            self.queue.insert(dst, delta, generation, insert_done)
        else:
            for survivor in self.resilience.filter_insert(
                Event(dst, delta, generation, insert_done), float(at)
            ):
                self.queue.insert_event(survivor)
