"""Typed probe emitters: the instrumentation vocabulary.

Every instrumented component calls one of these helpers instead of
composing raw trace events, so the event *schema* — names, categories,
track naming, argument keys — lives in exactly one module and the
read-side aggregators in :mod:`repro.obs.export` can rely on it.

Hot call sites guard the call with the one-branch fast path::

    from ..obs import probe, trace as obs_trace
    ...
    if obs_trace.ACTIVE is not None:
        probe.dram_burst(channel, start, done, ...)

Each helper re-checks the global tracer so it is also safe to call
unguarded from cold paths.

Schema summary (full details in DESIGN.md):

===============  ========  =======================  =====================
name             category  track                    emitted by
===============  ========  =======================  =====================
round            round     ``engine:<name>``        every engine
event            proc      ``proc<i>``              cycle model
generate         gen       ``gen<i>``               cycle model
queue.insert     queue     ``queue``                coalescing queue
queue.coalesce   queue     ``queue``                coalescing queue
queue.drain      queue     ``queue``                cycle model scheduler
dram.txn         dram      ``dram``                 DRAM system
dram.burst       dram      ``dram.ch<i>``           DRAM channels
cache.hit/miss   mem       ``<cache name>``         caches / scratchpads
xbar.send        network   ``<xbar>.out<p>``        crossbar
arb.grant        network   ``<arbiter name>``       arbiters
slice.activate   slice     ``slice<i>``             sliced runtime
busy/issue/xfer  resource  ``<resource name>``      sim.kernel resources
fault.inject     resil     ``resilience``           fault injector
fault.detect     resil     ``resilience``           invariants / parity
recovery         resil     ``resilience``           repair / rollback / retry
checkpoint       resil     ``resilience``           checkpoint manager
<counters>       counter   ``counters``             engines / TimeSeries
===============  ========  =======================  =====================
"""

from __future__ import annotations

from typing import Any, Optional

from . import trace

__all__ = [
    "CAT_ROUND",
    "CAT_PROC",
    "CAT_GEN",
    "CAT_QUEUE",
    "CAT_DRAM",
    "CAT_MEM",
    "CAT_NETWORK",
    "CAT_SLICE",
    "CAT_RESOURCE",
    "CAT_RESIL",
    "round_span",
    "event_process",
    "event_generate",
    "queue_insert",
    "queue_drain",
    "dram_txn",
    "dram_burst",
    "cache_access",
    "xbar_send",
    "arb_grant",
    "slice_activation",
    "resource_busy",
    "fault_injected",
    "fault_detected",
    "recovery_span",
    "checkpoint_taken",
    "checkpoint_write",
    "journal_flush",
    "resume_span",
    "counter",
]

CAT_ROUND = "round"
CAT_PROC = "proc"
CAT_GEN = "gen"
CAT_QUEUE = "queue"
CAT_DRAM = "dram"
CAT_MEM = "mem"
CAT_NETWORK = "network"
CAT_SLICE = "slice"
CAT_RESOURCE = "resource"
CAT_RESIL = "resil"


def _active() -> Optional[trace.Tracer]:
    return trace.ACTIVE


# ----------------------------------------------------------------------
# Round-level schema shared by every engine
# ----------------------------------------------------------------------
def round_span(
    engine: str,
    index: int,
    start: float,
    end: float,
    *,
    events_processed: int,
    events_produced: int = 0,
    **extra: Any,
) -> None:
    """One scheduler round / BSP iteration, in the engine's time domain.

    Untimed engines pass ``start=index`` and ``end=index + 1`` so the
    round timeline renders as a unit-width strip chart.
    """
    t = _active()
    if t is None:
        return
    t.complete(
        "round",
        CAT_ROUND,
        start,
        max(end - start, 0.0),
        f"engine:{engine}",
        engine=engine,
        index=index,
        events_processed=events_processed,
        events_produced=events_produced,
        **extra,
    )


# ----------------------------------------------------------------------
# Cycle-model pipeline stages (Figures 13 / 14 source data)
# ----------------------------------------------------------------------
def event_process(
    proc_index: int,
    start: float,
    end: float,
    *,
    vertex: int,
    vertex_mem: float,
    process: float,
    gen_buffer: float = 0.0,
    stall: float = 0.0,
) -> None:
    """One event's life on an event processor (vertex read + apply)."""
    t = _active()
    if t is None:
        return
    t.complete(
        "event",
        CAT_PROC,
        start,
        max(end - start, 0.0),
        f"proc{proc_index}",
        vertex=vertex,
        vertex_mem=vertex_mem,
        process=process,
        gen_buffer=gen_buffer,
        stall=stall,
    )


def event_generate(
    stream_index: int,
    start: float,
    end: float,
    *,
    vertex: int,
    fanout: int,
    edge_mem: float,
    generate: float,
    stall: float = 0.0,
) -> None:
    """One vertex's outgoing-event generation on a generation stream."""
    t = _active()
    if t is None:
        return
    t.complete(
        "generate",
        CAT_GEN,
        start,
        max(end - start, 0.0),
        f"gen{stream_index}",
        vertex=vertex,
        fanout=fanout,
        edge_mem=edge_mem,
        generate=generate,
        stall=stall,
    )


# ----------------------------------------------------------------------
# Coalescing queue
# ----------------------------------------------------------------------
def queue_insert(vertex: int, bin_index: int, ts: float, coalesced: bool) -> None:
    t = _active()
    if t is None:
        return
    t.instant(
        "queue.coalesce" if coalesced else "queue.insert",
        CAT_QUEUE,
        ts,
        "queue",
        vertex=vertex,
        bin=bin_index,
    )


def queue_drain(
    bin_index: int, ts: float, count: int, occupancy_after: int
) -> None:
    t = _active()
    if t is None:
        return
    t.instant(
        "queue.drain",
        CAT_QUEUE,
        ts,
        "queue",
        bin=bin_index,
        count=count,
        occupancy_after=occupancy_after,
    )
    t.counter("queue_occupancy", ts, occupancy=occupancy_after)


# ----------------------------------------------------------------------
# Memory system
# ----------------------------------------------------------------------
def dram_txn(
    start: float,
    end: float,
    *,
    kind: str,
    nbytes: int,
    write: bool,
    lines: int,
) -> None:
    """One (possibly multi-line) DRAM transaction at the system level."""
    t = _active()
    if t is None:
        return
    t.complete(
        "dram.txn",
        CAT_DRAM,
        start,
        max(end - start, 0.0),
        "dram",
        kind=kind,
        bytes=nbytes,
        write=write,
        lines=lines,
    )


def dram_burst(
    channel: int,
    start: float,
    end: float,
    *,
    row_hit: bool,
    write: bool,
    nbytes: int,
) -> None:
    """One line burst on one channel (bank access + bus transfer)."""
    t = _active()
    if t is None:
        return
    t.complete(
        "dram.burst",
        CAT_DRAM,
        start,
        max(end - start, 0.0),
        f"dram.ch{channel}",
        row_hit=row_hit,
        write=write,
        bytes=nbytes,
    )


def cache_access(name: str, ts: float, *, hit: bool, kind: str) -> None:
    """A cache or prefetch-scratchpad lookup (hit/miss instant)."""
    t = _active()
    if t is None:
        return
    t.instant("cache.hit" if hit else "cache.miss", CAT_MEM, ts, name, kind=kind)


# ----------------------------------------------------------------------
# Interconnect
# ----------------------------------------------------------------------
def xbar_send(
    name: str,
    source: int,
    dest_port: int,
    start: float,
    end: float,
    *,
    wait: float,
) -> None:
    t = _active()
    if t is None:
        return
    t.complete(
        "xbar.send",
        CAT_NETWORK,
        start,
        max(end - start, 0.0),
        f"{name}.out{dest_port}",
        source=source,
        wait=wait,
    )


def arb_grant(name: str, ts: float, *, wait: float) -> None:
    t = _active()
    if t is None:
        return
    t.instant("arb.grant", CAT_NETWORK, ts, name, wait=wait)


# ----------------------------------------------------------------------
# Sliced runtimes (round-level)
# ----------------------------------------------------------------------
def slice_activation(
    slice_index: int,
    pass_index: int,
    *,
    events_in: int,
    events_processed: int,
    events_spilled: int,
    rounds: int,
) -> None:
    t = _active()
    if t is None:
        return
    t.complete(
        "slice.activate",
        CAT_SLICE,
        float(pass_index),
        1.0,
        f"slice{slice_index}",
        pass_index=pass_index,
        events_in=events_in,
        events_processed=events_processed,
        events_spilled=events_spilled,
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# Resource-timing primitives (sim.kernel)
# ----------------------------------------------------------------------
def resource_busy(
    name: str, kind: str, start: float, duration: float, **args: Any
) -> None:
    """Occupancy span of a next-free-cycle resource (busy/issue/xfer)."""
    t = _active()
    if t is None or duration <= 0:
        return
    t.complete(kind, CAT_RESOURCE, start, duration, name, **args)


# ----------------------------------------------------------------------
# Resilience: fault -> detect -> recover timelines on one track
# ----------------------------------------------------------------------
def fault_injected(
    kind: str, ts: float, *, vertex: int = -1, detail: str = ""
) -> None:
    """One injected fault (drop/duplicate/bitflip/dram/spill/lane)."""
    t = _active()
    if t is None:
        return
    args: dict = {"kind": kind}
    if vertex >= 0:
        args["vertex"] = vertex
    if detail:
        args["detail"] = detail
    t.instant("fault.inject", CAT_RESIL, ts, "resilience", **args)


def fault_detected(
    mechanism: str, ts: float, *, vertex: int = -1, **extra: Any
) -> None:
    """A detector fired: ``mechanism`` is ``parity``, ``invariant``,
    ``guard`` (NaN/overflow), ``dram-crc`` or ``lane``."""
    t = _active()
    if t is None:
        return
    args: dict = {"mechanism": mechanism}
    if vertex >= 0:
        args["vertex"] = vertex
    args.update(extra)
    t.instant("fault.detect", CAT_RESIL, ts, "resilience", **args)


def worker_activation(
    worker_id: int,
    slice_index: int,
    pass_index: int,
    *,
    events_in: int,
    events_processed: int,
    events_spilled: int,
    rounds: int,
    epoch: int = 0,
) -> None:
    """One slice activation attributed to its worker process.

    Emitted by the multi-process supervisor (workers never write to the
    parent's tracer), so every worker's spans land in the one Chrome
    trace on its own ``workerN`` track.  Timestamps stay in the engine's
    pass domain — duration is the activation's engine rounds — keeping
    traces deterministic like every other emitter here.
    """
    t = _active()
    if t is None:
        return
    t.complete(
        "worker.activate",
        CAT_SLICE,
        float(pass_index),
        max(float(rounds), 1.0),
        f"worker{worker_id}",
        slice=slice_index,
        pass_index=pass_index,
        epoch=epoch,
        events_in=events_in,
        events_processed=events_processed,
        events_spilled=events_spilled,
        rounds=rounds,
    )


def recovery_span(
    action: str, start: float, end: float, **extra: Any
) -> None:
    """One recovery action span: ``repair-epoch``, ``rollback``,
    ``dram-retry`` or ``lane-removal``."""
    t = _active()
    if t is None:
        return
    t.complete(
        "recovery",
        CAT_RESIL,
        start,
        max(end - start, 0.0),
        "resilience",
        action=action,
        **extra,
    )


def checkpoint_taken(index: int, ts: float, *, vertices: int, pending: int) -> None:
    """A checkpoint of vertex state + queue occupancy was captured."""
    t = _active()
    if t is None:
        return
    t.instant(
        "checkpoint",
        CAT_RESIL,
        ts,
        "resilience",
        index=index,
        vertices=vertices,
        pending=pending,
    )


def checkpoint_write(
    index: int, ts: float, *, path: str, nbytes: int, round_index: int
) -> None:
    """A checkpoint was durably persisted (atomic write + manifest)."""
    t = _active()
    if t is None:
        return
    t.instant(
        "checkpoint.write",
        CAT_RESIL,
        ts,
        "durability",
        index=index,
        path=path,
        bytes=nbytes,
        round=round_index,
    )


def journal_flush(ts: float, *, commit: int, records: int, nbytes: int) -> None:
    """The spill journal flushed a pass's records and fsynced a commit."""
    t = _active()
    if t is None:
        return
    t.instant(
        "journal.flush",
        CAT_RESIL,
        ts,
        "durability",
        commit=commit,
        records=records,
        bytes=nbytes,
    )


def resume_span(
    start: float, end: float, *, checkpoint: int, round_index: int, engine: str
) -> None:
    """One restore-from-disk: manifest validation through engine restart."""
    t = _active()
    if t is None:
        return
    t.complete(
        "resume",
        CAT_RESIL,
        start,
        max(end - start, 0.0),
        "durability",
        checkpoint=checkpoint,
        round=round_index,
        engine=engine,
    )


def counter(name: str, ts: float, **values: float) -> None:
    """A counter sample on the shared ``counters`` track."""
    t = _active()
    if t is None:
        return
    t.counter(name, ts, **values)
