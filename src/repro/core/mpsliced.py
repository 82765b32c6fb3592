"""Multi-process sliced execution: concurrent slice dispatch with
per-slice leases (crash isolation *and* wall-clock parallelism).

``SlicedGraphPulse`` drains slices one at a time inside a single
process; a stray segfault or OOM kill anywhere loses the whole run.
This module moves each slice's drain into its own **worker process**
while a supervisor keeps the parts of the algorithm that must be
centralized: pass barriers, spill-buffer ownership, the WAL, checkpoint
capture, and convergence detection.

Execution model
---------------
Workers are stateless between activations.  For each activation the
supervisor ships the slice's **state shard** (the vertex values of that
slice only) plus its inbound spill events; the worker drains the slice
with :func:`repro.core.slicing.run_slice_activation` and ships back the
updated shard together with the **ordered outbound spill stream**.

Under the default ``dispatch="barrier"`` schedule the pass's active set
is fixed at the pass boundary, which makes the slices of one pass
data-independent (each activation touches only its own shard) — so the
supervisor dispatches **all of them concurrently**, one outstanding
activation per worker, multiplexing replies with
:func:`multiprocessing.connection.wait`.  At the pass barrier it merges
the buffered outbound streams in deterministic **(slice-id,
emission-index)** order (:func:`repro.core.slicing.merge_outbound_streams`)
and replays them through the same coalesce-and-journal path the
sequential engine uses, so spill buffers, journal bytes and final
vertex state are bit-identical to sequential ``dispatch="barrier"``
execution no matter how the activations interleaved in wall time.

``dispatch="chained"`` keeps the historical Gauss-Seidel schedule
(slice ``k`` sees same-pass spills from slices ``< k``); it is
inherently serial, so there the process boundary buys crash isolation
only.

Crash recovery
--------------
Every worker holds a per-slice **lease file**
(:mod:`repro.resilience.lease`) in the durable run directory, refreshed
by a heartbeat thread.  When a worker dies mid-pass (SIGKILL included)
the supervisor observes the broken pipe, verifies the lease is stale,
and then:

1. rolls vertex state, spill buffers and traffic counters back to the
   pass-start snapshot;
2. rewinds the WAL to the last per-pass commit
   (:meth:`SpillJournal.discard_uncommitted` — mid-pass records never
   reached disk, so this is a buffer drop, not a disk rewrite);
3. on durable runs, replays the on-disk journal up to that commit and
   adopts the replayed buffers after cross-checking them bit-for-bit
   against the snapshot;
4. breaks the stale lease, re-leases the dead worker's slices to a
   fresh process (chaos hooks disabled, epoch bumped), drains any
   in-flight results surviving workers still owe from the aborted
   attempt (a per-attempt fence token makes them safe to discard), and
   retries the pass from slice 0.

The run completes without restarting, and the final values are
bit-identical to ``SlicedGraphPulse`` — asserted by the tests and the
CI chaos job.  Set ``REPRO_KILL_WORKER=SLICE:PASS`` to make the worker
owning ``SLICE`` SIGKILL itself when that activation starts.

Event-fault injection (drop/duplicate/bitflip/spill/dram scripts) is
rejected here: the injector's decision streams are cursor-stateful and
cannot be split across processes without changing the fault schedule.
Checkpointing, the watchdog, and durable resume all work.

Prefer constructing through :func:`repro.core.engines.build_engine`
(``name="sliced-mp"``).
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
from dataclasses import dataclass, field, fields as dataclass_fields
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..errors import ReproError, UnrecoverableFaultError
from ..graph.partition import Partition
from ..obs import metrics as obs_metrics
from ..obs import probe
from ..obs import trace as obs_trace
from ..resilience.lease import DEFAULT_LEASE_TIMEOUT
from ..resilience.substrate import build_substrate
from .event import Event
from .functional import TrafficCounters
from .queue import VertexBinMap
from .slicing import (
    _SPILL_EVENT_BYTES,
    SliceActivation,
    SlicedGraphPulse,
    SlicedResult,
    merge_outbound_streams,
    run_slice_activation,
)

__all__ = [
    "MultiprocessSlicedGraphPulse",
    "MultiprocessSlicedResult",
    "KILL_WORKER_ENV",
]

#: chaos hook: ``SLICE:PASS`` — the worker owning SLICE SIGKILLs itself
#: when it starts that activation (respawned workers ignore it)
KILL_WORKER_ENV = "REPRO_KILL_WORKER"

#: seconds between worker heartbeat touches of its lease files
HEARTBEAT_INTERVAL = 0.2


@dataclass
class MultiprocessSlicedResult(SlicedResult):
    """A sliced result plus the worker fleet's crash ledger."""

    num_workers: int = 0
    #: worker deaths recovered via lease re-acquisition + WAL rewind
    recoveries: int = 0
    #: per-worker telemetry (one dict per worker, committed per pass):
    #: ``worker``, ``activations``, ``events_drained``, ``rounds``,
    #: ``barrier_wait_rounds`` (rounds other workers executed while this
    #: one sat at the sequential pass barrier — the engine-time analogue
    #: of barrier wait, kept off the wall clock for determinism),
    #: ``journal_replays`` and ``lease_recoveries``
    worker_stats: List[Dict[str, int]] = field(default_factory=list)
    #: peak number of simultaneously outstanding activations in any
    #: committed pass — ≥ 2 proves slices genuinely ran concurrently
    #: (deterministic: the initial burst is one activation per worker
    #: with work, so this equals the busiest pass's active worker count)
    max_inflight: int = 0


class _WorkerDied(Exception):
    """Internal: a worker process stopped responding mid-pass."""

    def __init__(
        self,
        worker_id: int,
        slice_index: int,
        reason: str,
        stragglers: Tuple[int, ...] = (),
    ):
        super().__init__(reason)
        self.worker_id = worker_id
        self.slice_index = slice_index
        self.reason = reason
        #: surviving workers that still owe a result from the aborted
        #: attempt; recovery must drain them before the retry sends
        self.stragglers = stragglers


@dataclass
class _WorkerHandle:
    worker_id: int
    process: object
    conn: object
    epoch: int
    owned: Tuple[int, ...]


def _parse_kill_spec(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    """``"SLICE:PASS"`` -> (slice, pass); None when unset/malformed."""
    if not raw:
        return None
    try:
        slice_part, _, pass_part = raw.partition(":")
        return int(slice_part), int(pass_part or 0)
    except ValueError:
        return None


def _traffic_dict(traffic: TrafficCounters) -> Dict[str, int]:
    return {
        f.name: getattr(traffic, f.name)
        for f in dataclass_fields(TrafficCounters)
    }


def _merge_traffic(total: TrafficCounters, delta: Dict[str, int]) -> None:
    for name, value in delta.items():
        setattr(total, name, getattr(total, name) + value)


def _restore_traffic(total: TrafficCounters, snapshot: Dict[str, int]) -> None:
    for name, value in snapshot.items():
        setattr(total, name, value)


def _worker_main(
    worker_id: int,
    epoch: int,
    conn,
    partition: Partition,
    spec: AlgorithmSpec,
    owned_slices: Tuple[int, ...],
    lease_dir: str,
    options: Dict[str, object],
    chaos: Optional[Tuple[int, int]],
) -> None:
    """Worker process loop: lease, heartbeat, activate on request.

    Spawned via fork, so ``partition``/``spec`` arrive by inheritance
    (closures in ``AlgorithmSpec`` work unchanged).  The worker is
    stateless across activations: its scratch ``state`` array only ever
    has the active slice's shard written before a drain and read after.
    """
    # the parent's tracer must not leak into workers: spans are the
    # supervisor's to emit, per-worker, into the one merged trace
    if obs_trace.ACTIVE is not None:
        obs_trace.uninstall()
    try:
        lease_store = build_substrate().lease_store(lease_dir)
        leases = [
            lease_store.acquire(s, owner=f"worker-{worker_id}", epoch=epoch)
            for s in owned_slices
        ]
    except Exception as exc:
        conn.send(("error", epoch, worker_id, type(exc).__name__, str(exc)))
        conn.close()
        return

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            for lease in leases:
                lease.refresh()

    threading.Thread(target=heartbeat, daemon=True).start()
    state = np.zeros(partition.graph.num_vertices, dtype=np.float64)
    mapping = VertexBinMap(
        partition.graph.num_vertices, options["num_bins"], options["block_size"]
    )
    conn.send(("ready", epoch, worker_id))
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            (
                _,
                task_epoch,
                attempt,
                pass_index,
                slice_index,
                shard,
                inbound,
            ) = message
            if chaos is not None and chaos == (slice_index, pass_index):
                os.kill(os.getpid(), signal.SIGKILL)
            vertices = partition.slices[slice_index].vertices
            # ``state`` is worker-private scratch that never leaves
            # this process; the (epoch, attempt) token rides the
            # message and is fence-checked by the supervisor when the
            # result returns  # repro: allow(CONC-001)
            state[vertices] = shard
            traffic = TrafficCounters()
            outbound: List[Tuple[int, Event]] = []
            processed, rounds, spilled = run_slice_activation(
                partition,
                spec,
                pass_index,
                slice_index,
                inbound,
                state,
                traffic,
                lambda target, event: outbound.append((target, event)),
                num_bins=options["num_bins"],
                block_size=options["block_size"],
                rounds_per_activation=options["rounds_per_activation"],
                mapping=mapping,
            )
            conn.send(
                (
                    "result",
                    task_epoch,
                    attempt,
                    pass_index,
                    slice_index,
                    state[vertices].copy(),
                    outbound,
                    processed,
                    rounds,
                    spilled,
                    _traffic_dict(traffic),
                )
            )
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # supervisor went away; release and exit
    finally:
        stop.set()
        for lease in leases:
            lease.release()
        conn.close()


class MultiprocessSlicedGraphPulse(SlicedGraphPulse):
    """Supervisor for the multi-process sliced runtime (module docs)."""

    ENGINE_NAME = "sliced-mp"

    def __init__(
        self,
        partition: Partition,
        spec: AlgorithmSpec,
        *,
        num_workers: int = 2,
        lease_dir=None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_recoveries: int = 8,
        **kwargs,
    ):
        """
        Parameters
        ----------
        num_workers:
            Worker process count; slice ``s`` is owned by worker
            ``s % num_workers``.  Must not exceed the slice count —
            a worker with no slices would idle for the whole run, so
            that is a configuration error, not something to clamp
            silently.
        lease_dir:
            Where lease files live.  Defaults to the durable run
            directory when checkpointing is on, else a scratch
            directory cleaned up after the run.
        lease_timeout:
            Heartbeat age beyond which a live-pid lease counts stale.
        max_recoveries:
            Worker-death budget; exceeding it raises
            :class:`repro.errors.UnrecoverableFaultError`.
        """
        super().__init__(partition, spec, **kwargs)
        if num_workers < 1:
            raise ReproError(f"num_workers must be >= 1, got {num_workers}")
        if int(num_workers) > partition.num_slices:
            raise ReproError(
                f"num_workers ({int(num_workers)}) exceeds the slice "
                f"count ({partition.num_slices}); every worker needs at "
                f"least one slice to own — lower --workers or raise "
                f"--num-slices"
            )
        self.num_workers = int(num_workers)
        self.lease_timeout = float(lease_timeout)
        self.max_recoveries = int(max_recoveries)
        self._attempt = 0
        self._lease_dir = None if lease_dir is None else Path(lease_dir)
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._epoch = 0
        self.recoveries = 0
        if self.resilience is not None:
            plan = self.resilience.config.fault_plan
            if plan.any_event_faults or plan.dead_lanes:
                raise ReproError(
                    "the sliced-mp engine does not support fault injection "
                    "(the injector's decision streams are single-process); "
                    "use --engine sliced for fault campaigns"
                )

    # -- worker fleet ---------------------------------------------------
    def _resolve_lease_dir(self) -> Path:
        if self._lease_dir is not None:
            self._lease_dir.mkdir(parents=True, exist_ok=True)
            return self._lease_dir
        if self.resilience is not None and self.resilience.durable is not None:
            return Path(self.resilience.durable.store.run_dir)
        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-leases-")
        return Path(self._tempdir.name)

    def _sweep_stale_leases(self, lease_dir: Path) -> None:
        """Clear leases left by dead processes (e.g. a SIGKILLed run).

        A *fresh* lease means another live run owns this directory —
        that raises :class:`repro.errors.LeaseHeldError` instead of
        silently double-running.
        """
        store = build_substrate().lease_store(lease_dir)
        for slice_index in range(self.partition.num_slices):
            store.break_stale(slice_index, timeout=self.lease_timeout)

    def _spawn_worker(
        self,
        ctx,
        worker_id: int,
        lease_dir: Path,
        options: Dict[str, object],
        chaos: Optional[Tuple[int, int]],
    ) -> _WorkerHandle:
        owned = tuple(
            range(worker_id, self.partition.num_slices, self.num_workers)
        )
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._epoch,
                child_conn,
                self.partition,
                self.spec,
                owned,
                str(lease_dir),
                options,
                chaos,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            message = parent_conn.recv()
        except (EOFError, OSError) as exc:
            raise UnrecoverableFaultError(
                f"worker {worker_id} died during startup: {exc!r}",
                worker=worker_id,
            )
        if message[0] == "error":
            _, _, _, kind, text = message
            process.join(timeout=5.0)
            if kind == "LeaseHeldError":
                from ..errors import LeaseHeldError

                raise LeaseHeldError(text, worker=worker_id)
            raise UnrecoverableFaultError(
                f"worker {worker_id} failed to start: {text}",
                worker=worker_id,
            )
        return _WorkerHandle(worker_id, process, parent_conn, self._epoch, owned)

    def _shutdown(self, workers: List[Optional[_WorkerHandle]]) -> None:
        for handle in workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            handle.conn.close()
        for handle in workers:
            if handle is None:
                continue
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)

    # -- dispatch -------------------------------------------------------
    def _dispatch(
        self,
        workers: List[Optional[_WorkerHandle]],
        pass_index: int,
        slice_index: int,
        inbound: List[Event],
        state: np.ndarray,
        traffic: TrafficCounters,
        spill: List[Dict[int, Event]],
    ) -> SliceActivation:
        """Run one activation on the owning worker; apply its results.

        The sequential path of the ``chained`` schedule: one activation
        outstanding in the whole fleet, results applied inline so the
        next slice sees them (the ``barrier`` schedule goes through
        :meth:`_run_pass_concurrent` instead).
        """
        worker_id = slice_index % self.num_workers
        handle = workers[worker_id]
        vertices = self.partition.slices[slice_index].vertices
        try:
            handle.conn.send(
                (
                    "activate",
                    handle.epoch,
                    self._attempt,
                    pass_index,
                    slice_index,
                    state[vertices].copy(),
                    inbound,
                )
            )
            message = handle.conn.recv()
        except Exception as exc:
            # After a SIGKILL the kernel closes the child's pipe ends
            # (we see EOF) before the child is reapable, so is_alive()
            # can transiently report True.  Join briefly to reap an
            # exiting child before deciding whether it died.
            handle.process.join(timeout=5.0)
            if not handle.process.is_alive():
                raise _WorkerDied(worker_id, slice_index, repr(exc)) from None
            raise
        if message[0] != "result":
            raise UnrecoverableFaultError(
                f"worker {worker_id} sent unexpected {message[0]!r}",
                worker=worker_id,
            )
        (
            _,
            epoch,
            reply_attempt,
            reply_pass,
            reply_slice,
            shard,
            outbound,
            processed,
            rounds,
            spilled,
            traffic_delta,
        ) = message
        if (epoch, reply_attempt, reply_pass, reply_slice) != (
            handle.epoch,
            self._attempt,
            pass_index,
            slice_index,
        ):
            raise UnrecoverableFaultError(
                f"worker {worker_id} replied out of order "
                f"(epoch {epoch}, attempt {reply_attempt}, "
                f"pass {reply_pass}, slice {reply_slice})",
                worker=worker_id,
            )
        state[vertices] = shard
        _merge_traffic(traffic, traffic_delta)
        # replay the ordered outbound stream through the exact
        # coalesce-and-journal path the sequential engine uses
        for target, event in outbound:
            self._absorb_spill(spill, target, event)
        if obs_trace.ACTIVE is not None:
            probe.slice_activation(
                slice_index,
                pass_index,
                events_in=len(inbound),
                events_processed=processed,
                events_spilled=spilled,
                rounds=rounds,
            )
            probe.worker_activation(
                worker_id,
                slice_index,
                pass_index,
                events_in=len(inbound),
                events_processed=processed,
                events_spilled=spilled,
                rounds=rounds,
                epoch=handle.epoch,
            )
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.counter(
                "worker.events_drained", worker=worker_id
            ).inc(processed)
            obs_metrics.ACTIVE.counter(
                "worker.activations", worker=worker_id
            ).inc()
        return SliceActivation(
            pass_index=pass_index,
            slice_index=slice_index,
            events_in=len(inbound),
            events_processed=processed,
            events_spilled=spilled,
            rounds=rounds,
        )

    def _run_pass_concurrent(
        self,
        workers: List[Optional[_WorkerHandle]],
        pass_index: int,
        batch: List[Tuple[int, List[Event]]],
        state: np.ndarray,
    ) -> Tuple[Dict[int, tuple], int]:
        """Dispatch one barrier pass's activations across all workers.

        Every slice in ``batch`` (the pass-start active set) is queued
        on its owning worker; each worker holds **at most one
        outstanding activation** — the next is sent only after its
        result arrives, so a send never targets a busy worker and the
        pipe pair cannot fill in both directions at once.  Replies are
        multiplexed with :func:`multiprocessing.connection.wait`, so
        workers genuinely run their slices simultaneously.

        Nothing is applied here: results are buffered and returned as
        ``{slice_index: (worker_id, shard, outbound, processed, rounds,
        spilled, traffic_delta)}`` for the caller to merge at the
        barrier in deterministic slice order.  ``state`` is only *read*
        (pass-start shards), which is safe because barrier slices are
        disjoint and data-independent.

        Also returns the peak outstanding-activation count.  Results
        carrying a stale attempt token (stragglers of an aborted pass
        retry) are discarded without unblocking the slot — the real
        result follows on the same pipe.
        """
        queues: List[List[Tuple[int, List[Event]]]] = [
            [] for _ in range(self.num_workers)
        ]
        for slice_index, inbound in batch:
            queues[slice_index % self.num_workers].append(
                (slice_index, inbound)
            )
        attempt = self._attempt
        #: conn -> (worker_id, expected slice)
        outstanding: Dict[object, Tuple[int, int]] = {}
        results: Dict[int, tuple] = {}
        max_inflight = 0

        def straggler_ids(dead_worker: int) -> Tuple[int, ...]:
            return tuple(
                sorted(
                    wid
                    for wid, _ in outstanding.values()
                    if wid != dead_worker
                )
            )

        def send_next(worker_id: int) -> None:
            nonlocal max_inflight
            if not queues[worker_id]:
                return
            slice_index, inbound = queues[worker_id].pop(0)
            handle = workers[worker_id]
            vertices = self.partition.slices[slice_index].vertices
            try:
                handle.conn.send(
                    (
                        "activate",
                        handle.epoch,
                        attempt,
                        pass_index,
                        slice_index,
                        state[vertices].copy(),
                        inbound,
                    )
                )
            except Exception as exc:
                handle.process.join(timeout=5.0)
                if not handle.process.is_alive():
                    raise _WorkerDied(
                        worker_id,
                        slice_index,
                        repr(exc),
                        stragglers=straggler_ids(worker_id),
                    ) from None
                raise
            outstanding[handle.conn] = (worker_id, slice_index)
            max_inflight = max(max_inflight, len(outstanding))

        for worker_id in range(self.num_workers):
            send_next(worker_id)
        while outstanding:
            for conn in mp_connection.wait(list(outstanding)):
                worker_id, expected_slice = outstanding[conn]
                handle = workers[worker_id]
                try:
                    message = conn.recv()
                except Exception as exc:
                    handle.process.join(timeout=5.0)
                    if not handle.process.is_alive():
                        del outstanding[conn]
                        raise _WorkerDied(
                            worker_id,
                            expected_slice,
                            repr(exc),
                            stragglers=straggler_ids(worker_id),
                        ) from None
                    raise
                if message[0] != "result":
                    raise UnrecoverableFaultError(
                        f"worker {worker_id} sent unexpected "
                        f"{message[0]!r}",
                        worker=worker_id,
                    )
                (
                    _,
                    epoch,
                    reply_attempt,
                    reply_pass,
                    reply_slice,
                    shard,
                    outbound,
                    processed,
                    rounds,
                    spilled,
                    traffic_delta,
                ) = message
                if reply_attempt != attempt:
                    continue  # straggler of an aborted attempt
                if (epoch, reply_pass, reply_slice) != (
                    handle.epoch,
                    pass_index,
                    expected_slice,
                ):
                    raise UnrecoverableFaultError(
                        f"worker {worker_id} replied out of order "
                        f"(epoch {epoch}, attempt {reply_attempt}, "
                        f"pass {reply_pass}, slice {reply_slice})",
                        worker=worker_id,
                    )
                del outstanding[conn]
                results[reply_slice] = (
                    worker_id,
                    shard,
                    outbound,
                    processed,
                    rounds,
                    spilled,
                    traffic_delta,
                )
                send_next(worker_id)
        return results, max_inflight

    def _run_pass_barrier(
        self,
        workers: List[Optional[_WorkerHandle]],
        pass_index: int,
        state: np.ndarray,
        traffic: TrafficCounters,
        spill: List[Dict[int, Event]],
        activations: List[SliceActivation],
        pending: List[List[int]],
    ) -> Tuple[int, int, int]:
        """One barrier pass: concurrent dispatch, deterministic merge.

        Captures the pass-start active set, runs every activation
        concurrently (:meth:`_run_pass_concurrent`), then — at the
        barrier, in slice order — applies the returned shards, merges
        traffic, and replays the outbound streams in (slice-id,
        emission-index) order (:func:`merge_outbound_streams`) through
        the exact coalesce-and-journal path the sequential engine uses.
        Returns ``(pass_inflight, spill_bytes_read,
        spill_bytes_written)``; telemetry deltas go into ``pending``
        for the caller to commit only if the pass succeeds.
        """
        batch = self._collect_pass_inbound(spill)
        results, pass_inflight = self._run_pass_concurrent(
            workers, pass_index, batch, state
        )
        partition = self.partition
        streams: List[Tuple[int, List[Tuple[int, Event]]]] = []
        spill_read = 0
        spill_written = 0
        for slice_index, inbound in batch:
            (
                worker_id,
                shard,
                outbound,
                processed,
                rounds,
                spilled,
                traffic_delta,
            ) = results[slice_index]
            vertices = partition.slices[slice_index].vertices
            state[vertices] = shard
            _merge_traffic(traffic, traffic_delta)
            streams.append((slice_index, outbound))
            spill_read += len(inbound) * _SPILL_EVENT_BYTES
            spill_written += spilled * _SPILL_EVENT_BYTES
            activations.append(
                SliceActivation(
                    pass_index=pass_index,
                    slice_index=slice_index,
                    events_in=len(inbound),
                    events_processed=processed,
                    events_spilled=spilled,
                    rounds=rounds,
                )
            )
            slot = pending[worker_id]
            slot[0] += 1
            slot[1] += processed
            slot[2] += rounds
            if obs_trace.ACTIVE is not None:
                probe.slice_activation(
                    slice_index,
                    pass_index,
                    events_in=len(inbound),
                    events_processed=processed,
                    events_spilled=spilled,
                    rounds=rounds,
                )
                probe.worker_activation(
                    worker_id,
                    slice_index,
                    pass_index,
                    events_in=len(inbound),
                    events_processed=processed,
                    events_spilled=spilled,
                    rounds=rounds,
                    epoch=workers[worker_id].epoch,
                )
            if obs_metrics.ACTIVE is not None:
                obs_metrics.ACTIVE.counter(
                    "worker.events_drained", worker=worker_id
                ).inc(processed)
                obs_metrics.ACTIVE.counter(
                    "worker.activations", worker=worker_id
                ).inc()
        for target, event in merge_outbound_streams(streams):
            self._absorb_spill(spill, target, event)
        return pass_inflight, spill_read, spill_written

    # -- recovery -------------------------------------------------------
    def _replayed_spill_from_journal(
        self, pass_index: int
    ) -> Optional[List[Dict[int, Event]]]:
        """Rebuild spill buffers from the WAL's last per-pass commit.

        At the start of the pass with index ``P`` the journal's newest
        durable commit is always ``P`` (commit 0 covers the initial
        events; ``commit(P)`` sealed pass ``P - 1``; resume truncates at
        the restored commit), so recovery replays ``upto=P``.
        """
        if (
            self.resilience is None
            or self.resilience.durable is None
            or self._journal is None
        ):
            return None
        path = self.resilience.durable.store.journal_path
        transport = build_substrate().spill_transport(path)
        buffers, _ = transport.replay(
            self.partition.num_slices, pass_index, self.spec.reduce
        )
        return [
            {
                vertex: Event(
                    vertex=vertex, delta=delta, generation=generation
                )
                for vertex, (delta, generation) in bucket.items()
            }
            for bucket in buffers
        ]

    def _recover(
        self,
        death: _WorkerDied,
        workers: List[Optional[_WorkerHandle]],
        ctx,
        lease_dir: Path,
        options: Dict[str, object],
        state: np.ndarray,
        spill: List[Dict[int, Event]],
        snapshot_state: np.ndarray,
        snapshot_spill: List[Dict[int, Event]],
        snapshot_traffic: Dict[str, int],
        traffic: TrafficCounters,
        pass_index: int,
    ) -> None:
        """Re-lease a dead worker's slices and rewind to the pass start."""
        # 1. roll back to the pass-start snapshot
        state[:] = snapshot_state
        for i, snap in enumerate(snapshot_spill):
            spill[i] = dict(snap)
        _restore_traffic(traffic, snapshot_traffic)

        # 2. rewind the WAL to the last per-pass commit
        if self._journal is not None:
            self._journal.discard_uncommitted()

        # 3. durable runs: replay the on-disk journal up to that commit,
        #    cross-check against the snapshot, adopt the replayed buffers
        replayed = self._replayed_spill_from_journal(pass_index)
        if replayed is not None:
            self._check_replay_matches(replayed, spill, pass_index)
            for i, bucket in enumerate(replayed):
                spill[i] = bucket

        telemetry = getattr(self, "_telemetry", None)
        if telemetry is not None and replayed is not None:
            telemetry[death.worker_id]["journal_replays"] += 1

        # 4. break the stale leases and re-lease to a fresh worker
        self._respawn_worker(
            death.worker_id,
            death.slice_index,
            workers,
            ctx,
            lease_dir,
            options,
            pass_index,
        )

        # 5. absorb whatever surviving workers still owe from the
        #    aborted attempt so the retry starts with clean pipes
        self._drain_stragglers(
            death.stragglers, workers, ctx, lease_dir, options, pass_index
        )

    def _respawn_worker(
        self,
        worker_id: int,
        slice_index: int,
        workers: List[Optional[_WorkerHandle]],
        ctx,
        lease_dir: Path,
        options: Dict[str, object],
        pass_index: int,
    ) -> None:
        """Replace one dead worker: budget, lease break, epoch bump, spawn.

        The replacement gets chaos hooks disabled so an injected kill
        cannot re-trigger, and a bumped epoch so anything the dead
        incarnation left behind is fenced off.
        """
        self.recoveries += 1
        if self.recoveries > self.max_recoveries:
            raise UnrecoverableFaultError(
                f"worker death budget exhausted "
                f"({self.max_recoveries} recoveries)",
                worker=worker_id,
                slice=slice_index,
            )
        handle = workers[worker_id]
        handle.process.join(timeout=10.0)
        handle.conn.close()
        telemetry = getattr(self, "_telemetry", None)
        if telemetry is not None:
            telemetry[worker_id]["lease_recoveries"] += 1
        store = build_substrate().lease_store(lease_dir)
        for owned_slice in handle.owned:
            store.break_stale(owned_slice, timeout=self.lease_timeout)
        self._epoch += 1
        workers[worker_id] = self._spawn_worker(
            ctx, worker_id, lease_dir, options, chaos=None
        )
        if obs_trace.ACTIVE is not None:
            probe.recovery_span(
                "worker-relaunch",
                float(pass_index),
                float(pass_index),
                worker=worker_id,
                slice=slice_index,
                epoch=self._epoch,
            )

    def _drain_stragglers(
        self,
        stragglers: Tuple[int, ...],
        workers: List[Optional[_WorkerHandle]],
        ctx,
        lease_dir: Path,
        options: Dict[str, object],
        pass_index: int,
    ) -> None:
        """Absorb in-flight results survivors owe from an aborted pass.

        A straggler may still be computing its activation when the pass
        aborts; its result must be read before the retry sends it
        anything, otherwise both directions of the pipe pair could fill
        and deadlock.  The stale attempt token makes the drained result
        safe to discard.  A straggler found dead here is respawned the
        same way as the primary casualty — the one rollback already
        restored pass-start state, so no further rewind is needed.
        """
        for worker_id in stragglers:
            handle = workers[worker_id]
            try:
                if handle.conn.poll(timeout=60.0):
                    handle.conn.recv()
                    continue
                reason = "timed out waiting for the in-flight result"
            except (EOFError, OSError) as exc:
                reason = repr(exc)
            handle.process.join(timeout=10.0)
            if handle.process.is_alive():
                raise UnrecoverableFaultError(
                    f"worker {worker_id} wedged after an aborted pass: "
                    f"{reason}",
                    worker=worker_id,
                )
            self._respawn_worker(
                worker_id,
                -1,
                workers,
                ctx,
                lease_dir,
                options,
                pass_index,
            )

    def _check_replay_matches(
        self,
        replayed: List[Dict[int, Event]],
        snapshot: List[Dict[int, Event]],
        pass_index: int,
    ) -> None:
        """The WAL and the in-memory snapshot must agree bit-for-bit."""
        import struct

        from ..errors import CheckpointCorruptError

        def bits(value: float) -> bytes:
            return struct.pack("<d", value)

        for slice_index, (disk, memory) in enumerate(zip(replayed, snapshot)):
            if set(disk) != set(memory):
                raise CheckpointCorruptError(
                    f"journal replay disagrees with the pass-{pass_index} "
                    f"snapshot on slice {slice_index}'s pending vertices",
                    slice=slice_index,
                    pass_index=pass_index,
                )
            for vertex, event in memory.items():
                other = disk[vertex]
                if (
                    bits(other.delta) != bits(event.delta)
                    or other.generation != event.generation
                ):
                    raise CheckpointCorruptError(
                        f"journal replay disagrees with the pass-"
                        f"{pass_index} snapshot on vertex {vertex} "
                        f"(slice {slice_index})",
                        slice=slice_index,
                        vertex=vertex,
                        pass_index=pass_index,
                    )

    # -- run ------------------------------------------------------------
    def run(self) -> MultiprocessSlicedResult:
        partition = self.partition
        state = self.state
        traffic = TrafficCounters()
        activations: List[SliceActivation] = []
        spill_written = 0
        spill_read = 0

        spill, view, watchdog = self._setup_run()
        lease_dir = self._resolve_lease_dir()
        self._sweep_stale_leases(lease_dir)
        chaos = _parse_kill_spec(os.environ.get(KILL_WORKER_ENV))
        options = {
            "num_bins": self.num_bins,
            "block_size": self.block_size,
            "rounds_per_activation": self.rounds_per_activation,
        }
        ctx = get_context("fork")
        workers: List[Optional[_WorkerHandle]] = [None] * self.num_workers
        # committed per-worker telemetry; pass-local deltas live in
        # ``pending`` below so a _WorkerDied rollback discards them for
        # free (recovery counters accumulate here unconditionally)
        telemetry: List[Dict[str, int]] = [
            {
                "worker": worker_id,
                "activations": 0,
                "events_drained": 0,
                "rounds": 0,
                "barrier_wait_rounds": 0,
                "journal_replays": 0,
                "lease_recoveries": 0,
            }
            for worker_id in range(self.num_workers)
        ]
        self._telemetry = telemetry

        pass_index = self._start_pass
        max_inflight = 0
        try:
            for worker_id in range(self.num_workers):
                workers[worker_id] = self._spawn_worker(
                    ctx, worker_id, lease_dir, options, chaos
                )
            while True:
                while any(spill):
                    verdict = watchdog.verdict()
                    if verdict is not None:
                        self._halt_nonconvergence(verdict, watchdog, view)
                    snapshot_state = state.copy()
                    snapshot_spill = [dict(bucket) for bucket in spill]
                    snapshot_traffic = _traffic_dict(traffic)
                    marks = (spill_read, spill_written, len(activations))
                    writes_before = traffic.vertex_writes
                    pass_processed = 0
                    pass_inflight = 0
                    # [activations, events_drained, rounds] per worker
                    pending = [[0, 0, 0] for _ in range(self.num_workers)]
                    # per-attempt fence: results stamped with an older
                    # token are stragglers of an aborted retry
                    self._attempt += 1
                    try:
                        if self.dispatch == "barrier":
                            (
                                pass_inflight,
                                pass_read,
                                pass_written,
                            ) = self._run_pass_barrier(
                                workers,
                                pass_index,
                                state,
                                traffic,
                                spill,
                                activations,
                                pending,
                            )
                            spill_read += pass_read
                            spill_written += pass_written
                            pass_processed = sum(
                                slot[1] for slot in pending
                            )
                        else:
                            for slice_index in range(partition.num_slices):
                                inbound = spill[slice_index]
                                if not inbound:
                                    continue
                                if self._journal is not None:
                                    self._journal.consume(slice_index)
                                spill[slice_index] = {}
                                spill_read += (
                                    len(inbound) * _SPILL_EVENT_BYTES
                                )
                                activation = self._dispatch(
                                    workers,
                                    pass_index,
                                    slice_index,
                                    list(inbound.values()),
                                    state,
                                    traffic,
                                    spill,
                                )
                                spill_written += (
                                    activation.events_spilled
                                    * _SPILL_EVENT_BYTES
                                )
                                activations.append(activation)
                                pass_processed += (
                                    activation.events_processed
                                )
                                pass_inflight = 1
                                slot = pending[
                                    slice_index % self.num_workers
                                ]
                                slot[0] += 1
                                slot[1] += activation.events_processed
                                slot[2] += activation.rounds
                    except _WorkerDied as death:
                        spill_read, spill_written = marks[0], marks[1]
                        del activations[marks[2] :]
                        self._recover(
                            death,
                            workers,
                            ctx,
                            lease_dir,
                            options,
                            state,
                            spill,
                            snapshot_state,
                            snapshot_spill,
                            snapshot_traffic,
                            traffic,
                            pass_index,
                        )
                        continue  # retry the pass from slice 0
                    max_inflight = max(max_inflight, pass_inflight)
                    pass_rounds = sum(slot[2] for slot in pending)
                    for worker_id, slot in enumerate(pending):
                        entry = telemetry[worker_id]
                        entry["activations"] += slot[0]
                        entry["events_drained"] += slot[1]
                        entry["rounds"] += slot[2]
                        entry["barrier_wait_rounds"] += pass_rounds - slot[2]
                    if obs_metrics.ACTIVE is not None:
                        obs_metrics.round_tick(
                            "sliced-mp",
                            pass_index,
                            events_processed=pass_processed,
                        )
                    watchdog.observe_round(
                        pass_processed, traffic.vertex_writes - writes_before
                    )
                    pass_index += 1
                    if self._journal is not None:
                        self._journal.commit(pass_index)
                    if self.resilience is not None:
                        self.resilience.maybe_checkpoint(
                            pass_index, float(pass_index), state, view
                        )
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
            self._shutdown(workers)
            if self._journal is not None:
                self._journal.close()
            if self._tempdir is not None:
                self._tempdir.cleanup()
                self._tempdir = None

        summary = None
        if self.resilience is not None:
            self.resilience.finalize(float(pass_index))
            summary = self.resilience.summary()
        return MultiprocessSlicedResult(
            values=state,
            activations=activations,
            traffic=traffic,
            spill_bytes_written=spill_written,
            spill_bytes_read=spill_read,
            converged=True,
            resilience=summary,
            num_workers=self.num_workers,
            recoveries=self.recoveries,
            worker_stats=telemetry,
            max_inflight=max_inflight,
        )
