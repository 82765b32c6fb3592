"""The worker-pool executor of the sliced pass driver (paper Section
IV-F, option b: the slices of a pass run on separate chips).

:class:`repro.core.slicing.SlicedGraphPulse` owns the pass loop: it
plans a barrier pass (takes the pass-start spill buffers), hands the
active slices to an executor, and merges what comes back.  This module
is the executor that runs them in **worker processes**, concurrently
and crash-isolated; the pass loop, the WAL, checkpoints and the
convergence test stay in the one driver.

Execution
---------
Workers are stateless between activations.  For each activation the
supervisor ships the slice's **state shard** (the vertex values of that
slice only) plus its inbound spill columns; the worker drains the slice
with :func:`repro.core.slicing.run_slice_activation` and ships back the
updated shard together with its **ordered outbound spill stream**, one
:class:`repro.core.spill.SpillColumns` batch in emission order.  The
slices of a barrier pass are data-independent, so every one is in
flight at once, one outstanding activation per worker, with replies
multiplexed by :func:`multiprocessing.connection.wait`.  Each reply is
fenced by its ``(epoch, attempt)`` token before it is accepted.  The
executor writes the shards back and returns the outbound streams to the
driver, whose (slice-id, emission-index) merge makes spill buffers,
journal bytes and final state bit-identical to the in-process executor.

Crash recovery
--------------
Every worker holds a per-slice **lease file**
(:mod:`repro.resilience.lease`), refreshed by a heartbeat thread.  The
executor snapshots state, spill buffers and traffic counters before it
plans a pass.  When a worker dies mid-pass (SIGKILL included) the
supervisor observes the broken pipe and then:

1. rolls state, spill buffers and traffic back to the snapshot;
2. rewinds the WAL to the last per-pass commit
   (:meth:`SpillJournal.discard_uncommitted`: mid-pass records never
   reached disk, so this is a buffer drop, not a disk rewrite);
3. on durable runs, replays the on-disk journal up to that commit,
   checks it bitwise against the snapshot, and adopts it;
4. breaks the stale leases, re-leases the dead worker's slices to a
   fresh process (chaos hooks disabled, epoch bumped), drains any
   in-flight results surviving workers still owe from the aborted
   attempt, and plans and executes the pass again.

``REPRO_KILL_WORKER=SLICE:PASS`` makes the worker owning ``SLICE``
SIGKILL itself when that activation starts; a malformed value is a
typed :class:`repro.errors.ReproError`.

Event-fault injection (drop/duplicate/bitflip/spill/dram scripts) is
rejected here: the injector's decision streams are cursor-stateful and
cannot be split across processes without changing the fault schedule.
Checkpointing, the pass budget and durable resume all work.

Prefer constructing through :func:`repro.core.engines.build_engine`
(``name="sliced-mp"``).
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import threading
from dataclasses import asdict, dataclass, field
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
from ..resilience.lease import (
    DEFAULT_LEASE_TIMEOUT,
    SliceLease,
    break_stale,
    lease_path,
)
from .event import Event
from .functional import TrafficCounters
from .queue import VertexBinMap
from .slicing import SlicedGraphPulse, SlicedResult, run_slice_activation
from .spill import SpillColumns

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
    """``"SLICE:PASS"`` -> (slice, pass); None when unset or empty."""
    if not raw:
        return None
    slice_part, _, pass_part = raw.partition(":")
    try:
        return int(slice_part), int(pass_part or 0)
    except ValueError:
        raise ReproError(
            f"{KILL_WORKER_ENV}={raw!r}: expected SLICE[:PASS]"
        ) from None


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
    supervisor_ends: Tuple,
) -> None:
    """Worker process loop: lease, heartbeat, activate on request.

    Spawned via fork, so ``partition``/``spec`` arrive by inheritance
    (closures in ``AlgorithmSpec`` work unchanged).  The worker is
    stateless across activations: its scratch ``state`` array only ever
    has the active slice's shard written before a drain and read after.

    The fork also copies the supervisor's ends of this worker's pipe and
    of every older sibling's.  They are closed first: while any copy is
    open, a dead supervisor never shows as end-of-file in ``recv`` and
    the worker would hold its leases forever.
    """
    for end in supervisor_ends:
        end.close()
    # the parent's tracer must not leak into workers: spans are the
    # supervisor's to emit, per-worker, into the one merged trace
    if obs_trace.ACTIVE is not None:
        obs_trace.uninstall()
    try:
        # the supervisor's _resolve_lease_dir has made the directory
        leases = [
            SliceLease.acquire(
                lease_dir, s, owner=f"worker-{worker_id}", epoch=epoch
            )
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
            outbound: List[SpillColumns] = []
            processed, rounds, spilled, sent = run_slice_activation(
                partition,
                spec,
                pass_index,
                slice_index,
                inbound,
                state,
                traffic,
                lambda *columns: outbound.append(SpillColumns(*columns)),
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
                    SpillColumns.concat(outbound),
                    processed,
                    rounds,
                    spilled,
                    sent,
                    asdict(traffic),
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
        #: the fleet of the current run (set up by ``_executor``)
        self._ctx = None
        self._fleet_dir: Optional[Path] = None
        self._workers: List[Optional[_WorkerHandle]] = []
        self._telemetry: List[Dict[str, int]] = []
        self._max_inflight = 0
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

    def _sweep_stale_leases(self) -> None:
        """Clear leases left by dead processes (e.g. a SIGKILLed run).

        A *fresh* lease means another live run owns this directory —
        that raises :class:`repro.errors.LeaseHeldError` instead of
        silently double-running.
        """
        for slice_index in range(self.partition.num_slices):
            break_stale(
                lease_path(self._fleet_dir, slice_index),
                timeout=self.lease_timeout,
            )

    def _spawn_worker(
        self, worker_id: int, chaos: Optional[Tuple[int, int]]
    ) -> _WorkerHandle:
        owned = tuple(
            range(worker_id, self.partition.num_slices, self.num_workers)
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._epoch,
                child_conn,
                self.partition,
                self.spec,
                owned,
                str(self._fleet_dir),
                {
                    "num_bins": self.num_bins,
                    "block_size": self.block_size,
                    "rounds_per_activation": self.rounds_per_activation,
                },
                chaos,
                (parent_conn,)
                + tuple(h.conn for h in self._workers if h is not None),
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

    def _shutdown(self) -> None:
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
            handle.conn.close()
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)

    @contextlib.contextmanager
    def _executor(self):
        """Lease, spawn and finally stop the worker fleet for one run."""
        chaos = _parse_kill_spec(os.environ.get(KILL_WORKER_ENV))
        self._ctx = get_context("fork")
        self._workers = [None] * self.num_workers
        # committed per-worker telemetry: _execute_pass adds a pass only
        # once all its activations returned, so a pass rolled back by a
        # worker death leaves no trace here (recovery counters accumulate
        # unconditionally)
        self._telemetry = [
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
        self._max_inflight = 0
        try:
            self._fleet_dir = self._resolve_lease_dir()
            self._sweep_stale_leases()
            for worker_id in range(self.num_workers):
                self._workers[worker_id] = self._spawn_worker(worker_id, chaos)
            yield
        finally:
            self._shutdown()
            if self._tempdir is not None:
                self._tempdir.cleanup()
                self._tempdir = None

    # -- dispatch -------------------------------------------------------
    def _run_pass_concurrent(
        self,
        pass_index: int,
        batch: List[Tuple[int, SpillColumns]],
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
        spilled, sent, traffic_delta)}``.  ``state`` is only *read*
        (pass-start shards), which is safe because barrier slices are
        disjoint and data-independent.

        Also returns the peak outstanding-activation count.  Results
        carrying a stale attempt token (stragglers of an aborted pass
        retry) are discarded without unblocking the slot — the real
        result follows on the same pipe.
        """
        workers = self._workers
        queues: List[List[Tuple[int, SpillColumns]]] = [
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
                    # After a SIGKILL the kernel closes the child's pipe
                    # ends (we see EOF) before the child is reapable, so
                    # is_alive() can transiently report True.  Join
                    # briefly to reap an exiting child before deciding
                    # whether it died.
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
                    sent,
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
                    sent,
                    traffic_delta,
                )
                send_next(worker_id)
        return results, max_inflight

    def _run_pass(
        self, pass_index: int, state: np.ndarray, traffic: TrafficCounters
    ):
        """Plan and execute a pass; a worker death rolls it back and
        plans and executes it again (module docs, *Crash recovery*)."""
        snapshot = (state.copy(), self._spill.snapshot(), asdict(traffic))
        while True:
            # per-attempt fence: results stamped with an older token are
            # stragglers of an aborted attempt
            self._attempt += 1
            try:
                return super()._run_pass(pass_index, state, traffic)
            except _WorkerDied as death:
                self._recover(death, snapshot, state, traffic, pass_index)

    def _execute_pass(
        self,
        pass_index: int,
        batch: List[Tuple[int, SpillColumns]],
        state: np.ndarray,
        traffic: TrafficCounters,
    ) -> List[Tuple[Tuple[int, int, int, int], SpillColumns]]:
        """Run ``batch`` on the workers and write their shards back.

        The returned outcomes are the in-process executor's: counts and
        outbound stream per activation, aligned with ``batch``.  Worker
        telemetry, probes and metrics are committed here, once every
        activation of the pass has returned.
        """
        results, pass_inflight = self._run_pass_concurrent(
            pass_index, batch, state
        )
        self._max_inflight = max(self._max_inflight, pass_inflight)
        outcomes = []
        # rounds each worker ran this pass; the rest of the pass's
        # rounds it spent waiting at the barrier
        worker_rounds = [0] * self.num_workers
        for slice_index, inbound in batch:
            (
                worker_id,
                shard,
                outbound,
                processed,
                rounds,
                spilled,
                sent,
                traffic_delta,
            ) = results[slice_index]
            state[self.partition.slices[slice_index].vertices] = shard
            _merge_traffic(traffic, traffic_delta)
            outcomes.append(((processed, rounds, spilled, sent), outbound))
            entry = self._telemetry[worker_id]
            entry["activations"] += 1
            entry["events_drained"] += processed
            entry["rounds"] += rounds
            worker_rounds[worker_id] += rounds
            if obs_trace.ACTIVE is not None:
                probe.worker_activation(
                    worker_id,
                    slice_index,
                    pass_index,
                    events_in=len(inbound),
                    events_processed=processed,
                    events_spilled=spilled,
                    rounds=rounds,
                    epoch=self._workers[worker_id].epoch,
                )
            if obs_metrics.ACTIVE is not None:
                obs_metrics.ACTIVE.counter(
                    "worker.events_drained", worker=worker_id
                ).inc(processed)
                obs_metrics.ACTIVE.counter(
                    "worker.activations", worker=worker_id
                ).inc()
        pass_rounds = sum(worker_rounds)
        for entry, rounds in zip(self._telemetry, worker_rounds):
            entry["barrier_wait_rounds"] += pass_rounds - rounds
        return outcomes

    def _result(self, **fields) -> MultiprocessSlicedResult:
        return MultiprocessSlicedResult(
            **fields,
            num_workers=self.num_workers,
            recoveries=self.recoveries,
            worker_stats=self._telemetry,
            max_inflight=self._max_inflight,
        )

    # -- recovery -------------------------------------------------------
    def _recover(
        self,
        death: _WorkerDied,
        snapshot: Tuple[np.ndarray, List[Dict[int, Event]], Dict[str, int]],
        state: np.ndarray,
        traffic: TrafficCounters,
        pass_index: int,
    ) -> None:
        """Re-lease a dead worker's slices and rewind to the pass start."""
        snapshot_state, snapshot_spill, snapshot_traffic = snapshot
        # 1. roll back to the pass-start snapshot
        state[:] = snapshot_state
        self._spill.restore(snapshot_spill)
        _restore_traffic(traffic, snapshot_traffic)

        if self._journal is not None:
            # 2. rewind the WAL to the last per-pass commit
            self._journal.discard_uncommitted()
            # 3. replay the on-disk journal up to that commit (at the
            #    start of pass P the newest durable commit is always P),
            #    check it against the snapshot, adopt the replayed buffers
            scan = self._replay_journal(
                pass_index, snapshot_spill, f"the pass-{pass_index} snapshot"
            )
            self._spill.restore(
                [
                    {
                        vertex: Event(vertex, delta, generation)
                        for vertex, (delta, generation) in bucket.items()
                    }
                    for bucket in scan.buffers
                ]
            )
            self._telemetry[death.worker_id]["journal_replays"] += 1

        # 4. break the stale leases and re-lease to a fresh worker
        self._respawn_worker(death.worker_id, death.slice_index, pass_index)

        # 5. absorb whatever surviving workers still owe from the
        #    aborted attempt so the retry starts with clean pipes
        self._drain_stragglers(death.stragglers, pass_index)

    def _respawn_worker(
        self, worker_id: int, slice_index: int, pass_index: int
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
        handle = self._workers[worker_id]
        handle.process.join(timeout=10.0)
        handle.conn.close()
        self._telemetry[worker_id]["lease_recoveries"] += 1
        for owned_slice in handle.owned:
            break_stale(
                lease_path(self._fleet_dir, owned_slice),
                timeout=self.lease_timeout,
            )
        self._epoch += 1
        self._workers[worker_id] = self._spawn_worker(worker_id, chaos=None)
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
        self, stragglers: Tuple[int, ...], pass_index: int
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
            handle = self._workers[worker_id]
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
            self._respawn_worker(worker_id, -1, pass_index)
