"""Cross-host sliced execution over a shared directory of durable artifacts.

``sliced-hosts`` runs the Section IV-F slicing schedule as a set of
*independent supervisor processes* ("hosts") that share nothing but a
directory of durable artifacts.  Any number of hosts may be pointed at
the same ``hosts_dir``; they cooperate to execute the exact sequential
schedule, and any of them can be SIGKILLed at any instant without
changing a single output bit.

Protocol
--------
Execution is totally ordered into *steps*.  Step ``k`` activates slice
``s = k % num_slices`` of pass ``p = k // num_slices`` under the barrier
schedule of the sequential ``sliced`` engine: every step of a pass takes
its inbound from the *pass-start* buffers (the journal replayed to
commit ``p * num_slices``, bucket ``s``), and spills emitted during the
pass only become visible in the next one.  A slice with no pass-start
inbound runs a no-op step, where ``sliced`` skips its activation.  That
is what makes bit-identity to ``sliced`` provable rather than
statistical.  Exactly one host executes each step, guarded by a
per-step lease on slot ``s`` with epoch fencing.

The first step of a pass (``s == 0``) does two things the others do
not.  It compacts the journal at commit ``p * num_slices``
(:meth:`SpillJournal.compact_file`), so every replay of the pass reads
one pass of records rather than the whole run's.  It compacts only after
any torn tail is truncated, and under the held, fence-checked lease.
Then it writes a ``consume`` for every non-empty pass-start slice, in
slice order, before its own spills, which is the WAL record order of a
sequential barrier pass.

A step publishes ``done`` when the live buffers are empty and no later
slice of the pass has pass-start inbound; a cursor-only takeover
publishes by the same rule.

The shared directory holds:

``meta.json``
    Created once with ``O_EXCL``; joining hosts validate the workload
    (algorithm, slice count, graph fingerprint) against it.
``journal.bin``
    A GPJL spill log (the same wire format and replay semantics as the
    resilience journal).  Step ``k`` appends its CONSUME/SPILL records
    and a ``COMMIT(k + 1)`` marker; it starts at the current pass's
    compaction baseline.
``shard-NNNN.bin``
    One GPSH blob per slice: the slice's vertex values plus the
    *cumulative* run counters as of the step that published it.
``cursor.json``
    ``{"step": k, "done": bool}`` — the linearization point.  A step is
    complete exactly when the cursor names its successor.
``leases/``
    One lease slot per slice plus a reserved slot ``num_slices`` that
    guards seeding ("step -1").

Each step publishes in a fixed order: (1) journal records + commit,
(2) shard, (3) cursor.  Hosts are stateless between steps — every step
re-derives its inputs from the durable artifacts — so a takeover after
a peer died at any point between those publishes lands in one of three
cases, each with a deterministic continuation:

* journal commit is ``k`` → the dead host published nothing durable for
  step ``k``; truncate any torn tail and execute normally.
* journal commit is ``k + 1`` and shard ``s`` carries step ``k`` → only
  the cursor is missing; publish it (counters come from the shard, no
  re-execution).
* journal commit is ``k + 1`` but shard ``s`` is older → re-execute the
  step with journaling suppressed.  Replay to commits ``p * num_slices``
  and ``k`` rebuilds the pass-start and pre-step spill buffers (in
  absorption order — dict updates preserve insertion position), the
  stale shard still holds the pre-step slice values, and execution is
  deterministic, so the redo reproduces the exact bytes the journal
  already holds.

Liveness contract: as with ``sliced-mp`` leases, a host only breaks a
lease whose owner is dead or has stopped heartbeating for the full
timeout; a host that loses its lease anyway discovers the foreign epoch
at the pre-publish fencing check and yields without publishing.

The engine is registered neither resilient nor resumable: the hosts
directory *is* the durable store (every step is effectively a
checkpoint), and layering the single-process resilience harness on top
would double-journal the same traffic.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    CheckpointCorruptError,
    LeaseHeldError,
    ManifestMismatchError,
    NonConvergenceError,
    ReproError,
)
from ..graph.partition import Partition
from ..ioutil import atomic_write_bytes, exclusive_create_bytes, read_bytes
from ..resilience.journal import SpillJournal
from ..resilience.lease import (
    DEFAULT_LEASE_TIMEOUT,
    SliceLease,
    break_stale,
    is_stale,
    lease_path,
    read_lease,
)
from .event import Event
from .functional import TrafficCounters
from .queue import VertexBinMap
from .slicing import _SPILL_EVENT_BYTES, run_slice_activation, slice_bins
from .spill import SpillBuffers, journal_spills

__all__ = [
    "HostSlicedGraphPulse",
    "HostSlicedResult",
    "ShardRecord",
    "encode_shard",
    "parse_shard",
    "KILL_HOST_ENV",
    "META_FILENAME",
    "CURSOR_FILENAME",
    "JOURNAL_FILENAME",
    "shard_filename",
]

META_FILENAME = "meta.json"
CURSOR_FILENAME = "cursor.json"
JOURNAL_FILENAME = "journal.bin"
META_FORMAT_VERSION = 1

SHARD_MAGIC = b"GPSH"
SHARD_VERSION = 1
#: magic | version u16 | slice u32 | step i64 | count u32 | cumulative
#: processed/rounds/spilled/consumed i64 — then count f64 values, crc32
_SHARD_HEADER = struct.Struct("<4sHIqIqqqq")
_CRC = struct.Struct("<I")

#: ``REPRO_KILL_HOST=STEP[:POINT]`` SIGKILLs the host while executing
#: step STEP, at POINT in {pre, journal, shard} — before any publish,
#: after the journal commit, or after the shard publish (the three
#: distinct takeover cases above).  Test hook, mirroring
#: ``REPRO_KILL_WORKER`` in the multi-process engine.
KILL_HOST_ENV = "REPRO_KILL_HOST"
_KILL_POINTS = ("pre", "journal", "shard")


def shard_filename(slice_index: int) -> str:
    return f"shard-{slice_index:04d}.bin"


@dataclass
class ShardRecord:
    """One decoded GPSH shard: a slice's values + cumulative counters."""

    slice_index: int
    step: int
    values: np.ndarray
    processed: int
    rounds: int
    spilled: int
    consumed: int


def encode_shard(
    slice_index: int,
    step: int,
    values: np.ndarray,
    *,
    processed: int,
    rounds: int,
    spilled: int,
    consumed: int,
) -> bytes:
    """Serialize one slice's state shard (CRC-sealed, like GPJL/GPCK)."""
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    head = _SHARD_HEADER.pack(
        SHARD_MAGIC,
        SHARD_VERSION,
        slice_index,
        step,
        len(values),
        processed,
        rounds,
        spilled,
        consumed,
    )
    body = head + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def parse_shard(data: bytes, *, source: str = "<shard>") -> ShardRecord:
    """Decode and validate one GPSH shard blob."""
    if len(data) < _SHARD_HEADER.size + _CRC.size:
        raise CheckpointCorruptError(
            f"{source}: truncated shard ({len(data)} bytes)", path=source
        )
    (
        magic,
        version,
        slice_index,
        step,
        count,
        processed,
        rounds,
        spilled,
        consumed,
    ) = _SHARD_HEADER.unpack_from(data)
    if magic != SHARD_MAGIC:
        raise CheckpointCorruptError(
            f"{source}: bad shard magic {magic!r}", path=source
        )
    if version != SHARD_VERSION:
        raise CheckpointCorruptError(
            f"{source}: unsupported shard version {version}",
            path=source,
            version=version,
        )
    expected = _SHARD_HEADER.size + 8 * count + _CRC.size
    if len(data) != expected:
        raise CheckpointCorruptError(
            f"{source}: shard length {len(data)} != expected {expected}",
            path=source,
        )
    body, crc = data[: -_CRC.size], _CRC.unpack(data[-_CRC.size :])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointCorruptError(
            f"{source}: shard CRC mismatch", path=source
        )
    values = np.frombuffer(
        data, dtype="<f8", count=count, offset=_SHARD_HEADER.size
    ).copy()
    return ShardRecord(
        slice_index=slice_index,
        step=step,
        values=values,
        processed=processed,
        rounds=rounds,
        spilled=spilled,
        consumed=consumed,
    )


def _parse_kill_host(raw: Optional[str]) -> Optional[Tuple[int, str]]:
    if not raw:
        return None
    step_text, _, point = raw.partition(":")
    point = point or "pre"
    if point not in _KILL_POINTS:
        raise ReproError(
            f"{KILL_HOST_ENV}={raw!r}: point must be one of "
            f"{', '.join(_KILL_POINTS)}"
        )
    try:
        return int(step_text), point
    except ValueError:
        raise ReproError(
            f"{KILL_HOST_ENV}={raw!r}: expected STEP[:POINT]"
        ) from None


def _pass_done(live_empty: bool, start: List[Dict], slice_index: int) -> bool:
    """The run is done after slice ``slice_index``'s step when nothing is
    live and no later slice of the pass has pass-start inbound."""
    return live_empty and not any(start[slice_index + 1 :])


class _Fenced(Exception):
    """Our lease epoch is no longer current; yield without publishing."""


@dataclass
class HostSlicedResult:
    """Outcome of one host's participation in a shared run."""

    values: np.ndarray
    converged: bool
    num_passes: int
    total_rounds: int
    events_processed: int
    events_spilled: int
    events_consumed: int
    steps_total: int
    steps_executed: int  #: steps this host executed (not just observed)
    takeovers: int  #: stale leases this host fenced and broke
    host: str
    num_slices: int

    @property
    def spill_bytes_written(self) -> int:
        return self.events_spilled * _SPILL_EVENT_BYTES

    @property
    def spill_bytes_read(self) -> int:
        return self.events_consumed * _SPILL_EVENT_BYTES

    @property
    def total_spill_bytes(self) -> int:
        return self.spill_bytes_written + self.spill_bytes_read


class HostSlicedGraphPulse:
    """One supervisor host of a shared-directory ``sliced-hosts`` run."""

    ENGINE_NAME = "sliced-hosts"

    def __init__(
        self,
        partition: Partition,
        spec,
        *,
        hosts_dir,
        host_id: Optional[str] = None,
        num_bins: int = 64,
        block_size: int = 128,
        max_passes: int = 10_000,
        rounds_per_activation: Optional[int] = None,
        lease_timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ):
        if hosts_dir is None:
            raise ReproError(
                "sliced-hosts requires a hosts_dir (the shared substrate "
                "directory all participating hosts point at)"
            )
        self.partition = partition
        self.spec = spec
        self.hosts_dir = Path(hosts_dir)
        self.host_id = host_id or f"host-{os.getpid()}"
        self.num_bins = num_bins
        self.block_size = block_size
        self.bin_map = VertexBinMap(
            partition.graph.num_vertices, num_bins, block_size
        )
        self.slice_bins = slice_bins(partition, self.bin_map)
        self.max_passes = max_passes
        self.rounds_per_activation = rounds_per_activation
        self.lease_timeout = (
            DEFAULT_LEASE_TIMEOUT if lease_timeout is None else lease_timeout
        )
        self.heartbeat_interval = max(0.02, self.lease_timeout / 10.0)
        self.poll_interval = poll_interval
        self._kill = _parse_kill_host(os.environ.get(KILL_HOST_ENV))
        #: per-slot staleness observation caches, reset whenever the
        #: slot's holder identity changes (see ``_slot_observations``)
        self._slot_obs: Dict[int, Dict[str, Tuple[int, float]]] = {}
        self._slot_ident: Dict[int, Tuple[str, int, int]] = {}
        #: per-acquisition sequence baked into the lease owner string so
        #: every acquisition has a distinct identity (see ``_claim``)
        self._acquire_seq = 0
        self._lease_dir = self.hosts_dir / "leases"
        self._journal_path = self.hosts_dir / JOURNAL_FILENAME

    # ------------------------------------------------------------------
    # Shared-directory artifacts
    # ------------------------------------------------------------------
    def _lease_path(self, slot: int) -> Path:
        return lease_path(self._lease_dir, slot)

    def _acquire(self, slot: int, owner: str, epoch: int = 0) -> SliceLease:
        # the first claim on a fresh hosts_dir creates leases/
        self._lease_dir.mkdir(parents=True, exist_ok=True)
        return SliceLease.acquire(
            self._lease_dir, slot, owner=owner, epoch=epoch
        )

    @property
    def _meta_path(self) -> Path:
        return self.hosts_dir / META_FILENAME

    @property
    def _cursor_path(self) -> Path:
        return self.hosts_dir / CURSOR_FILENAME

    def _shard_path(self, slice_index: int) -> Path:
        return self.hosts_dir / shard_filename(slice_index)

    def _read_cursor(self) -> Optional[Dict[str, Any]]:
        try:
            data = read_bytes(self._cursor_path)
        except FileNotFoundError:
            return None
        return json.loads(data.decode("utf-8"))

    def _publish_cursor(self, step: int, done: bool) -> None:
        atomic_write_bytes(
            self._cursor_path,
            json.dumps({"step": step, "done": done}, sort_keys=True).encode(
                "utf-8"
            ),
        )

    def _read_shard(self, slice_index: int) -> ShardRecord:
        path = self._shard_path(slice_index)
        try:
            data = read_bytes(path)
        except FileNotFoundError:
            raise CheckpointCorruptError(
                f"{path}: shard missing from a seeded hosts directory",
                path=str(path),
            ) from None
        record = parse_shard(data, source=str(path))
        if record.slice_index != slice_index:
            raise CheckpointCorruptError(
                f"{path}: shard names slice {record.slice_index}",
                path=str(path),
            )
        expected = self.partition.slices[slice_index].num_vertices
        if len(record.values) != expected:
            raise CheckpointCorruptError(
                f"{path}: shard holds {len(record.values)} values but the "
                f"slice owns {expected} vertices",
                path=str(path),
            )
        return record

    def _publish_shard(
        self, slice_index: int, step: int, state: np.ndarray, totals: Dict
    ) -> None:
        values = state[self.partition.slices[slice_index].vertices]
        atomic_write_bytes(
            self._shard_path(slice_index),
            encode_shard(slice_index, step, values, **totals),
        )

    def _meta(self) -> Dict[str, Any]:
        from ..graph.io import graph_fingerprint  # heavy import, local

        return {
            "format_version": META_FORMAT_VERSION,
            "protocol": "sliced-hosts",
            "algorithm": self.spec.name,
            "num_slices": self.partition.num_slices,
            "num_vertices": self.partition.graph.num_vertices,
            "graph_fingerprint": graph_fingerprint(self.partition.graph),
        }

    def _validate_meta(self) -> None:
        try:
            recorded = json.loads(read_bytes(self._meta_path).decode("utf-8"))
        except FileNotFoundError:
            return  # creator died pre-publish; a seeder will recreate it
        mine = self._meta()
        for key, expected in mine.items():
            if recorded.get(key) != expected:
                raise ManifestMismatchError(
                    f"{self._meta_path}: hosts directory was seeded for a "
                    f"different workload ({key}: {recorded.get(key)!r} != "
                    f"{expected!r})",
                    key=key,
                    recorded=recorded.get(key),
                    expected=expected,
                )

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def _slot_observations(
        self, slot: int, holder
    ) -> Dict[str, Tuple[int, float]]:
        """The staleness counter cache for ``slot``'s *current* holder.

        Per-step leases are short-lived: every acquisition restarts the
        heartbeat counter at zero, so a shared cache would mistake a
        fresh lease for an old one that has been silent since the cache
        last looked.  Keying the cache by holder identity (owner, pid,
        epoch) resets the staleness clock whenever the holder changes —
        only *one* acquisition's sustained silence can trip it.  The
        acquisition sequence number baked into the owner string keeps
        two acquisitions by the same host distinguishable.
        """
        ident = (holder.owner, holder.pid, holder.epoch)
        if self._slot_ident.get(slot) != ident:
            self._slot_ident[slot] = ident
            self._slot_obs[slot] = {}
        return self._slot_obs[slot]

    def _claim(self, slot: int):
        """Try to claim a lease slot; ``(lease, fenced_stale)`` or None.

        Breaks a stale holder first (epoch-fenced takeover); returns
        ``None`` when the slot is held by a live peer or the race was
        lost.
        """
        self._acquire_seq += 1
        owner = f"{self.host_id}#{self._acquire_seq}"
        path = self._lease_path(slot)
        holder = read_lease(path)
        if holder is None:
            try:
                lease = self._acquire(slot, owner)
            except LeaseHeldError:
                return None
            return lease, False
        observations = self._slot_observations(slot, holder)
        if not is_stale(
            path, timeout=self.lease_timeout, observations=observations
        ):
            return None
        try:
            break_stale(
                path, timeout=self.lease_timeout, observations=observations
            )
        except LeaseHeldError:
            return None
        try:
            lease = self._acquire(slot, owner, epoch=holder.epoch + 1)
        except LeaseHeldError:
            return None  # another host won the post-break race
        return lease, True

    def _check_fence(self, lease) -> None:
        """Abort (``_Fenced``) unless our epoch still owns the slot.

        Re-reads the lease slot immediately before every durable
        publish: a peer that judged us dead has broken our lease and
        re-acquired with a higher epoch, and publishing over its run
        is the one thing epoch fencing exists to prevent.
        """
        current = read_lease(self._lease_path(lease.info.slice_index))
        if (
            current is None
            or current.owner != lease.info.owner
            or current.pid != lease.info.pid
            or current.epoch != lease.info.epoch
        ):
            raise _Fenced()

    def _heartbeat(self, lease) -> Tuple[threading.Event, threading.Thread]:
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                try:
                    lease.refresh()
                except OSError:
                    return

        thread = threading.Thread(
            target=beat, name="hosts-lease-heartbeat", daemon=True
        )
        thread.start()
        return stop, thread

    def _maybe_kill(self, step: int, point: str) -> None:
        if self._kill is not None and self._kill == (step, point):
            os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------
    # Seeding ("step -1")
    # ------------------------------------------------------------------
    def _ensure_seeded(self) -> None:
        """Exactly-once initialization of the shared directory.

        The first host creates ``meta.json`` with ``O_EXCL`` and seeds
        under the reserved lease slot; others validate the meta and wait
        for the cursor.  Seeding is redo-safe: a seeder that dies at any
        point leaves a stale seed lease, and its successor repeats the
        whole deterministic sequence (journal create truncates).
        """
        (self.hosts_dir / "leases").mkdir(parents=True, exist_ok=True)
        meta_blob = json.dumps(
            self._meta(), sort_keys=True, indent=2
        ).encode("utf-8")
        seed_slot = self.partition.num_slices
        while True:
            if self._read_cursor() is not None:
                self._validate_meta()
                return
            try:
                exclusive_create_bytes(self._meta_path, meta_blob)
            except FileExistsError:
                self._validate_meta()
            claim = self._claim(seed_slot)
            if claim is None:
                time.sleep(self.poll_interval)
                continue
            lease, _ = claim
            stop, thread = self._heartbeat(lease)
            try:
                if self._read_cursor() is None:
                    self._seed()
            finally:
                stop.set()
                thread.join()
                lease.release()
            return

    def _seed(self) -> None:
        partition, spec = self.partition, self.spec
        writer = SpillJournal.create(self._journal_path, partition.num_slices)
        try:
            seeds = spec.initial_events(partition.graph)
            for vertex, delta in seeds.items():
                s = int(partition.slice_of_vertex[vertex])
                writer.spill(s, vertex, 0, float(delta))
            writer.commit(0)
        finally:
            writer.close()
        state = spec.initial_state(partition.graph)
        zeros = dict(processed=0, rounds=0, spilled=0, consumed=0)
        for s in range(partition.num_slices):
            self._publish_shard(s, -1, state, zeros)
        self._publish_cursor(0, done=not seeds)

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def _assemble_state(self) -> np.ndarray:
        state = self.spec.initial_state(self.partition.graph)
        for s in range(self.partition.num_slices):
            shard = self._read_shard(s)
            state[self.partition.slices[s].vertices] = shard.values
        return state

    def _spill_buffers(
        self, buckets: List[Dict[int, Tuple[float, int]]]
    ) -> SpillBuffers:
        """A spill store holding replayed journal ``buckets`` (absorption
        order == journal append order == dict insertion order)."""
        partition, spec = self.partition, self.spec
        spill = SpillBuffers(
            partition.slice_of_vertex,
            partition.num_slices,
            spec.reduce,
            spec.reduce_ufunc,
        )
        spill.restore(
            [
                {
                    v: Event(vertex=v, delta=delta, generation=generation)
                    for v, (delta, generation) in bucket.items()
                }
                for bucket in buckets
            ]
        )
        return spill

    def _replay(self, commit: int) -> List[Dict[int, Tuple[float, int]]]:
        """The spill buckets as of journal commit ``commit``."""
        return SpillJournal.replay(
            self._journal_path,
            self.partition.num_slices,
            commit,
            self.spec.reduce,
        )[0]

    def _prev_totals(self, k: int) -> Dict[str, int]:
        """Cumulative counters as of step ``k - 1`` (the newest shard)."""
        if k == 0:
            return dict(processed=0, rounds=0, spilled=0, consumed=0)
        shard = self._read_shard((k - 1) % self.partition.num_slices)
        if shard.step != k - 1:
            raise CheckpointCorruptError(
                f"{self._shard_path(shard.slice_index)}: expected the "
                f"step-{k - 1} shard but found step {shard.step}",
                path=str(self._shard_path(shard.slice_index)),
            )
        return dict(
            processed=shard.processed,
            rounds=shard.rounds,
            spilled=shard.spilled,
            consumed=shard.consumed,
        )

    def _execute_step(self, k: int, lease) -> bool:
        """Run step ``k`` under a held lease; True if the cursor moved."""
        partition, spec = self.partition, self.spec
        num_slices = partition.num_slices
        pass_index, s = divmod(k, num_slices)
        pass_start = pass_index * num_slices
        cursor = self._read_cursor()
        if cursor is None or cursor["done"] or cursor["step"] != k:
            return False  # a peer finished the step between read and claim
        self._maybe_kill(k, "pre")

        scan = SpillJournal.scan(
            self._journal_path, num_slices, None, spec.reduce
        )
        commit = scan.last_commit if scan.last_commit is not None else -1
        redo = False
        if commit == k + 1:
            shard = self._read_shard(s)
            if shard.step == k:
                # journal and shard are durable; only the cursor is
                # missing.  Publish it — no re-execution, the shard
                # already carries the post-step counters.
                done = _pass_done(
                    not any(scan.buffers), self._replay(pass_start), s
                )
                self._check_fence(lease)
                self._publish_cursor(k + 1, done)
                return True
            if shard.step > k:
                raise CheckpointCorruptError(
                    f"{self._shard_path(s)}: shard step {shard.step} is "
                    f"ahead of the cursor step {k}",
                    path=str(self._shard_path(s)),
                )
            # journal committed but the shard publish was lost: redo the
            # step deterministically with journaling suppressed.
            redo = True
            buffers = self._replay(k)
        elif commit == k:
            if scan.tail_bytes:
                # torn tail from a host killed mid-append
                SpillJournal.truncate(self._journal_path, scan.offset)
            buffers = scan.buffers
            if s == 0:
                # re-baseline the log at the pass start, so every step
                # of the pass replays one pass of records, not the run
                self._check_fence(lease)
                SpillJournal.compact_file(
                    self._journal_path, num_slices, k, spec.reduce
                )
        else:
            raise CheckpointCorruptError(
                f"{self.hosts_dir / JOURNAL_FILENAME}: journal commit "
                f"{commit} inconsistent with cursor step {k} (expected "
                f"{k} or {k + 1})",
                path=str(self.hosts_dir / JOURNAL_FILENAME),
                commit=commit,
                step=k,
            )

        state = self._assemble_state()
        totals = self._prev_totals(k)
        # the pass-start buckets are every step's inbound; the first
        # step consumes all of them, so the live buffers it starts from
        # are empty and later steps see only this pass's spills
        start = buffers if s == 0 else self._replay(pass_start)
        inbound = self._spill_buffers(start).take(s)
        spill = self._spill_buffers(buffers if s else [])

        writer = None
        if not redo:
            writer = SpillJournal.open_append(self._journal_path, num_slices)
        processed = rounds = spilled = 0
        try:
            if writer is not None and s == 0:
                for slice_index, bucket in enumerate(start):
                    if bucket:
                        writer.consume(slice_index)
            if len(inbound):

                def emit(
                    vertices: np.ndarray,
                    deltas: np.ndarray,
                    generations: np.ndarray,
                ) -> None:
                    spill.absorb_many(vertices, deltas, generations)
                    if writer is not None:
                        journal_spills(
                            writer,
                            partition.slice_of_vertex,
                            vertices,
                            deltas,
                            generations,
                        )

                processed, rounds, spilled, _ = run_slice_activation(
                    partition,
                    spec,
                    pass_index,
                    s,
                    inbound,
                    state,
                    TrafficCounters(),
                    emit,
                    rounds_per_activation=self.rounds_per_activation,
                    mapping=self.bin_map,
                    bins=self.slice_bins[s],
                )
            if writer is not None:
                self._check_fence(lease)
                writer.commit(k + 1)
        finally:
            if writer is not None:
                writer.close()
        self._maybe_kill(k, "journal")

        totals = dict(
            processed=totals["processed"] + processed,
            rounds=totals["rounds"] + rounds,
            spilled=totals["spilled"] + spilled,
            consumed=totals["consumed"] + len(inbound),
        )
        self._check_fence(lease)
        self._publish_shard(s, k, state, totals)
        self._maybe_kill(k, "shard")
        done = _pass_done(spill.is_empty, start, s)
        self._check_fence(lease)
        self._publish_cursor(k + 1, done)
        return True

    # ------------------------------------------------------------------
    def run(self) -> HostSlicedResult:
        self._ensure_seeded()
        num_slices = self.partition.num_slices
        steps_executed = 0
        takeovers = 0
        while True:
            cursor = self._read_cursor()
            if cursor is None:
                time.sleep(self.poll_interval)
                continue
            if cursor["done"]:
                break
            k = cursor["step"]
            if k // num_slices >= self.max_passes:
                raise NonConvergenceError(
                    f"{self.spec.name} did not converge within "
                    f"{self.max_passes} slice passes "
                    f"({k} cross-host steps)"
                )
            claim = self._claim(k % num_slices)
            if claim is None:
                # a live peer owns the step; wait for the cursor to move
                time.sleep(self.poll_interval)
                continue
            lease, fenced_stale = claim
            if fenced_stale:
                takeovers += 1
            stop, thread = self._heartbeat(lease)
            try:
                if self._execute_step(k, lease):
                    steps_executed += 1
            except _Fenced:
                # a peer fenced our epoch mid-step; its redo owns the
                # publishes from here on
                continue
            finally:
                stop.set()
                thread.join()
                lease.release()
        return self._finalize(steps_executed, takeovers)

    def _finalize(
        self, steps_executed: int, takeovers: int
    ) -> HostSlicedResult:
        cursor = self._read_cursor()
        steps_total = int(cursor["step"]) if cursor else 0
        values = self._assemble_state()
        totals = self._prev_totals(steps_total)
        passes = (
            (steps_total - 1) // self.partition.num_slices + 1
            if steps_total > 0
            else 0
        )
        return HostSlicedResult(
            values=values,
            converged=True,
            num_passes=passes,
            total_rounds=totals["rounds"],
            events_processed=totals["processed"],
            events_spilled=totals["spilled"],
            events_consumed=totals["consumed"],
            steps_total=steps_total,
            steps_executed=steps_executed,
            takeovers=takeovers,
            host=self.host_id,
            num_slices=self.partition.num_slices,
        )
