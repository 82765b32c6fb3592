"""Durable execution: on-disk checkpoints, run manifests, and resume.

PR2's :class:`~repro.resilience.checkpoint.CheckpointManager` keeps
checkpoints in memory for rollback within one process; this module makes
the same captures survive the process.  The contract is *crash
consistency with bit-identical resume*: kill a durable run at any round,
``repro resume <run-dir>``, and the continued run reaches the exact same
final vertex state (same float64 bits) and the same convergence round an
uninterrupted run reaches.

A durable run directory contains:

``manifest.json``
    The run's identity and index, atomically rewritten after every
    checkpoint: format version, workload (algorithm / dataset / scale),
    engine and engine options, graph fingerprint
    (:func:`repro.graph.io.graph_fingerprint`), the resilience
    configuration (fault plan, checkpoint cadence), and the list of
    retained checkpoints.

``checkpoint-NNNNNN.ckpt``
    One serialized capture (format below), written with temp-file +
    ``os.replace`` so a crash mid-write never leaves a half checkpoint
    under a valid name.

``journal.bin``
    Sliced runs only: the write-ahead spill journal
    (:mod:`repro.resilience.journal`) that makes the inter-slice DRAM
    spill buffers replayable.

Checkpoint binary format (little-endian)::

    magic b"GPCK" | version u16 | header_len u32 | header JSON
    | vertex state (num_vertices f64)
    | group sizes (num_groups i64)
    | event records (num_events x {vertex i64, delta f64, generation
      i64, ready i64, parity u8})
    | crc32 u32 over everything before it

The header JSON carries the sequencing metadata (round index, engine
time, running totals, the fault-injector RNG cursor, the journal commit
the capture pairs with).  Deltas travel as raw IEEE-754 bits, so NaN
payloads and ±inf survive the round trip exactly.  Any mismatch — bad
magic, unknown version, CRC failure, truncation, inconsistent lengths —
raises :class:`repro.errors.CheckpointCorruptError`; a corrupt file is
never partially loaded.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from ..errors import CheckpointCorruptError, ManifestMismatchError, RunInterruptedError
from ..ioutil import atomic_write_bytes, read_bytes
from ..obs import probe
from ..obs import trace as obs_trace
from .checkpoint import Checkpoint, CheckpointManager
from .storagefaults import retry_transient

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "MANIFEST_VERSION",
    "serialize_checkpoint",
    "deserialize_checkpoint",
    "RestoredRun",
    "DurableCheckpointStore",
    "DurableCheckpointManager",
    "InterruptGuard",
    "stop_requested",
    "build_manifest",
    "resume_run",
    "ResumeOutcome",
    "GcReport",
    "gc_run_dir",
]

PathLike = Union[str, os.PathLike]

CHECKPOINT_MAGIC = b"GPCK"
CHECKPOINT_VERSION = 1
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.bin"

#: engines whose durable runs keep the spill journal and checkpoint their
#: spill buffers (the "spill" queue encoding).  The harness, durable
#: resume, the crash campaign and the CLI all key on this one name;
#: ``parallel-sliced`` is deliberately absent (see core/engines.py).
SPILL_JOURNALED_ENGINES = ("sliced", "sliced-mp")

_PREAMBLE = struct.Struct("<HI")  # version, header length
_CRC = struct.Struct("<I")

#: packed per-event record; delta carries raw f64 bits so NaN payloads
#: and ±inf round-trip exactly
_EVENT_DTYPE = np.dtype(
    [
        ("vertex", "<i8"),
        ("delta", "<f8"),
        ("generation", "<i8"),
        ("ready", "<i8"),
        ("parity", "u1"),
    ]
)


# ----------------------------------------------------------------------
# Queue-snapshot <-> flat-record conversion
# ----------------------------------------------------------------------
def _snapshot_records(queue_kind: str, snapshot: Any):
    """Flatten a queue snapshot into (group sizes, event records).

    ``"bins"`` snapshots are ``List[List[Event]]`` (one group per
    occupied queue slot, in slot order); ``"spill"`` snapshots are
    ``List[Dict[int, Event]]`` (one group per slice, in insertion
    order — dict order is load-bearing: it decides the replayed
    activation's insertion order, so it must survive the round trip).
    """
    from ..core.event import Event  # local: avoid a core<->resilience cycle

    groups: List[int] = []
    flat: List[Any] = []
    if queue_kind == "spill":
        for bucket in snapshot:
            groups.append(len(bucket))
            flat.extend(bucket.values())
    else:
        for entries in snapshot:
            groups.append(len(entries))
            flat.extend(entries)
    records = np.zeros(len(flat), dtype=_EVENT_DTYPE)
    for i, event in enumerate(flat):
        records[i] = (
            event.vertex,
            event.delta,
            event.generation,
            event.ready,
            1 if getattr(event, "_parity_bad", False) else 0,
        )
    return np.asarray(groups, dtype=np.int64), records


def _records_snapshot(queue_kind: str, groups: np.ndarray, records: np.ndarray):
    """Inverse of :func:`_snapshot_records`."""
    from ..core.event import Event

    snapshot: List[Any] = []
    cursor = 0
    for size in groups:
        size = int(size)
        chunk = records[cursor : cursor + size]
        cursor += size
        events = []
        for row in chunk:
            event = Event(
                vertex=int(row["vertex"]),
                delta=float(row["delta"]),
                generation=int(row["generation"]),
                ready=int(row["ready"]),
            )
            if int(row["parity"]):
                event._parity_bad = True  # type: ignore[attr-defined]
            events.append(event)
        if queue_kind == "spill":
            snapshot.append({e.vertex: e for e in events})
        else:
            snapshot.append(events)
    return snapshot


# ----------------------------------------------------------------------
# Checkpoint (de)serialization
# ----------------------------------------------------------------------
def serialize_checkpoint(
    checkpoint: Checkpoint,
    *,
    engine: str,
    algorithm: str,
    queue_kind: str,
    totals: Mapping[str, int],
    fault_cursor: Mapping[str, Any],
    journal_commit: Optional[int],
) -> bytes:
    """Encode one checkpoint into the self-verifying binary format."""
    state = np.ascontiguousarray(checkpoint.state, dtype=np.float64)
    groups, records = _snapshot_records(queue_kind, checkpoint.queue_snapshot)
    header = {
        "seq": int(checkpoint.index),
        "round_index": int(checkpoint.round_index),
        "at": float(checkpoint.at),
        "engine": engine,
        "algorithm": algorithm,
        "queue_kind": queue_kind,
        "num_vertices": int(state.shape[0]),
        "num_groups": int(groups.shape[0]),
        "num_events": int(records.shape[0]),
        "totals": {k: int(v) for k, v in totals.items()},
        "fault_cursor": dict(fault_cursor),
        "journal_commit": journal_commit,
        "pending_events": int(checkpoint.pending_events),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (
        CHECKPOINT_MAGIC
        + _PREAMBLE.pack(CHECKPOINT_VERSION, len(header_bytes))
        + header_bytes
        + state.tobytes()
        + groups.tobytes()
        + records.tobytes()
    )
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


@dataclass
class RestoredRun:
    """A verified checkpoint, materialized for an engine's ``restore``."""

    seq: int
    round_index: int
    at: float
    engine: str
    algorithm: str
    queue_kind: str
    state: np.ndarray
    queue_snapshot: Any
    totals: Dict[str, int]
    fault_cursor: Dict[str, Any]
    journal_commit: Optional[int]


def deserialize_checkpoint(data: bytes, *, source: str = "<bytes>") -> RestoredRun:
    """Decode + verify a serialized checkpoint.

    Every validation failure raises
    :class:`repro.errors.CheckpointCorruptError` naming ``source``;
    nothing is ever partially restored from a file that fails its CRC.
    """

    def corrupt(message: str, **context: Any) -> CheckpointCorruptError:
        return CheckpointCorruptError(
            f"{source}: {message}", path=source, **context
        )

    floor = len(CHECKPOINT_MAGIC) + _PREAMBLE.size + _CRC.size
    if len(data) < floor:
        raise corrupt(f"truncated checkpoint ({len(data)} bytes)")
    if data[:4] != CHECKPOINT_MAGIC:
        raise corrupt("not a checkpoint file (bad magic)")
    version, header_len = _PREAMBLE.unpack_from(data, 4)
    if version != CHECKPOINT_VERSION:
        raise corrupt(
            f"unsupported checkpoint version {version} "
            f"(expected {CHECKPOINT_VERSION})",
            version=version,
        )
    body, trailer = data[: -_CRC.size], data[-_CRC.size :]
    (expected_crc,) = _CRC.unpack(trailer)
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise corrupt(
            f"checkpoint CRC mismatch "
            f"(stored {expected_crc:#010x}, computed {actual_crc:#010x})",
            expected_crc=expected_crc,
            actual_crc=actual_crc,
        )
    header_start = len(CHECKPOINT_MAGIC) + _PREAMBLE.size
    header_stop = header_start + header_len
    if header_stop > len(body):
        raise corrupt("header length exceeds file size")
    try:
        header = json.loads(body[header_start:header_stop].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise corrupt(f"unreadable checkpoint header ({exc})") from exc

    num_vertices = int(header.get("num_vertices", -1))
    num_groups = int(header.get("num_groups", -1))
    num_events = int(header.get("num_events", -1))
    if min(num_vertices, num_groups, num_events) < 0:
        raise corrupt("checkpoint header is missing section sizes")
    state_len = num_vertices * 8
    groups_len = num_groups * 8
    events_len = num_events * _EVENT_DTYPE.itemsize
    if header_stop + state_len + groups_len + events_len != len(body):
        raise corrupt(
            "checkpoint sections do not add up to the file size",
            expected=header_stop + state_len + groups_len + events_len,
            actual=len(body),
        )
    cursor = header_stop
    state = np.frombuffer(
        body, dtype="<f8", count=num_vertices, offset=cursor
    ).copy()
    cursor += state_len
    groups = np.frombuffer(
        body, dtype="<i8", count=num_groups, offset=cursor
    ).copy()
    cursor += groups_len
    records = np.frombuffer(
        body, dtype=_EVENT_DTYPE, count=num_events, offset=cursor
    ).copy()
    if int(groups.sum()) != num_events:
        raise corrupt(
            "group sizes disagree with the event count",
            group_total=int(groups.sum()),
            num_events=num_events,
        )
    queue_kind = header.get("queue_kind", "bins")
    return RestoredRun(
        seq=int(header["seq"]),
        round_index=int(header["round_index"]),
        at=float(header["at"]),
        engine=str(header.get("engine", "")),
        algorithm=str(header.get("algorithm", "")),
        queue_kind=queue_kind,
        state=state,
        queue_snapshot=_records_snapshot(queue_kind, groups, records),
        totals={k: int(v) for k, v in header.get("totals", {}).items()},
        fault_cursor=dict(header.get("fault_cursor", {})),
        journal_commit=header.get("journal_commit"),
    )


# ----------------------------------------------------------------------
# The run-directory store
# ----------------------------------------------------------------------
class DurableCheckpointStore:
    """One durable run directory: manifest + checkpoints (+ journal).

    Every publish is an atomic temp + fsync + rename
    (:func:`repro.ioutil.atomic_write_bytes`) and every load goes through
    :func:`repro.ioutil.read_bytes`, so the storage-fault shim sees both
    sides.  Consumers get one from
    ``build_substrate().checkpoint_store(run_dir)`` (lint rule SUB-001).
    """

    def __init__(self, run_dir: PathLike):
        self.run_dir = Path(run_dir)
        self.manifest: Optional[Dict[str, Any]] = None

    # -- paths ----------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.run_dir / JOURNAL_NAME

    def checkpoint_path(self, seq: int) -> Path:
        return self.run_dir / f"checkpoint-{seq:06d}.ckpt"

    # -- lifecycle ------------------------------------------------------
    def create(self, manifest: Dict[str, Any]) -> None:
        """Start a fresh run directory; refuses to clobber an existing run."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            raise ManifestMismatchError(
                f"{self.run_dir} already contains a durable run; "
                f"resume it with 'repro resume {self.run_dir}' or pick a "
                f"fresh --checkpoint-dir",
                run_dir=str(self.run_dir),
            )
        self.manifest = manifest
        self._write_manifest()

    def open(self) -> Dict[str, Any]:
        """Load + validate an existing run directory's manifest."""
        if not self.manifest_path.exists():
            raise ManifestMismatchError(
                f"{self.run_dir} has no {MANIFEST_NAME}; not a durable run "
                f"directory",
                run_dir=str(self.run_dir),
            )
        try:
            # loads route through ioutil.read_bytes so the storage-fault
            # shim can model read-side corruption of the manifest too
            manifest = json.loads(read_bytes(self.manifest_path).decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(
                f"{self.manifest_path}: unreadable manifest ({exc})",
                path=str(self.manifest_path),
            ) from exc
        version = manifest.get("format_version")
        if version != MANIFEST_VERSION:
            raise CheckpointCorruptError(
                f"{self.manifest_path}: unsupported manifest version "
                f"{version!r} (expected {MANIFEST_VERSION})",
                path=str(self.manifest_path),
                version=version,
            )
        self.manifest = manifest
        return manifest

    def _write_manifest(self) -> None:
        assert self.manifest is not None
        text = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        # transient EIO/ENOSPC on the publish gets a bounded retry; the
        # atomic temp+rename discipline makes the re-attempt safe (the
        # failed attempt never touched the destination)
        retry_transient(
            lambda: atomic_write_bytes(self.manifest_path, text.encode("utf-8")),
            description=f"manifest write ({self.manifest_path})",
        )

    # -- checkpoint IO --------------------------------------------------
    def next_seq(self) -> int:
        """The sequence number the next checkpoint should carry."""
        entries = (self.manifest or {}).get("checkpoints", [])
        return int(entries[-1]["seq"]) + 1 if entries else 0

    def write(
        self,
        checkpoint: Checkpoint,
        *,
        engine: str,
        algorithm: str,
        queue_kind: str,
        totals: Mapping[str, int],
        fault_cursor: Mapping[str, Any],
        journal_commit: Optional[int],
        keep: int,
    ) -> Path:
        """Persist one capture and index it in the manifest.

        Write order is the crash-safety argument: (1) the checkpoint
        lands atomically under its final name, (2) the manifest —
        already pruned to the ``keep`` newest entries — is atomically
        replaced, (3) only then are dropped checkpoint files unlinked.
        A crash between any two steps leaves a manifest whose every
        entry points at a complete, CRC-valid file.
        """
        assert self.manifest is not None
        blob = serialize_checkpoint(
            checkpoint,
            engine=engine,
            algorithm=algorithm,
            queue_kind=queue_kind,
            totals=totals,
            fault_cursor=fault_cursor,
            journal_commit=journal_commit,
        )
        path = self.checkpoint_path(checkpoint.index)
        retry_transient(
            lambda: atomic_write_bytes(path, blob),
            description=f"checkpoint write ({path})",
        )
        entries = list(self.manifest.get("checkpoints", []))
        entries.append(
            {
                "seq": int(checkpoint.index),
                "round_index": int(checkpoint.round_index),
                "at": float(checkpoint.at),
                "file": path.name,
                "bytes": len(blob),
                "journal_commit": None
                if journal_commit is None
                else int(journal_commit),
            }
        )
        dropped = entries[:-keep] if keep > 0 else []
        self.manifest["checkpoints"] = entries[-keep:] if keep > 0 else entries
        self._write_manifest()
        for entry in dropped:
            try:
                (self.run_dir / entry["file"]).unlink()
            except OSError:
                pass  # GC is best-effort; the manifest no longer points here
        if obs_trace.ACTIVE is not None:
            probe.checkpoint_write(
                checkpoint.index,
                checkpoint.at,
                path=str(path),
                nbytes=len(blob),
                round_index=checkpoint.round_index,
            )
        return path

    def load(self, seq: int) -> RestoredRun:
        path = self.checkpoint_path(seq)
        try:
            data = read_bytes(path)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"{path}: cannot read checkpoint ({exc})", path=str(path)
            ) from exc
        restored = deserialize_checkpoint(data, source=str(path))
        if restored.seq != seq:
            raise CheckpointCorruptError(
                f"{path}: file claims sequence {restored.seq}, manifest "
                f"expects {seq}",
                path=str(path),
            )
        return restored

    def load_latest(self) -> Optional[RestoredRun]:
        """The newest manifest-indexed checkpoint, or None before the first."""
        entries = (self.manifest or {}).get("checkpoints", [])
        if not entries:
            return None
        return self.load(int(entries[-1]["seq"]))

    def drop_newer_than(self, seq: Optional[int]) -> List[Dict[str, Any]]:
        """Demote the manifest to generation ``seq`` (``None`` = none).

        The resume fallback ladder calls this *before* rebuilding an
        engine on an older generation: the manifest is atomically
        rewritten without the newer (corrupt) entries first, then their
        files are unlinked best-effort — so any harness re-opening the
        run directory sees the adopted generation as the newest and its
        ``next_seq`` overwrites the corrupt range instead of appending
        past it.  Returns the dropped entries.
        """
        assert self.manifest is not None
        entries = list(self.manifest.get("checkpoints", []))
        if seq is None:
            retained: List[Dict[str, Any]] = []
        else:
            retained = [e for e in entries if int(e["seq"]) <= seq]
        dropped = [e for e in entries if e not in retained]
        if not dropped:
            return []
        self.manifest["checkpoints"] = retained
        self._write_manifest()
        for entry in dropped:
            try:
                (self.run_dir / entry["file"]).unlink()
            except OSError:
                pass  # best-effort; the manifest no longer points here
        return dropped


# ----------------------------------------------------------------------
# The durable manager (drop-in CheckpointManager subclass)
# ----------------------------------------------------------------------
class DurableCheckpointManager(CheckpointManager):
    """A :class:`CheckpointManager` whose captures also land on disk.

    The in-memory rollback ladder (repair epochs -> rollback) is
    untouched; ``_persist`` mirrors each capture into the store using
    the sequencing metadata the harness staged just before ``take``.
    """

    #: checkpoint cadence when --checkpoint-dir is given without an
    #: explicit --checkpoint-interval
    DEFAULT_INTERVAL = 5

    def __init__(
        self,
        interval: Optional[int],
        *,
        keep: int,
        store: DurableCheckpointStore,
        engine: str,
        algorithm: str,
        queue_kind: str,
    ):
        super().__init__(interval, keep=keep)
        self.store = store
        self.engine = engine
        self.algorithm = algorithm
        self.queue_kind = queue_kind
        self.written = 0
        self.last_path: Optional[Path] = None
        self._staged_totals: Mapping[str, int] = {}
        self._staged_cursor: Mapping[str, Any] = {}
        self._staged_commit: Optional[int] = None
        crash_at = os.environ.get("REPRO_CRASH_AT_ROUND")
        sigint_at = os.environ.get("REPRO_SIGINT_AT_ROUND")
        self._crash_at = int(crash_at) if crash_at else None
        self._sigint_at = int(sigint_at) if sigint_at else None

    def stage(
        self,
        totals: Mapping[str, int],
        fault_cursor: Mapping[str, Any],
        journal_commit: Optional[int],
    ) -> None:
        """Record the side metadata the next ``take`` should persist."""
        self._staged_totals = totals
        self._staged_cursor = fault_cursor
        self._staged_commit = journal_commit

    def _persist(self, checkpoint: Checkpoint) -> None:
        self.last_path = self.store.write(
            checkpoint,
            engine=self.engine,
            algorithm=self.algorithm,
            queue_kind=self.queue_kind,
            totals=self._staged_totals,
            fault_cursor=self._staged_cursor,
            journal_commit=self._staged_commit,
            keep=self.keep,
        )
        self.written += 1

    def chaos_hook(self, round_index: int) -> None:
        """Crash-injection hooks for the durability test harness.

        ``REPRO_CRASH_AT_ROUND=N`` SIGKILLs the process the first time
        round ``N`` completes — an unhookable hard death, like power
        loss.  ``REPRO_SIGINT_AT_ROUND=N`` sends a real SIGINT to self,
        exercising the graceful-interrupt path through the actual signal
        handler at a deterministic round.
        """
        if self._crash_at is not None and round_index >= self._crash_at:
            os.kill(os.getpid(), signal.SIGKILL)
        if self._sigint_at is not None and round_index >= self._sigint_at:
            self._sigint_at = None
            os.kill(os.getpid(), signal.SIGINT)


# ----------------------------------------------------------------------
# Graceful interrupts
# ----------------------------------------------------------------------
_STOP = False


def stop_requested() -> bool:
    """True once SIGINT/SIGTERM arrived under an :class:`InterruptGuard`."""
    return _STOP


class InterruptGuard:
    """Turn the first SIGINT/SIGTERM into a cooperative stop request.

    While active, the first signal only sets a flag — the engine
    finishes its current round, flushes a final durable checkpoint, and
    unwinds with :class:`repro.errors.RunInterruptedError`.  A second
    signal raises ``KeyboardInterrupt`` immediately (the user really
    means it).  Handlers are restored on exit; installation failures in
    non-main threads are tolerated (the guard becomes a no-op).
    """

    def __init__(self) -> None:
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum: int, frame: Any) -> None:
        global _STOP
        if _STOP:
            raise KeyboardInterrupt
        _STOP = True

    def __enter__(self) -> "InterruptGuard":
        global _STOP
        _STOP = False
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except ValueError:
                pass  # not the main thread; leave default handling alone
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _STOP
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:
                pass
        self._previous.clear()
        _STOP = False


# ----------------------------------------------------------------------
# Manifest construction + resume
# ----------------------------------------------------------------------
def build_manifest(config: Any, graph: Any, engine: str, spec: Any) -> Dict[str, Any]:
    """Assemble a fresh run's manifest from its configuration.

    Deliberately timestamp-free: two runs of the same workload produce
    byte-identical manifests, which keeps durable runs inside the
    repository's determinism discipline.
    """
    from ..graph.io import graph_fingerprint  # local: io imports are heavy

    meta = dict(config.run_meta or {})
    interval = (
        config.checkpoint_interval
        if config.checkpoint_interval is not None
        else DurableCheckpointManager.DEFAULT_INTERVAL
    )
    return {
        "format_version": MANIFEST_VERSION,
        "workload": meta.get("workload"),
        "engine": engine,
        "engine_options": meta.get("engine_options", {}),
        "graph": {
            "fingerprint": graph_fingerprint(graph),
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "weighted": bool(graph.is_weighted),
            "name": graph.name,
        },
        "algorithm": spec.name,
        "resilience": {
            "checkpoint_interval": int(interval),
            "checkpoint_keep": int(config.checkpoint_keep),
            "fault_plan": config.fault_plan.to_dict(),
        },
        "journal": JOURNAL_NAME if engine in SPILL_JOURNALED_ENGINES else None,
        "checkpoints": [],
    }


@dataclass
class ResumeOutcome:
    """What :func:`resume_run` hands back to the CLI.

    ``result`` is the engine-independent
    :class:`repro.core.engines.RunResult`; the engine's native result
    object rides along as ``result.raw``.  ``provenance`` records *how*
    the run was recovered: which checkpoint generation was adopted,
    which newer generations failed verification and were discarded, and
    what the journal replay did (see ``repro resume --json``).
    """

    engine: str
    manifest: Dict[str, Any]
    restored: Optional[RestoredRun]
    result: Any
    provenance: Dict[str, Any] = field(default_factory=dict)


def resume_run(
    run_dir: PathLike, *, timeseries=None, fallback: bool = True
) -> ResumeOutcome:
    """Validate a run directory, restore its state, run to convergence.

    The manifest's graph fingerprint is recomputed from the workload it
    names; any disagreement — different dataset files, different proxy
    scale, a hand-edited manifest — raises
    :class:`repro.errors.ManifestMismatchError` instead of silently
    producing answers for the wrong graph.

    ``fallback=True`` (the default) is the generation ladder: when the
    newest checkpoint fails verification — CRC mismatch, truncation,
    a journal that cannot replay to its commit — resume falls back to
    the next-older manifest-indexed generation, demoting the manifest
    (:meth:`DurableCheckpointStore.drop_newer_than`) before rebuilding
    the engine, and ultimately restarts from scratch when no generation
    verifies.  Determinism makes every rung reach the same final bits.
    ``fallback=False`` preserves the strict contract: the first
    :class:`CheckpointCorruptError` propagates (CLI exit 2).

    ``timeseries`` (a :class:`repro.obs.TimeSeries`) gives the resumed
    tail the same ``--metrics`` sampling a fresh ``repro run`` gets.
    """
    # local imports: durable is reachable from the engines through the
    # harness, so importing them at module scope would be circular
    from ..analysis import prepare_workload
    from ..core.engines import build_engine, resumable_engine_names
    from ..graph.io import graph_fingerprint
    from .faults import FaultPlan
    from .harness import ResilienceConfig
    from .substrate import build_substrate

    # wall clock feeds only the resume-span telemetry below, never the
    # replayed trajectory  # repro: allow(DET-001)
    wall_start = time.monotonic()
    substrate = build_substrate()
    store = substrate.checkpoint_store(run_dir)
    manifest = store.open()

    workload = manifest.get("workload") or {}
    algorithm = workload.get("algorithm")
    dataset = workload.get("dataset")
    scale = workload.get("scale")
    if not algorithm or not dataset or scale is None:
        raise ManifestMismatchError(
            f"{store.manifest_path}: manifest does not name a CLI workload "
            f"(algorithm/dataset/scale); only runs started with "
            f"'repro run --checkpoint-dir' can be resumed",
            run_dir=str(store.run_dir),
        )
    engine = manifest.get("engine")
    if engine not in resumable_engine_names():
        raise ManifestMismatchError(
            f"{store.manifest_path}: engine {engine!r} is not resumable "
            f"(expected one of {', '.join(resumable_engine_names())})",
            run_dir=str(store.run_dir),
            engine=engine,
        )
    stored_options = manifest.get("engine_options") or {}
    dispatch = stored_options.get("dispatch", "barrier")
    if dispatch != "barrier":
        raise ManifestMismatchError(
            f"{store.manifest_path}: run used the retired {dispatch!r} "
            f"slice schedule and cannot be resumed; 'barrier' is the "
            f"only one",
            run_dir=str(store.run_dir),
            dispatch=dispatch,
        )

    graph, spec = prepare_workload(dataset, algorithm, scale=scale)
    fingerprint = graph_fingerprint(graph)
    recorded = (manifest.get("graph") or {}).get("fingerprint")
    if recorded != fingerprint:
        raise ManifestMismatchError(
            f"{store.manifest_path}: graph fingerprint mismatch — the "
            f"manifest records {recorded!r} but workload "
            f"{algorithm}/{dataset}@{scale:g} reproduces {fingerprint!r}; "
            f"refusing to resume against a different graph",
            run_dir=str(store.run_dir),
            recorded=recorded,
            actual=fingerprint,
        )

    section = manifest.get("resilience") or {}
    config = ResilienceConfig(
        fault_plan=FaultPlan.from_dict(section.get("fault_plan") or {}),
        checkpoint_interval=section.get("checkpoint_interval"),
        checkpoint_keep=int(section.get("checkpoint_keep", 2)),
        checkpoint_dir=str(store.run_dir),
        run_meta={
            "workload": workload,
            "engine_options": manifest.get("engine_options", {}),
        },
        resume=True,
    )
    options: Dict[str, Any] = {}
    if engine in SPILL_JOURNALED_ENGINES:
        options = {
            "num_slices": int(stored_options.get("num_slices", 2)),
            "queue_capacity": stored_options.get("queue_capacity"),
            "auto_slice": bool(stored_options.get("auto_slice", True)),
        }
    if engine == "sliced-mp":
        options["num_workers"] = int(stored_options.get("num_workers", 2))

    def build():
        return build_engine(
            engine, (graph, spec), options, resilience=config,
            timeseries=timeseries,
        )

    # The generation ladder: walk manifest entries newest-first, adopt
    # the first generation that both deserializes (CRC) and restores
    # (journal replay + bytewise cross-check).  Each failed rung demotes
    # the on-disk manifest *before* the next engine build, so the
    # harness the engine constructs over this run directory never sees
    # — and can never resurrect — a discarded corrupt generation.
    entries = list(manifest.get("checkpoints") or [])
    skipped: List[Dict[str, Any]] = []
    restored: Optional[RestoredRun] = None
    handle = None
    for entry in reversed(entries):
        seq = int(entry["seq"])
        try:
            candidate = store.load(seq)
            if candidate.engine != engine:
                raise CheckpointCorruptError(
                    f"{store.run_dir}: checkpoint {seq} was written by the "
                    f"{candidate.engine!r} engine but the manifest names "
                    f"{engine!r}",
                    run_dir=str(store.run_dir),
                )
        except CheckpointCorruptError as exc:
            if not fallback:
                raise
            skipped.append({"seq": seq, "error": str(exc)})
            continue
        if skipped:
            store.drop_newer_than(seq)
        candidate_handle = build()
        try:
            candidate_handle.restore(candidate)
        except CheckpointCorruptError as exc:
            if not fallback:
                raise
            skipped.append({"seq": seq, "error": str(exc)})
            store.drop_newer_than(seq - 1)
            continue
        restored, handle = candidate, candidate_handle
        break

    if handle is None:
        # no generation verified (or none was ever written): restart
        # from scratch — determinism still reaches the reference bits
        if skipped:
            store.drop_newer_than(None)
        handle = build()
        transport = substrate.spill_transport(store.journal_path)
        if engine in SPILL_JOURNALED_ENGINES and transport.exists():
            # the surviving journal pairs with checkpoints we no longer
            # trust (or that never existed): reset it so the fresh run's
            # records do not stack on the dead run's history
            transport.create(handle.runner.partition.num_slices).close()

    journal_stats = getattr(handle.runner, "journal_replay", None)
    provenance = {
        "generation": None if restored is None else restored.seq,
        "round_index": None if restored is None else restored.round_index,
        "fallback": bool(skipped),
        "from_scratch": restored is None,
        "checkpoints_skipped": skipped,
        "journal": journal_stats,
    }
    result = handle.run()
    if obs_trace.ACTIVE is not None:
        probe.resume_span(
            wall_start,
            # telemetry-only span end; see wall_start  # repro: allow(DET-001)
            time.monotonic(),
            checkpoint=restored.seq if restored is not None else -1,
            round_index=restored.round_index if restored is not None else 0,
            engine=engine,
        )
    return ResumeOutcome(
        engine=engine,
        manifest=manifest,
        restored=restored,
        result=result,
        provenance=provenance,
    )


# ----------------------------------------------------------------------
# Lifecycle management: repro gc
# ----------------------------------------------------------------------
@dataclass
class GcReport:
    """What ``repro gc <run-dir>`` did (or, with ``--dry-run``, would do)."""

    run_dir: str
    keep: int
    dry_run: bool
    #: retained, verified manifest entries (newest last)
    retained: List[Dict[str, Any]] = field(default_factory=list)
    #: verified entries beyond the retention window (files removed)
    dropped: List[Dict[str, Any]] = field(default_factory=list)
    #: manifest entries whose files failed verification (files removed)
    corrupt: List[Dict[str, Any]] = field(default_factory=list)
    #: on-disk ``*.ckpt`` files no manifest entry references
    orphans: List[str] = field(default_factory=list)
    #: journal compaction stats, or None (no journal / nothing to drop)
    journal: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_dir": self.run_dir,
            "keep": self.keep,
            "dry_run": self.dry_run,
            "retained": self.retained,
            "dropped": self.dropped,
            "corrupt": self.corrupt,
            "orphans": self.orphans,
            "journal": self.journal,
        }


def gc_run_dir(
    run_dir: PathLike, *, keep: Optional[int] = None, dry_run: bool = False
) -> GcReport:
    """Apply the retention policy to a durable run directory.

    Every manifest-indexed checkpoint is *verified* (full CRC
    deserialization) first; corrupt generations and verified generations
    beyond the ``keep`` newest are dropped — manifest demoted
    atomically, then files unlinked — along with orphaned ``*.ckpt``
    files nothing references.  The journal, when present, is compacted
    at the **oldest retained** generation's commit, never the newest:
    the retention invariant is that every retained checkpoint stays
    resumable, so no journal record at or past the oldest retained
    commit is ever removed.  ``keep`` defaults to the run's configured
    ``checkpoint_keep``.  ``dry_run`` reports without mutating.
    """
    from .substrate import build_substrate

    store = build_substrate().checkpoint_store(run_dir)
    manifest = store.open()
    if keep is None:
        keep = int((manifest.get("resilience") or {}).get("checkpoint_keep", 2))
    if keep < 1:
        raise ManifestMismatchError(
            f"gc --keep must be >= 1 (got {keep}); removing every "
            f"generation would make the run unresumable",
            run_dir=str(store.run_dir),
        )
    report = GcReport(run_dir=str(store.run_dir), keep=keep, dry_run=dry_run)

    entries = list(manifest.get("checkpoints") or [])
    verified: List[Dict[str, Any]] = []
    for entry in entries:
        seq = int(entry["seq"])
        try:
            restored = store.load(seq)
        except CheckpointCorruptError as exc:
            report.corrupt.append(
                {"seq": seq, "file": entry["file"], "error": str(exc)}
            )
            continue
        entry = dict(entry)
        # backfill for manifests written before entries carried the
        # commit — the checkpoint header has always recorded it
        entry.setdefault("journal_commit", restored.journal_commit)
        verified.append(entry)
    report.retained = verified[-keep:]
    report.dropped = verified[: -keep] if len(verified) > keep else []

    referenced = {e["file"] for e in report.retained}
    removable = {e["file"] for e in report.dropped} | {
        e["file"] for e in report.corrupt
    }
    report.orphans = sorted(
        p.name
        for p in store.run_dir.glob("*.ckpt")
        if p.name not in referenced and p.name not in removable
    )

    journal_boundary: Optional[int] = None
    if manifest.get("journal") and store.journal_path.exists() and report.retained:
        journal_boundary = report.retained[0].get("journal_commit")

    if dry_run:
        if journal_boundary is not None:
            report.journal = {"compact_upto": int(journal_boundary)}
        return report

    manifest["checkpoints"] = report.retained
    store._write_manifest()
    for name in sorted(removable | set(report.orphans)):
        try:
            (store.run_dir / name).unlink()
        except OSError:
            pass  # best-effort; the manifest no longer points here

    if journal_boundary is not None:
        from ..analysis import prepare_workload
        from .journal import SpillJournal

        workload = manifest.get("workload") or {}
        if (
            not workload.get("dataset")
            or not workload.get("algorithm")
            or workload.get("scale") is None
        ):
            # compaction needs the algorithm's reduce operator, which
            # only a CLI-named workload can reconstruct
            report.journal = {"skipped": "manifest names no CLI workload"}
            return report
        num_slices = int(
            (manifest.get("engine_options") or {}).get("num_slices", 2)
        )
        _, spec = prepare_workload(
            workload["dataset"],
            workload["algorithm"],
            scale=workload["scale"],
        )
        stats = SpillJournal.compact_file(
            store.journal_path,
            num_slices,
            int(journal_boundary),
            spec.reduce,
        )
        report.journal = stats
    return report
