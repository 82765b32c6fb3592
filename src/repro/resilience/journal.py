"""Write-ahead journal for inter-slice spill traffic.

The sliced engine models GraphPulse's scaled configuration (Section
IV-F): events destined for an inactive slice are spilled "to DRAM" and
injected when that slice is next activated.  The spill buffers are the
one piece of engine state that lives *outside* the coalescing queue, so
a durable checkpoint of vertex state + queue contents is not enough to
restart a sliced run — the in-flight cross-slice events would be lost.

``SpillJournal`` closes that hole with a write-ahead log:

* every spill-buffer mutation (a cross-slice event landing in a bucket,
  a slice's buffer being consumed at activation) appends a record;
* records buffer in memory and hit the disk — ``flush`` + ``fsync`` —
  only at ``commit``, which the engine calls once per pass.  A pass is
  therefore the durability unit: after a crash, replaying the journal
  up to the last commit a checkpoint references reproduces the exact
  spill buffers that existed when that checkpoint was taken.

Binary format (little-endian throughout)::

    header:  magic b"GPJL" | version u16 | num_slices u32
    record:  type u8 | payload | crc32 u32 over (type + payload)

    SPILL   (0x01): slice u32 | vertex i64 | generation i64 | delta f64
    CONSUME (0x02): slice u32
    COMMIT  (0x03): commit id i64

Each record carries its own CRC32 so replay can distinguish a torn tail
(the crash interrupted an in-progress flush — everything after the last
commit is discarded, by design) from corruption *before* the commit a
checkpoint needs, which raises
:class:`repro.errors.CheckpointCorruptError` instead of silently
replaying garbage.

The spill buffers coalesce on write (:class:`repro.core.spill.SpillBuffers`
folds each arrival into its vertex's slot with the algorithm's reduce
and max-generation, in arrival order), so replay needs the reduce
operator to reproduce them — the journal records every *incoming*
message, one SPILL record each in absorption order, not the merged
slot.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, Union

from .. import ioutil
from ..errors import CheckpointCorruptError
from ..obs import probe
from ..obs import trace as obs_trace
from .storagefaults import retry_transient

__all__ = [
    "SpillJournal",
    "JournalScan",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "encode_header",
    "encode_spill",
    "encode_consume",
    "encode_commit",
    "scan_bytes",
    "compact_bytes",
]

PathLike = Union[str, os.PathLike]

JOURNAL_MAGIC = b"GPJL"
JOURNAL_VERSION = 1

_HEADER = struct.Struct("<HI")  # version, num_slices
_SPILL = struct.Struct("<Iqqd")  # slice, vertex, generation, delta (raw bits)
_CONSUME = struct.Struct("<I")  # slice
_COMMIT = struct.Struct("<q")  # commit id
_CRC = struct.Struct("<I")

_TYPE_SPILL = 0x01
_TYPE_CONSUME = 0x02
_TYPE_COMMIT = 0x03

_HEADER_LEN = len(JOURNAL_MAGIC) + _HEADER.size


def _record(record_type: int, payload: bytes) -> bytes:
    body = bytes([record_type]) + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


# -- byte-level codec -------------------------------------------------
# The GPJL wire format: the live writer and compaction encode with these
# helpers, and every reader decodes with :func:`scan_bytes`.


def encode_header(num_slices: int) -> bytes:
    """The GPJL file header for a ``num_slices``-slice journal."""
    return JOURNAL_MAGIC + _HEADER.pack(JOURNAL_VERSION, num_slices)


def encode_spill(
    slice_index: int, vertex: int, generation: int, delta: float
) -> bytes:
    """One CRC-framed SPILL record."""
    return _record(
        _TYPE_SPILL, _SPILL.pack(slice_index, vertex, generation, delta)
    )


def encode_consume(slice_index: int) -> bytes:
    """One CRC-framed CONSUME record."""
    return _record(_TYPE_CONSUME, _CONSUME.pack(slice_index))


def encode_commit(commit_id: int) -> bytes:
    """One CRC-framed COMMIT marker."""
    return _record(_TYPE_COMMIT, _COMMIT.pack(commit_id))


_PAYLOAD_LEN = {
    _TYPE_SPILL: _SPILL.size,
    _TYPE_CONSUME: _CONSUME.size,
    _TYPE_COMMIT: _COMMIT.size,
}


def _count_tail(data: bytes, start: int) -> int:
    """Whole, CRC-valid records from ``start`` to the first anomaly.

    Used only for reporting (how many durable-but-unneeded records a
    resume truncates) — corruption here just stops the count, it is not
    an error, because everything past the adopted commit is discarded
    anyway.
    """
    count = 0
    pos = start
    while pos < len(data):
        payload_len = _PAYLOAD_LEN.get(data[pos])
        if payload_len is None:
            break
        end = pos + 1 + payload_len + _CRC.size
        if end > len(data):
            break
        body = data[pos : pos + 1 + payload_len]
        (crc,) = _CRC.unpack_from(data, pos + 1 + payload_len)
        if crc != zlib.crc32(body) & 0xFFFFFFFF:
            break
        count += 1
        pos = end
    return count


@dataclass
class JournalScan:
    """What :meth:`SpillJournal.scan` learned about one journal file.

    ``buffers``/``offset`` are the replay result (spill buckets as of
    the target commit, and the file position just past it — the
    truncation point).  The counters feed recovery provenance:
    ``records_applied`` reached the adopted commit, ``tail_records`` /
    ``tail_bytes`` sit past it and will be discarded on resume.
    """

    buffers: List[Dict[int, Tuple[float, int]]]
    offset: int
    records_applied: int
    tail_records: int
    tail_bytes: int
    last_commit: Optional[int]

    def provenance(self) -> Dict[str, Any]:
        """The ``journal`` block of ``repro resume --json``."""
        return {
            "records_replayed": self.records_applied,
            "records_discarded": self.tail_records,
            "bytes_discarded": self.tail_bytes,
            "commit": self.last_commit,
        }


def scan_bytes(
    data: bytes,
    num_slices: int,
    upto: Optional[int],
    reduce_fn: Callable[[float, float], float],
    *,
    source: str = "<journal>",
) -> JournalScan:
    """Replay a GPJL byte string up to commit ``upto``.

    The byte-level core of :meth:`SpillJournal.scan`: torn-tail
    tolerance, CRC validation and coalescing over the file's contents.
    ``source`` only labels error messages (the journal's path).
    """
    _validate_header(data[:_HEADER_LEN], source, num_slices)

    buffers: List[Dict[int, Tuple[float, int]]] = [
        {} for _ in range(num_slices)
    ]
    # replay applies mutations tentatively and re-baselines at each
    # commit marker; anything after the last commit <= upto is dropped
    committed: List[Dict[int, Tuple[float, int]]] = [
        dict(bucket) for bucket in buffers
    ]
    committed_offset = _HEADER_LEN
    reached: Optional[int] = None
    records_seen = 0
    records_committed = 0

    pos = _HEADER_LEN
    corrupt: Optional[CheckpointCorruptError] = None
    while pos < len(data):
        record_type = data[pos]
        payload_len = _PAYLOAD_LEN.get(record_type)
        if payload_len is None:
            corrupt = CheckpointCorruptError(
                f"{source}: unknown journal record type "
                f"0x{record_type:02x} at offset {pos}",
                path=source,
                offset=pos,
            )
            break
        end = pos + 1 + payload_len + _CRC.size
        if end > len(data):
            break  # torn tail: crash mid-flush
        body = data[pos : pos + 1 + payload_len]
        (crc,) = _CRC.unpack_from(data, pos + 1 + payload_len)
        if crc != zlib.crc32(body) & 0xFFFFFFFF:
            corrupt = CheckpointCorruptError(
                f"{source}: journal record CRC mismatch at offset {pos}",
                path=source,
                offset=pos,
            )
            break
        records_seen += 1
        payload = body[1:]
        if record_type == _TYPE_SPILL:
            slice_index, vertex, generation, delta = _SPILL.unpack(payload)
            if slice_index >= num_slices:
                corrupt = CheckpointCorruptError(
                    f"{source}: journal names slice {slice_index} but the "
                    f"run has {num_slices}",
                    path=source,
                    offset=pos,
                )
                break
            bucket = buffers[slice_index]
            existing = bucket.get(vertex)
            if existing is None:
                bucket[vertex] = (delta, generation)
            else:
                bucket[vertex] = (
                    reduce_fn(existing[0], delta),
                    max(existing[1], generation),
                )
        elif record_type == _TYPE_CONSUME:
            (slice_index,) = _CONSUME.unpack(payload)
            if slice_index >= num_slices:
                corrupt = CheckpointCorruptError(
                    f"{source}: journal names slice {slice_index} but the "
                    f"run has {num_slices}",
                    path=source,
                    offset=pos,
                )
                break
            buffers[slice_index] = {}
        else:
            (commit_id,) = _COMMIT.unpack(payload)
            committed = [dict(bucket) for bucket in buffers]
            committed_offset = end
            reached = commit_id
            records_committed = records_seen
            if upto is not None and commit_id >= upto:
                break
        pos = end

    if upto is not None and (reached is None or reached < upto):
        if corrupt is not None:
            raise corrupt
        raise CheckpointCorruptError(
            f"{source}: journal ends at commit "
            f"{reached if reached is not None else '<none>'} but the "
            f"checkpoint references commit {upto}",
            path=source,
            last_commit=reached,
            wanted_commit=upto,
        )
    return JournalScan(
        buffers=committed,
        offset=committed_offset,
        records_applied=records_committed,
        tail_records=_count_tail(data, committed_offset),
        tail_bytes=len(data) - committed_offset,
        last_commit=reached,
    )


def compact_bytes(
    data: bytes,
    num_slices: int,
    upto: int,
    reduce_fn: Callable[[float, float], float],
    *,
    source: str = "<journal>",
) -> Tuple[bytes, Dict[str, int]]:
    """Re-baseline a GPJL byte string at commit ``upto``.

    The byte-level core of :meth:`SpillJournal.compact_file`:
    history up to ``upto`` collapses into one coalesced SPILL record per
    pending bucket entry plus a ``COMMIT(upto)`` marker; everything past
    ``upto`` is preserved byte-for-byte.  Returns ``(blob, stats)`` —
    publishing the blob is the caller's job.
    """
    scan = scan_bytes(data, num_slices, upto, reduce_fn, source=source)
    tail = data[scan.offset :]
    parts = [encode_header(num_slices)]
    baseline_records = 0
    for slice_index, bucket in enumerate(scan.buffers):
        for vertex, (delta, generation) in bucket.items():
            parts.append(
                encode_spill(slice_index, vertex, generation, delta)
            )
            baseline_records += 1
    parts.append(encode_commit(upto))
    blob = b"".join(parts) + tail
    return blob, {
        "upto": int(upto),
        "records_dropped": max(
            0, scan.records_applied - baseline_records - 1
        ),
        "baseline_records": baseline_records,
        "bytes_before": len(data),
        "bytes_after": len(blob),
    }


class SpillJournal:
    """Append-only WAL of spill-buffer mutations, committed per pass."""

    def __init__(self, path: Path, handle: BinaryIO, num_slices: int):
        self.path = path
        self._handle = handle
        self.num_slices = num_slices
        self._buffer: List[bytes] = []
        self.commits = 0
        self.records_flushed = 0
        self.bytes_flushed = 0
        # lifecycle stats (see compact()): highest commit id the log has
        # been re-baselined at, and what compaction has saved so far
        self.compacted_upto = 0
        self.compactions = 0
        self.records_dropped = 0

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, path: PathLike, num_slices: int) -> "SpillJournal":
        """Start a fresh journal, truncating any previous file."""
        path = Path(path)
        handle = open(path, "wb")
        handle.write(encode_header(num_slices))
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, num_slices)

    @classmethod
    def open_append(cls, path: PathLike, num_slices: int) -> "SpillJournal":
        """Reopen an existing journal for appending (resume path).

        The caller is expected to have already replayed and truncated the
        file to its last durable commit; this just validates the header
        and positions at the end.
        """
        path = Path(path)
        with open(path, "rb") as probe_handle:
            header = probe_handle.read(_HEADER_LEN)
        _validate_header(header, path, num_slices)
        handle = open(path, "ab")
        return cls(path, handle, num_slices)

    # -- recording ------------------------------------------------------

    def spill(
        self, slice_index: int, vertex: int, generation: int, delta: float
    ) -> None:
        """Record one event landing in ``slice_index``'s spill bucket."""
        self._buffer.append(
            encode_spill(slice_index, vertex, generation, delta)
        )

    def consume(self, slice_index: int) -> None:
        """Record a slice's spill buffer being drained at activation."""
        self._buffer.append(encode_consume(slice_index))

    def reset(self, buffers: List[Dict[int, Tuple[float, int]]]) -> None:
        """Re-baseline the journal after an in-memory rollback.

        Rollback restores the spill buffers from a checkpoint snapshot
        without replaying history, which would desynchronize the log.
        Emitting a consume-all followed by the full restored contents
        keeps replay-to-commit equivalent to the live buffers.
        """
        self._buffer = []  # drop anything uncommitted from the abandoned pass
        for slice_index in range(self.num_slices):
            self.consume(slice_index)
        for slice_index, bucket in enumerate(buffers):
            for vertex, (delta, generation) in bucket.items():
                self.spill(slice_index, vertex, generation, delta)

    def discard_uncommitted(self) -> None:
        """Drop every record buffered since the last commit.

        The multi-process supervisor calls this when a worker dies
        mid-pass: the failed pass attempt's consume/spill records never
        reached disk (records only hit storage at :meth:`commit`), so
        discarding the buffer rewinds the WAL to exactly the last
        per-pass commit — the same point the in-memory rollback restores
        — and the retried pass re-records from there.  The on-disk file
        ends up byte-identical to a run that never lost a worker.
        """
        self._buffer = []

    def commit(self, commit_id: int) -> None:
        """Flush all buffered records + a commit marker to stable storage.

        The flush is retried with a bounded backoff for transient errno
        failures (``EIO``/``ENOSPC``): the storage-fault shim raises its
        injected transients *before* any byte reaches the file handle,
        so a retry re-attempts the whole batch rather than appending a
        duplicate — a commit either lands once or the typed error
        propagates after the attempt budget.
        """
        self._buffer.append(encode_commit(commit_id))
        data = b"".join(self._buffer)
        records = len(self._buffer)
        self._buffer = []
        written = self._flush_batch(data)
        self.commits += 1
        self.records_flushed += records
        self.bytes_flushed += len(written)
        if obs_trace.ACTIVE is not None:
            probe.journal_flush(
                float(commit_id),
                commit=commit_id,
                records=records,
                nbytes=len(written),
            )

    def _flush_batch(self, data: bytes) -> bytes:
        def attempt() -> bytes:
            out = data
            shim = ioutil.IO_SHIM
            if shim is not None:
                hook = getattr(shim, "on_append", None)
                if hook is not None:
                    out = hook(self.path, data)
            self._handle.write(out)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            return out

        return retry_transient(
            attempt, description=f"journal commit ({self.path})"
        )

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    # -- recovery -------------------------------------------------------

    @staticmethod
    def replay(
        path: PathLike,
        num_slices: int,
        upto: Optional[int],
        reduce_fn: Callable[[float, float], float],
    ) -> Tuple[List[Dict[int, Tuple[float, int]]], int]:
        """Rebuild the spill buffers as of commit ``upto``.

        Returns ``(buffers, offset)`` where ``buffers[s]`` maps vertex to
        ``(delta, generation)`` — coalesced with ``reduce_fn`` exactly as
        the live engine coalesces bucket writes — and ``offset`` is the
        file position just past commit ``upto`` (the truncation point for
        resuming appends).  ``upto=None`` replays to the last durable
        commit found, whatever it is.

        A torn tail — a partial or CRC-failing record *after* the target
        commit — is tolerated and discarded.  Corruption at or before the
        target commit raises :class:`CheckpointCorruptError`.
        """
        scan = SpillJournal.scan(path, num_slices, upto, reduce_fn)
        return scan.buffers, scan.offset

    @staticmethod
    def scan(
        path: PathLike,
        num_slices: int,
        upto: Optional[int],
        reduce_fn: Callable[[float, float], float],
    ) -> JournalScan:
        """:meth:`replay` plus the bookkeeping recovery provenance needs.

        Same corruption semantics as :meth:`replay`; additionally counts
        the records that reached the adopted commit and the (discarded)
        durable tail past it — see :class:`JournalScan`.
        """
        path = Path(path)
        # loads go through ioutil.read_bytes so the storage-fault shim
        # can model read-side bit rot against journal replay too
        data = ioutil.read_bytes(path)
        return scan_bytes(data, num_slices, upto, reduce_fn, source=str(path))

    @staticmethod
    def truncate(path: PathLike, offset: int) -> None:
        """Discard everything past ``offset`` (the torn tail) in place."""
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def compact_file(
        cls,
        path: PathLike,
        num_slices: int,
        upto: int,
        reduce_fn: Callable[[float, float], float],
    ) -> Dict[str, int]:
        """Re-baseline the on-disk log at commit ``upto`` (closed file).

        The history up to ``upto`` collapses into one coalesced SPILL
        record per pending bucket entry plus a single ``COMMIT(upto)``
        marker; every durable record *after* ``upto`` is preserved
        byte-for-byte.  Replay to any commit ``>= upto`` is therefore
        unchanged — which is why callers must pick ``upto`` as the
        **oldest retained checkpoint generation's** commit, never the
        newest: the resume fallback ladder may still need to replay to
        an older generation, and commits below the compaction boundary
        are no longer reachable.

        Publishing is atomic (temp + fsync + rename), so a crash during
        compaction leaves the previous journal intact.
        """
        data = ioutil.read_bytes(path)
        blob, stats = compact_bytes(
            data, num_slices, upto, reduce_fn, source=str(path)
        )
        ioutil.atomic_write_bytes(path, blob)
        return stats

    def compact(
        self, upto: int, reduce_fn: Callable[[float, float], float]
    ) -> Dict[str, int]:
        """In-place :meth:`compact_file` for a live (open) journal.

        Requires a clean commit boundary — the engine calls this right
        after a per-pass commit, when nothing is buffered.  The append
        handle is reopened on the freshly published file.
        """
        if self._buffer:
            raise ValueError(
                "journal compaction requires a committed boundary "
                f"({len(self._buffer)} uncommitted record(s) buffered)"
            )
        self._handle.close()
        stats = SpillJournal.compact_file(
            self.path, self.num_slices, upto, reduce_fn
        )
        self._handle = open(self.path, "ab")
        self.compacted_upto = int(upto)
        self.compactions += 1
        self.records_dropped += stats["records_dropped"]
        return stats


def _validate_header(
    header: bytes, source: Union[str, Path], num_slices: int
) -> None:
    if len(header) < _HEADER_LEN or header[:4] != JOURNAL_MAGIC:
        raise CheckpointCorruptError(
            f"{source}: not a spill journal (bad magic)", path=str(source)
        )
    version, recorded_slices = _HEADER.unpack_from(header, 4)
    if version != JOURNAL_VERSION:
        raise CheckpointCorruptError(
            f"{source}: unsupported journal version {version} "
            f"(expected {JOURNAL_VERSION})",
            path=str(source),
            version=version,
        )
    if recorded_slices != num_slices:
        raise CheckpointCorruptError(
            f"{source}: journal was written for {recorded_slices} slices "
            f"but the run has {num_slices}",
            path=str(source),
            journal_slices=recorded_slices,
            run_slices=num_slices,
        )
