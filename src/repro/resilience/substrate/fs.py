"""The filesystem substrate — the one durable medium.

Thin bindings of the durable primitives to three store factories:
lease files (``repro.resilience.lease``), the ``journal.bin`` GPJL log
(``repro.resilience.journal``), and the run-directory checkpoint store
(``repro.resilience.durable``).  This module is the construction
authority lint rule SUB-001 enforces: ``SliceLease`` / ``SpillJournal``
/ ``DurableCheckpointStore`` are instantiated here (and nowhere outside
the substrate package), so every persisted byte is created through one
audited place that SUB-002 keeps on the shimmed IO paths.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..durable import DurableCheckpointStore
from ..journal import JournalScan, SpillJournal
from ..lease import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseInfo,
    SliceLease,
    break_stale,
    is_stale,
    lease_path,
    read_lease,
)

__all__ = [
    "FsLeaseStore",
    "FsSpillTransport",
    "FsSubstrate",
    "build_substrate",
]

PathLike = Union[str, os.PathLike]
ReduceFn = Callable[[float, float], float]
Observations = Dict[str, Tuple[int, float]]


class FsLeaseStore:
    """Lease files under one directory (``slice-NNNN.lease``)."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    def acquire(
        self,
        slice_index: int,
        *,
        owner: str,
        pid: Optional[int] = None,
        epoch: int = 0,
    ) -> SliceLease:
        # the namespace is the store's responsibility, not the caller's
        self.root.mkdir(parents=True, exist_ok=True)
        return SliceLease.acquire(
            self.root, slice_index, owner=owner, pid=pid, epoch=epoch
        )

    def read(self, slice_index: int) -> Optional[LeaseInfo]:
        return read_lease(lease_path(self.root, slice_index))

    def is_stale(
        self,
        slice_index: int,
        *,
        timeout: float = DEFAULT_LEASE_TIMEOUT,
        observations: Optional[Observations] = None,
    ) -> bool:
        return is_stale(
            lease_path(self.root, slice_index),
            timeout=timeout,
            observations=observations,
        )

    def break_stale(
        self,
        slice_index: int,
        *,
        timeout: float = DEFAULT_LEASE_TIMEOUT,
        observations: Optional[Observations] = None,
    ) -> bool:
        return break_stale(
            lease_path(self.root, slice_index),
            timeout=timeout,
            observations=observations,
        )


class FsSpillTransport:
    """The GPJL journal file at one path."""

    def __init__(self, path: PathLike):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def create(self, num_slices: int) -> SpillJournal:
        return SpillJournal.create(self.path, num_slices)

    def open_append(self, num_slices: int) -> SpillJournal:
        return SpillJournal.open_append(self.path, num_slices)

    def scan(
        self, num_slices: int, upto: Optional[int], reduce_fn: ReduceFn
    ) -> JournalScan:
        return SpillJournal.scan(self.path, num_slices, upto, reduce_fn)

    def replay(
        self, num_slices: int, upto: Optional[int], reduce_fn: ReduceFn
    ) -> Tuple[List[Dict[int, Tuple[float, int]]], int]:
        scan = self.scan(num_slices, upto, reduce_fn)
        return scan.buffers, scan.offset

    def truncate(self, offset: int) -> None:
        SpillJournal.truncate(self.path, offset)

    def compact_file(
        self, num_slices: int, upto: int, reduce_fn: ReduceFn
    ) -> Dict[str, int]:
        return SpillJournal.compact_file(
            self.path, num_slices, upto, reduce_fn
        )


class FsSubstrate:
    """The three store factories: leases, spill transport, checkpoints."""

    def lease_store(self, root: PathLike) -> FsLeaseStore:
        return FsLeaseStore(root)

    def spill_transport(self, path: PathLike) -> FsSpillTransport:
        return FsSpillTransport(path)

    def checkpoint_store(self, run_dir: PathLike) -> DurableCheckpointStore:
        return DurableCheckpointStore(run_dir)


def build_substrate() -> FsSubstrate:
    """The store factories every durable consumer goes through."""
    return FsSubstrate()
