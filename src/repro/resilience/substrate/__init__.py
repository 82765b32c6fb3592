"""The durable substrate: the one place durable primitives are built.

Every lease, spill journal and checkpoint store a consumer touches comes
from :func:`build_substrate` (see :mod:`repro.resilience.substrate.fs`)::

    from repro.resilience.substrate import build_substrate

    substrate = build_substrate()
    store = substrate.checkpoint_store(run_dir)
    journal = substrate.spill_transport(store.journal_path).create(n)
"""

from __future__ import annotations

from .fs import FsLeaseStore, FsSpillTransport, FsSubstrate, build_substrate

__all__ = [
    "FsLeaseStore",
    "FsSpillTransport",
    "FsSubstrate",
    "build_substrate",
]
