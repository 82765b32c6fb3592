"""Typed errors shared across the reproduction.

Every failure a user (or the campaign runner) is expected to handle
programmatically raises one of these types instead of a bare
``ValueError``/``RuntimeError`` with an opaque message.  The hierarchy
deliberately double-inherits from the builtin type each error used to
be, so existing ``except ValueError`` / ``except RuntimeError`` call
sites — and the seed test-suite — keep working unchanged.

``NonConvergenceError`` carries the structured diagnostic the
fixed-point loop assembles (stuck vertices, fullest bins) so a
non-converging configuration aborts with an actionable report rather
than dying at the round limit with a one-line message.
"""

from __future__ import annotations

import errno as _errno
from typing import Any, Dict, List, Optional

__all__ = [
    "ReproError",
    "GraphValidationError",
    "QueueCapacityError",
    "NonConvergenceError",
    "UnrecoverableFaultError",
    "CheckpointCorruptError",
    "ManifestMismatchError",
    "RunInterruptedError",
    "LeaseHeldError",
    "OutOfSpaceError",
]


class ReproError(Exception):
    """Base class of all typed errors raised by the reproduction."""


class GraphValidationError(ReproError, ValueError):
    """A graph input (edge list, CSR bundle, weight array) is invalid.

    ``context`` points at the offending location: ``path``/``line`` for
    text edge lists, ``path`` for binary bundles, ``index`` for in-memory
    arrays.  The message always embeds the same information so the error
    is self-describing when it escapes to a traceback.
    """

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context: Dict[str, Any] = context


class QueueCapacityError(ReproError, ValueError):
    """The graph does not fit the coalescing queue's direct-mapped store.

    Carries the numbers a caller needs to pick a working configuration:
    ``num_vertices`` of the offending graph, the queue ``capacity``, and
    ``required_slices`` — the minimum slice count that makes every slice
    fit (Section IV-F's remedy).
    """

    def __init__(self, num_vertices: int, capacity: int):
        self.num_vertices = int(num_vertices)
        self.capacity = int(capacity)
        self.required_slices = max(
            1, -(-self.num_vertices // max(self.capacity, 1))
        )
        super().__init__(
            f"graph has {self.num_vertices} vertices but the queue can map "
            f"only {self.capacity}; partition the graph into at least "
            f"{self.required_slices} slices"
        )


class NonConvergenceError(ReproError, RuntimeError):
    """An engine spent its round budget with events still pending.

    ``diagnostic`` is a JSON-serializable dict naming the reason
    (``"round-limit"``), the engine, the rounds
    executed, the queue occupancy, the fullest bins and a sample of the
    stuck vertices with their pending deltas.
    """

    def __init__(self, message: str, diagnostic: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.diagnostic: Dict[str, Any] = diagnostic or {}

    @property
    def stuck_vertices(self) -> List[int]:
        return list(self.diagnostic.get("stuck_vertices", []))

    @property
    def stuck_bins(self) -> List[int]:
        return list(self.diagnostic.get("stuck_bins", []))


class UnrecoverableFaultError(ReproError, RuntimeError):
    """Fault recovery was exhausted (repair epochs, rollbacks, lanes).

    Raised only when resilience is enabled and the configured recovery
    budget cannot restore a consistent state — the structured equivalent
    of a machine check.
    """

    def __init__(self, message: str, **detail: Any):
        super().__init__(message)
        self.detail: Dict[str, Any] = detail


class CheckpointCorruptError(ReproError, ValueError):
    """A durable checkpoint or journal file failed integrity validation.

    Raised for bad magic, unsupported format versions, CRC32 mismatches,
    truncation, and journals that end before the commit a checkpoint
    references.  Corruption is *never* silently repaired or partially
    loaded — a resume either restores a verified-consistent state or
    fails with this error.  ``context`` names the offending ``path`` and
    whatever the validator knows (expected/actual CRC, offset, commit).
    """

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context: Dict[str, Any] = context


class ManifestMismatchError(ReproError, ValueError):
    """A run directory's manifest does not match the resume environment.

    Raised by ``repro resume`` when the manifest is missing, names an
    unknown engine/workload, or its recorded graph fingerprint disagrees
    with the graph the workload reproduces — resuming against a
    different graph would silently produce wrong answers.
    """

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context: Dict[str, Any] = context


class LeaseHeldError(ReproError, RuntimeError):
    """A slice lease is held by a live owner and cannot be taken.

    Raised when a worker tries to acquire a lease file that already
    exists, or when the supervisor asks to break a lease whose holder
    still heartbeats (its pid is alive and the file's mtime is fresh).
    Stale leases — dead pid, or no heartbeat within the timeout — are
    broken silently; this error firing means two live processes claim
    the same slice, which is a configuration bug, never a race to paper
    over.  ``context`` carries the lease ``path`` and whatever is known
    about the ``holder``.
    """

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context: Dict[str, Any] = context


class OutOfSpaceError(ReproError, OSError):
    """The storage backing the durable layer is persistently full.

    Raised when a bounded IO retry (``retry_transient``) exhausts its
    attempt budget and *every* failure was ``ENOSPC`` — a full disk is
    not transient flakiness, and surfacing it as a generic ``OSError``
    would bury the one failure an operator can actually act on.
    Double-inherits :class:`OSError` (with ``errno`` forced to
    ``ENOSPC``) so existing ``except OSError`` recovery ladders keep
    working; the CLI reports it as a typed exit-2 ``--json`` payload.
    ``context`` carries the operation ``description``, ``path`` when
    known, and the exhausted ``attempts`` budget.
    """

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.errno = _errno.ENOSPC
        self.context: Dict[str, Any] = context


class RunInterruptedError(ReproError):
    """A run stopped cleanly on SIGINT/SIGTERM after flushing a checkpoint.

    Not a failure: the engine finished its current round, persisted a
    final durable checkpoint, and unwound.  ``detail`` carries the
    structured partial summary the CLI reports (run directory, last
    checkpoint sequence/file, round index) so ``repro resume`` can be
    suggested.  Exits the CLI with status 130, mirroring shell SIGINT
    convention.
    """

    def __init__(self, message: str, **detail: Any):
        super().__init__(message)
        self.detail: Dict[str, Any] = detail
