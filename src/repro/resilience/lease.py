"""Per-slice lease files: crash-detectable slice ownership on disk.

The multi-process sliced runtime gives every slice to exactly one
worker process.  Ownership is recorded as a **lease file** in the run
directory (durable runs) or a scratch directory (ephemeral runs):

- **acquire** is an atomic ``O_CREAT | O_EXCL`` create
  (:func:`repro.ioutil.exclusive_create_bytes`) writing a small JSON
  record — owner name, pid, epoch.  Two processes racing for the same
  slice cannot both win; the loser sees the holder and raises
  :class:`repro.errors.LeaseHeldError`.
- **heartbeat** rewrites the payload with a monotonically increasing
  ``heartbeat`` counter (and, as a side effect of the atomic publish,
  a fresh mtime).  Workers run a daemon thread beating their leases
  every few hundred milliseconds.
- **staleness** is observable by anyone: a lease is stale when its
  recorded pid no longer exists *or* its heartbeat has gone silent for
  the timeout.  Silence is judged two ways: callers that poll can pass
  an ``observations`` cache and :func:`is_stale` compares successive
  *heartbeat counters* — immune to coarse filesystem mtime resolution
  (FAT's 2s, or network filesystems that round) — while one-shot
  callers fall back to mtime age.  A SIGKILLed worker stops
  heartbeating instantly and its pid is reaped by the supervisor's
  ``join``, so both signals fire.
- **break_stale** unlinks a stale lease so the slice can be re-leased
  to a replacement worker.  Breaking a *fresh* lease is refused with
  :class:`LeaseHeldError` — the supervisor only ever breaks leases of
  workers it has already observed dead, so a refusal here means two
  live runs share a run directory.

The protocol is deliberately file-only (no locks, no sockets): it
survives the same crash spectrum as the GPCK/GPJL durable layer and can
be inspected with ``ls`` and ``cat`` while a run is live.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .. import ioutil
from ..errors import LeaseHeldError
from ..ioutil import exclusive_create_bytes
from .storagefaults import retry_transient

__all__ = [
    "LeaseInfo",
    "SliceLease",
    "lease_path",
    "read_lease",
    "is_stale",
    "break_stale",
    "DEFAULT_LEASE_TIMEOUT",
]

PathLike = Union[str, os.PathLike]

#: seconds without a heartbeat after which a live-pid lease is stale
DEFAULT_LEASE_TIMEOUT = 5.0


@dataclass(frozen=True)
class LeaseInfo:
    """The JSON payload of a lease file.

    ``heartbeat`` is a monotonic per-lease counter bumped by every
    :meth:`SliceLease.refresh`; a stable counter across a timeout means
    the owner went silent regardless of filesystem mtime granularity.
    """

    slice_index: int
    owner: str
    pid: int
    epoch: int
    heartbeat: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "slice": self.slice_index,
                "owner": self.owner,
                "pid": self.pid,
                "epoch": self.epoch,
                "heartbeat": self.heartbeat,
            },
            sort_keys=True,
        )


def lease_path(lease_dir: PathLike, slice_index: int) -> Path:
    """Canonical lease file location for one slice."""
    return Path(lease_dir) / f"slice-{slice_index:04d}.lease"


def read_lease(path: PathLike) -> Optional[LeaseInfo]:
    """Parse a lease file; ``None`` if it is missing or unreadable.

    An unreadable lease (torn write, hand-edited, damaged on the read
    path) parses as ``None`` and is therefore treated as stale by
    :func:`is_stale` — an owner that cannot prove liveness does not hold
    the slice.  The load goes through :func:`repro.ioutil.read_bytes`,
    so the storage-fault shim's read-side damage reaches lease files.
    """
    try:
        payload = json.loads(ioutil.read_bytes(path).decode("utf-8"))
        return LeaseInfo(
            slice_index=int(payload["slice"]),
            owner=str(payload["owner"]),
            pid=int(payload["pid"]),
            epoch=int(payload.get("epoch", 0)),
            heartbeat=int(payload.get("heartbeat", 0)),
        )
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def is_stale(
    path: PathLike,
    *,
    timeout: float = DEFAULT_LEASE_TIMEOUT,
    observations: Optional[Dict[str, Tuple[int, float]]] = None,
) -> bool:
    """Whether the lease at ``path`` has a dead or silent owner.

    Missing files are *not* stale (there is nothing to break — acquire
    would simply succeed); unparseable files are.

    ``observations`` is an optional caller-owned cache mapping lease
    path to the last ``(heartbeat, seen_at)`` pair.  Pollers that pass
    the same dict on every check get counter-based staleness: the lease
    is fresh while the payload's heartbeat counter keeps advancing and
    stale once it sits unchanged for ``timeout`` seconds.  This removes
    the dependence on filesystem mtime resolution (coarse-mtime
    filesystems round to whole seconds or worse, which would make a
    live 200ms heartbeat look silent).  One-shot callers without a
    cache fall back to mtime age.
    """
    path = Path(path)
    try:
        mtime = path.stat().st_mtime
    except FileNotFoundError:
        return False
    info = read_lease(path)
    if info is None or not _pid_alive(info.pid):
        return True
    # wall clock by design: staleness is real elapsed time since the
    # last heartbeat (this file is DET-001 allowlisted — lease state
    # is operational liveness, never part of the replayed trajectory)
    if observations is not None:
        key = str(path)
        now = time.monotonic()
        seen = observations.get(key)
        if seen is None or seen[0] != info.heartbeat:
            observations[key] = (info.heartbeat, now)
            return False
        return (now - seen[1]) > timeout
    return (time.time() - mtime) > timeout


def break_stale(
    path: PathLike,
    *,
    timeout: float = DEFAULT_LEASE_TIMEOUT,
    observations: Optional[Dict[str, Tuple[int, float]]] = None,
) -> bool:
    """Unlink a stale lease so the slice can be re-leased.

    Returns ``True`` if a stale lease was removed, ``False`` if there
    was no lease to begin with.  Raises :class:`LeaseHeldError` when the
    lease is fresh — its owner is alive and heartbeating.
    ``observations`` threads through to :func:`is_stale` for pollers
    using counter-based staleness.
    """
    path = Path(path)
    if not path.exists():
        return False
    if not is_stale(path, timeout=timeout, observations=observations):
        info = read_lease(path)
        raise LeaseHeldError(
            f"{path}: lease is held by live owner "
            f"{info.owner if info else '<unreadable>'} "
            f"(pid {info.pid if info else '?'})",
            path=str(path),
            holder=None if info is None else info.owner,
            pid=None if info is None else info.pid,
        )
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


class SliceLease:
    """One held lease: acquire exclusively, heartbeat, release.

    Instances are only ever created through :meth:`acquire`; holding one
    means the atomic create succeeded and this process owns the slice
    until :meth:`release` (or death, after which the lease goes stale).
    """

    def __init__(self, path: Path, info: LeaseInfo):
        self.path = path
        self.info = info

    @classmethod
    def acquire(
        cls,
        lease_dir: PathLike,
        slice_index: int,
        *,
        owner: str,
        pid: Optional[int] = None,
        epoch: int = 0,
    ) -> "SliceLease":
        """Atomically claim ``slice_index``; raise if someone holds it."""
        info = LeaseInfo(
            slice_index=slice_index,
            owner=owner,
            pid=os.getpid() if pid is None else pid,
            epoch=epoch,
        )
        path = lease_path(lease_dir, slice_index)
        try:
            # transient EIO/ENOSPC on the create is retried with a
            # bounded backoff; FileExistsError is NOT transient — losing
            # the race must surface as LeaseHeldError, never be retried
            # into a stolen slice (retry_transient re-raises it as-is)
            retry_transient(
                lambda: exclusive_create_bytes(
                    path, info.to_json().encode("utf-8")
                ),
                description=f"lease acquire ({path})",
            )
        except FileExistsError:
            holder = read_lease(path)
            raise LeaseHeldError(
                f"{path}: slice {slice_index} is already leased to "
                f"{holder.owner if holder else '<unreadable>'} "
                f"(pid {holder.pid if holder else '?'})",
                path=str(path),
                slice=slice_index,
                holder=None if holder is None else holder.owner,
                pid=None if holder is None else holder.pid,
            ) from None
        return cls(path, info)

    def refresh(self) -> None:
        """Heartbeat: bump the payload's counter (and thereby the mtime).

        The refreshed payload is the acquired one with ``heartbeat``
        incremented, published atomically so observers only ever parse
        a complete record; the counter makes staleness detection work
        on filesystems whose mtime granularity is coarser than the
        heartbeat interval (see :func:`is_stale`).  A transient IO
        error must not kill the heartbeat thread (a worker that stops
        heartbeating over one flaky ``EIO`` gets its lease broken and
        its slice stolen), so the publish is retried with a bounded
        backoff before giving up.
        """
        next_info = LeaseInfo(
            slice_index=self.info.slice_index,
            owner=self.info.owner,
            pid=self.info.pid,
            epoch=self.info.epoch,
            heartbeat=self.info.heartbeat + 1,
        )

        def attempt() -> None:
            shim = ioutil.IO_SHIM
            if shim is not None:
                hook = getattr(shim, "on_utime", None)
                if hook is not None:
                    hook(self.path)
            # a broken (unlinked) lease must stay broken: rewriting it
            # would resurrect a fenced claim, so probe existence first
            # and let the FileNotFoundError fall through to the caller
            if not self.path.exists():
                raise FileNotFoundError(str(self.path))
            ioutil.atomic_write_bytes(
                self.path, next_info.to_json().encode("utf-8")
            )

        try:
            retry_transient(
                attempt, description=f"lease heartbeat ({self.path})"
            )
        except FileNotFoundError:
            return  # broken from under us; the next acquire conflict reports it
        self.info = next_info

    def release(self) -> None:
        """Give the slice up cleanly (idempotent)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
