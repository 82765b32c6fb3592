"""Crash-safe file writes shared across the reproduction.

Every artifact the toolkit persists — graph bundles, durable
checkpoints, run manifests, benchmark results, JSON summaries — goes
through the same discipline: write the full content to a temporary file
in the *same directory* as the destination, fsync it, then publish with
``os.replace``.  On POSIX the rename is atomic, so a reader (or a
process that crashed mid-save and restarted) only ever observes the old
complete file or the new complete file, never a truncated hybrid.

The temp file lives next to the destination (not in ``/tmp``) because
``os.replace`` must not cross filesystem boundaries.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import IO, Iterator, Optional, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_open",
    "exclusive_create_bytes",
    "read_bytes",
    "io_shim",
    "set_io_shim",
]

PathLike = Union[str, os.PathLike]

#: Installed storage-fault shim (``repro.resilience.storagefaults``) or
#: ``None``.  The fault-free fast path is a single ``is None`` branch;
#: the shim is consulted only at publish/create time, never per byte.
IO_SHIM: Optional[object] = None


def io_shim() -> Optional[object]:
    """The currently installed IO shim, or ``None`` (the normal case)."""
    return IO_SHIM


def set_io_shim(shim: Optional[object]) -> Optional[object]:
    """Install ``shim`` as the global IO fault hook; returns the previous
    one so callers can restore it.  Pass ``None`` to uninstall.

    The shim protocol (all methods optional, consulted when present):

    ``on_publish(tmp_path, final_path)``
        Called by :func:`atomic_open` after the temp file is fsynced and
        closed, immediately before ``os.replace``.  May mutate the temp
        file in place (torn write / bit rot) or raise ``OSError``
        (transient ``EIO``/``ENOSPC`` — the temp file is then discarded
        and the destination stays untouched, so a bounded retry is safe).

    ``on_create(path)``
        Called by :func:`exclusive_create_bytes` before the exclusive
        open; may raise ``OSError`` for transient create failures.

    ``on_read(path, data) -> bytes``
        Called by :func:`read_bytes` after the file content is read; may
        return damaged bytes (read-side bit rot: the disk image is
        intact but the bytes delivered to the consumer are not — a bad
        controller, cable or cache line) or raise ``OSError`` for
        transient read failures.
    """
    global IO_SHIM
    previous = IO_SHIM
    IO_SHIM = shim
    return previous


@contextlib.contextmanager
def atomic_open(path: PathLike, mode: str = "w") -> Iterator[IO]:
    """Open a temp file that atomically replaces ``path`` on success.

    Yields a writable handle (text or binary per ``mode``).  On a clean
    exit the data is flushed, fsynced and renamed over ``path``; on an
    exception the temp file is removed and ``path`` is untouched.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open supports 'w' or 'wb', got {mode!r}")
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".", suffix=".tmp"
    )
    handle = os.fdopen(fd, mode)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        if IO_SHIM is not None:
            hook = getattr(IO_SHIM, "on_publish", None)
            if hook is not None:
                hook(tmp_path, path)
        os.replace(tmp_path, path)
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def exclusive_create_bytes(path: PathLike, data: bytes) -> None:
    """Create ``path`` with ``data`` iff it does not already exist.

    ``O_CREAT | O_EXCL`` makes creation an atomic test-and-set on POSIX:
    exactly one of several racing writers wins, the rest get
    :class:`FileExistsError`.  This is the primitive behind per-slice
    lease files — ownership is whoever's create succeeded.  The data and
    the containing directory are fsynced so the claim survives a crash.
    """
    path = os.fspath(path)
    if IO_SHIM is not None:
        hook = getattr(IO_SHIM, "on_create", None)
        if hook is not None:
            hook(path)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    directory = os.path.dirname(path) or "."
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def read_bytes(path: PathLike) -> bytes:
    """Read ``path`` fully, consulting the IO shim's read hook.

    The one sanctioned read path for durable artifacts (checkpoints,
    manifests, journal files, lease files): routing loads through here
    lets the storage-fault layer model *read-side* corruption — bytes
    damaged between the platter and the consumer — which a
    write-time-only shim can never produce.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    if IO_SHIM is not None:
        hook = getattr(IO_SHIM, "on_read", None)
        if hook is not None:
            data = hook(path, data)
    return data


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically publish ``data`` as the contents of ``path``."""
    with atomic_open(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Atomically publish ``text`` as the contents of ``path``."""
    atomic_write_bytes(path, text.encode(encoding))
