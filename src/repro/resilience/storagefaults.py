"""Deterministic storage-fault injection for the durable stack.

PR 3 made execution crash-consistent under *process* death; this module
is the adversary for the other half of the failure model: the storage
the durable layer writes to.  A :class:`StorageFaultInjector` installs
as the global IO shim (:func:`repro.ioutil.set_io_shim`) and is
consulted at the few choke points every persisted byte flows through —
checkpoint/manifest publishes (``atomic_open``), journal commit appends
(:meth:`SpillJournal.commit`), lease creates and heartbeats, and every
durable load (:func:`repro.ioutil.read_bytes`: checkpoints, manifests,
journals, leases) — so a seeded :class:`StorageFaultPlan` can
reproduce, byte for byte:

``torn``
    truncate the payload mid-record at a chosen (or seeded) offset, so
    the CRC32/length framing of GPCK checkpoints and GPJL journal
    records fires on the next read;
``bitrot``
    flip bytes *after* the write is staged, the silent-corruption case
    checksums exist for;
``readrot``
    flip bytes on the *read* path (:func:`repro.ioutil.read_bytes`):
    the disk image stays intact but the consumer receives damaged
    bytes — a bad controller, cable or cache line.  Read ops count
    separately from write ops, so a readrot ``op_index`` indexes
    matching loads;
``correlated``
    one firing damages *every* existing file matching ``path_glob`` in
    the triggering path's directory (plus the staged payload itself) —
    the shared-medium failure a single-file fault can never model, and
    the case that defeats single-generation redundancy;
``eio`` / ``enospc``
    transient ``OSError`` raised *before* the underlying syscall (so a
    bounded retry never duplicates bytes), failing ``times`` consecutive
    attempts.  An ``enospc`` whose ``times`` outlasts the retry budget
    is *persistent* disk-full: :func:`retry_transient` then raises the
    typed :class:`repro.errors.OutOfSpaceError` instead of a generic
    ``OSError``;
``crash``
    SIGKILL the process at the fault point — crash-before-rename when it
    lands on a publish hook.

Faults are scripted per operation: each op counts the IO operations
whose path matches its ``path_glob`` and fires at ``op_index`` — the
same plan against the same run is the same corruption, which is what
makes the recovery tests and the crash campaign reproducible.

The module also hosts the two recovery-side utilities the rest of the
stack shares: :func:`retry_transient`, the *bounded* exponential-backoff
retry loop (the RES-002 lint rule exists to keep every IO retry in
``resilience/`` shaped like it), and the post-mortem corruption helpers
(:func:`corrupt_file` / :func:`inject_storage_fault`) the crash campaign
uses to damage a dead run's newest artifacts between kill and resume.
"""

from __future__ import annotations

import contextlib
import errno as _errno
import json
import os
import signal
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import OutOfSpaceError, ReproError
from .. import ioutil

__all__ = [
    "STORAGE_FAULT_KINDS",
    "TRANSIENT_ERRNOS",
    "RETRY_ATTEMPTS",
    "ENV_STORAGE_FAULTS",
    "StorageFaultOp",
    "StorageFaultPlan",
    "StorageFaultInjector",
    "install",
    "uninstall",
    "injecting",
    "install_from_env",
    "retry_transient",
    "corrupt_file",
    "inject_storage_fault",
]

#: the fault vocabulary (module docs)
STORAGE_FAULT_KINDS = (
    "torn",
    "bitrot",
    "readrot",
    "correlated",
    "eio",
    "enospc",
    "crash",
)

#: errno values treated as transient (worth a bounded retry)
TRANSIENT_ERRNOS = (_errno.EIO, _errno.ENOSPC, _errno.EAGAIN)

#: default attempt budget of :func:`retry_transient`
RETRY_ATTEMPTS = 5

#: env var carrying a JSON :class:`StorageFaultPlan` — the CLI installs
#: it at startup so subprocess harnesses (crash campaign, CI chaos job)
#: can inject faults into a victim run without code changes
ENV_STORAGE_FAULTS = "REPRO_STORAGE_FAULTS"

_ERRNO_BY_KIND = {"eio": _errno.EIO, "enospc": _errno.ENOSPC}


# ----------------------------------------------------------------------
# Bounded retry (the recovery side)
# ----------------------------------------------------------------------


def retry_transient(
    operation: Callable[[], Any],
    *,
    attempts: int = RETRY_ATTEMPTS,
    base_delay: float = 0.002,
    sleep: Callable[[float], None] = time.sleep,
    description: str = "io operation",
) -> Any:
    """Run ``operation`` with bounded exponential-backoff retry.

    Only the transient errno family (:data:`TRANSIENT_ERRNOS`) is
    retried; every other ``OSError`` — ``FileNotFoundError``,
    ``FileExistsError`` (a *lost* lease race must not be retried into a
    stolen lease), permission errors — propagates immediately.  The
    attempt budget is deliberate: an unbounded ``while True`` here would
    wedge a heartbeat thread on a dead disk, which is exactly what lint
    rule RES-002 guards against.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    last: Optional[OSError] = None
    for attempt in range(attempts):
        try:
            return operation()
        except OutOfSpaceError:
            raise  # already classified persistent by an inner retry
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS:
                raise
            last = exc
            if attempt + 1 < attempts:
                sleep(base_delay * (2.0 ** attempt))
    if last is not None and last.errno == _errno.ENOSPC:
        # every attempt hit ENOSPC: the disk is *full*, not flaky —
        # surface the one storage failure an operator can act on as its
        # typed error (the CLI turns it into an exit-2 --json payload)
        raise OutOfSpaceError(
            f"{description}: storage persistently out of space after "
            f"{attempts} attempts: {last}",
            description=description,
            attempts=attempts,
            path=getattr(last, "filename", None),
        )
    raise OSError(
        last.errno if last is not None else _errno.EIO,
        f"{description}: still failing after {attempts} attempts: {last}",
    )


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StorageFaultOp:
    """One scripted fault: *which* operation to hit and *how*.

    ``path_glob`` fnmatches the target's basename (or full path);
    ``op_index`` selects the N-th matching IO operation (0-based, each
    op counts independently); transient kinds fail ``times``
    consecutive matching operations starting at ``op_index``.
    ``offset``/``nbytes`` pin torn/bitrot damage to exact bytes —
    ``offset=None`` draws a seeded offset from the plan's RNG.
    """

    kind: str
    path_glob: str = "*"
    op_index: int = 0
    times: int = 1
    offset: Optional[int] = None
    nbytes: int = 1

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ReproError(
                f"unknown storage fault kind {self.kind!r}; expected one "
                f"of {', '.join(STORAGE_FAULT_KINDS)}"
            )
        if self.times < 1:
            raise ReproError("storage fault 'times' must be >= 1")

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "path_glob": self.path_glob,
            "op_index": self.op_index,
            "times": self.times,
            "offset": self.offset,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "StorageFaultOp":
        known = {"kind", "path_glob", "op_index", "times", "offset", "nbytes"}
        extra = sorted(set(payload) - known)
        if extra:
            raise ReproError(
                f"storage fault op has unknown key(s): {', '.join(extra)}"
            )
        if "kind" not in payload:
            raise ReproError("storage fault op needs a 'kind'")
        return cls(**payload)


@dataclass(frozen=True)
class StorageFaultPlan:
    """A seeded, ordered set of :class:`StorageFaultOp` — the full
    description of one storage-chaos scenario, JSON round-trippable so
    it can ride the :data:`ENV_STORAGE_FAULTS` env var into a victim
    subprocess."""

    ops: Tuple[StorageFaultOp, ...] = ()
    seed: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {"seed": self.seed, "ops": [op.to_json() for op in self.ops]}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "StorageFaultPlan":
        if not isinstance(payload, dict):
            raise ReproError("storage fault plan must be a JSON object")
        ops = payload.get("ops", [])
        if not isinstance(ops, list):
            raise ReproError("storage fault plan 'ops' must be a list")
        return cls(
            ops=tuple(StorageFaultOp.from_json(dict(op)) for op in ops),
            seed=int(payload.get("seed", 0)),
        )


# ----------------------------------------------------------------------
# The injector (the IO shim)
# ----------------------------------------------------------------------


class StorageFaultInjector:
    """The installable IO shim executing a :class:`StorageFaultPlan`.

    One instance owns one seeded RNG and per-op match counters, so the
    same plan replayed against the same run corrupts the same bytes.
    ``injected`` records every fault that actually fired (kind, site,
    path, offsets) for assertions and campaign artifacts.
    """

    def __init__(self, plan: StorageFaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._seen: Dict[int, int] = {}
        self.operations = 0
        self.injected: List[Dict[str, Any]] = []

    # -- shim protocol -------------------------------------------------

    def on_publish(self, tmp_path: str, final_path: str) -> None:
        """atomic_open hook: damage the staged temp file or fail the
        publish (the destination is still the old complete version)."""
        for op in self._due(final_path):
            self._fire(op, site="publish", path=final_path, mutate=tmp_path)

    def on_append(self, path: os.PathLike, data: bytes) -> bytes:
        """Journal-commit hook: may truncate/flip the record batch about
        to be appended, or raise a transient error before any byte is
        written (so the caller's bounded retry is safe)."""
        for op in self._due(path):
            data = self._fire(op, site="append", path=path, payload=data)
        return data

    def on_create(self, path: os.PathLike) -> None:
        """exclusive_create hook (lease acquisition)."""
        for op in self._due(path):
            self._fire(op, site="create", path=path)

    def on_utime(self, path: os.PathLike) -> None:
        """Lease-heartbeat hook."""
        for op in self._due(path):
            self._fire(op, site="utime", path=path)

    def on_read(self, path: os.PathLike, data: bytes) -> bytes:
        """Load hook (:func:`repro.ioutil.read_bytes`): damage the bytes
        *delivered to the consumer* — the on-disk file stays intact, so
        a retry or a different reader may still see good data."""
        for op in self._due(path, read=True):
            data = self._fire(op, site="read", path=path, payload=data)
        return data

    # -- mechanics -----------------------------------------------------

    def _due(
        self, path: os.PathLike, *, read: bool = False
    ) -> List[StorageFaultOp]:
        self.operations += 1
        name = os.path.basename(os.fspath(path))
        full = os.fspath(path)
        due: List[StorageFaultOp] = []
        for index, op in enumerate(self.plan.ops):
            # readrot ops count (and fire) only on the read path; every
            # other kind only on the write/heartbeat path — so adding
            # read instrumentation never shifts a write op's op_index
            if (op.kind == "readrot") != read:
                continue
            if not (fnmatch(name, op.path_glob) or fnmatch(full, op.path_glob)):
                continue
            seen = self._seen.get(index, 0)
            self._seen[index] = seen + 1
            if op.op_index <= seen < op.op_index + op.times:
                due.append(op)
        return due

    def _fire(
        self,
        op: StorageFaultOp,
        *,
        site: str,
        path: os.PathLike,
        mutate: Optional[str] = None,
        payload: Optional[bytes] = None,
    ) -> Optional[bytes]:
        record: Dict[str, Any] = {
            "kind": op.kind,
            "site": site,
            "path": os.fspath(path),
        }
        if op.kind in ("eio", "enospc"):
            self.injected.append(record)
            raise OSError(
                _ERRNO_BY_KIND[op.kind],
                f"injected transient {op.kind} ({site} of {path})",
            )
        if op.kind == "crash":
            self.injected.append(record)
            os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("unreachable: SIGKILL returned")
        if op.kind == "correlated":
            record["files"] = self._damage_correlated(op, path, mutate)
            if payload is not None:
                damaged, detail = self._damage_bytes(op, payload)
                record.update(detail)
                self.injected.append(record)
                return damaged
            self.injected.append(record)
            return payload
        if payload is not None:
            damaged, detail = self._damage_bytes(op, payload)
            record.update(detail)
            self.injected.append(record)
            return damaged
        if mutate is not None:
            record.update(self._damage_file(op, mutate))
            self.injected.append(record)
        return payload

    def _damage_correlated(
        self,
        op: StorageFaultOp,
        path: os.PathLike,
        mutate: Optional[str],
    ) -> List[Dict[str, Any]]:
        """Bit-rot every existing sibling matching the op's glob.

        Models a shared-medium failure (controller cache flush gone
        wrong, a dying flash block striped across files): the staged
        temp file *and* all previously published matching artifacts in
        the same directory take damage in one event, which is the case
        that defeats keep-the-last-K redundancy one file at a time
        cannot.
        """
        files: List[Dict[str, Any]] = []
        directory = os.path.dirname(os.fspath(path)) or "."
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            names = []
        for name in names:
            target = os.path.join(directory, name)
            if mutate is not None and os.path.abspath(
                target
            ) == os.path.abspath(mutate):
                continue  # the staged temp is damaged once, below
            if not os.path.isfile(target):
                continue
            if not (
                fnmatch(name, op.path_glob) or fnmatch(target, op.path_glob)
            ):
                continue
            if os.path.getsize(target) == 0:
                continue
            detail = self._damage_file(op, target)
            detail["path"] = target
            files.append(detail)
        if mutate is not None and os.path.getsize(mutate) > 0:
            detail = self._damage_file(op, mutate)
            detail["path"] = os.fspath(path)
            detail["staged"] = True
            files.append(detail)
        return files

    def _pick_offset(self, op: StorageFaultOp, size: int) -> int:
        if op.offset is not None:
            return max(0, min(op.offset, max(size - 1, 0)))
        if size <= 1:
            return 0
        # seeded mid-file offset: skip byte 0 so a torn write is a
        # truncation, not an empty file (that case has its own test)
        return int(self._rng.integers(1, size))

    def _damage_bytes(
        self, op: StorageFaultOp, data: bytes
    ) -> Tuple[bytes, Dict[str, Any]]:
        offset = self._pick_offset(op, len(data))
        if op.kind == "torn":
            return data[:offset], {"offset": offset, "dropped": len(data) - offset}
        flipped = bytearray(data)
        end = min(len(flipped), offset + max(op.nbytes, 1))
        for i in range(offset, end):
            flipped[i] ^= 0xFF
        return bytes(flipped), {"offset": offset, "flipped": end - offset}

    def _damage_file(self, op: StorageFaultOp, path: str) -> Dict[str, Any]:
        size = os.path.getsize(path)
        offset = self._pick_offset(op, size)
        if op.kind == "torn":
            with open(path, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            return {"offset": offset, "dropped": size - offset}
        with open(path, "r+b") as handle:
            handle.seek(offset)
            chunk = bytearray(handle.read(max(op.nbytes, 1)))
            for i in range(len(chunk)):
                chunk[i] ^= 0xFF
            handle.seek(offset)
            handle.write(bytes(chunk))
            handle.flush()
            os.fsync(handle.fileno())
        return {"offset": offset, "flipped": len(chunk)}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def install(
    plan: "StorageFaultPlan | StorageFaultInjector",
) -> StorageFaultInjector:
    """Install a fault plan (or a prebuilt injector) as the global IO
    shim; returns the active injector."""
    injector = (
        plan
        if isinstance(plan, StorageFaultInjector)
        else StorageFaultInjector(plan)
    )
    ioutil.set_io_shim(injector)
    return injector


def uninstall() -> None:
    """Remove any installed IO shim (fault-free IO resumes)."""
    ioutil.set_io_shim(None)


@contextlib.contextmanager
def injecting(
    plan: "StorageFaultPlan | StorageFaultInjector",
) -> Iterator[StorageFaultInjector]:
    """Scoped installation: the previous shim is restored on exit."""
    injector = (
        plan
        if isinstance(plan, StorageFaultInjector)
        else StorageFaultInjector(plan)
    )
    previous = ioutil.set_io_shim(injector)
    try:
        yield injector
    finally:
        ioutil.set_io_shim(previous)


def install_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Optional[StorageFaultInjector]:
    """Install the plan carried by :data:`ENV_STORAGE_FAULTS`, if any.

    Called once at CLI startup; a malformed plan is a typed
    :class:`ReproError` (exit 2), not a silent no-op — a chaos run that
    quietly ran fault-free would report vacuous recovery rates.
    """
    env = os.environ if environ is None else environ
    raw = env.get(ENV_STORAGE_FAULTS)
    if not raw:
        return None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"{ENV_STORAGE_FAULTS} is not valid JSON: {exc}"
        ) from exc
    return install(StorageFaultPlan.from_json(payload))


# ----------------------------------------------------------------------
# Post-mortem corruption (the campaign side)
# ----------------------------------------------------------------------


def corrupt_file(
    path: os.PathLike,
    *,
    kind: str = "bitrot",
    seed: int = 0,
    offset: Optional[int] = None,
    nbytes: int = 4,
) -> Dict[str, Any]:
    """Damage an existing file in place (seeded), returning what was done.

    This is the *post-mortem* flavor of injection: the crash campaign
    kills a victim run, then rots or tears its newest artifacts before
    resuming — modeling corruption that happens while the process is
    down, where no IO shim could have been consulted.
    """
    if kind not in ("torn", "bitrot"):
        raise ReproError(
            f"corrupt_file supports 'torn' or 'bitrot', got {kind!r}"
        )
    op = StorageFaultOp(kind=kind, offset=offset, nbytes=nbytes)
    injector = StorageFaultInjector(StorageFaultPlan(seed=seed))
    detail = injector._damage_file(op, os.fspath(path))
    detail.update({"kind": kind, "path": os.fspath(path)})
    return detail


def inject_storage_fault(
    run_dir: os.PathLike,
    *,
    kind: str = "ckpt-bitrot",
    seed: int = 0,
) -> Optional[Dict[str, Any]]:
    """Corrupt a durable run directory's newest artifact post-mortem.

    ``kind`` targets one artifact: ``ckpt-bitrot``/``ckpt-torn`` hit the
    newest manifest-indexed checkpoint generation (forcing the resume
    fallback ladder one generation back), ``journal-tail`` appends a
    torn garbage record to the spill journal (exercising tail
    truncation on replay).  Returns the damage record, or ``None`` when
    the targeted artifact does not exist (e.g. the victim died before
    its first checkpoint) — recovery then proceeds without a fault,
    which the campaign reports honestly.
    """
    run = Path(run_dir)
    if kind in ("ckpt-bitrot", "ckpt-torn"):
        manifest_path = run / "manifest.json"
        if not manifest_path.exists():
            return None
        try:
            entries = json.loads(manifest_path.read_text()).get(
                "checkpoints", []
            )
        except (json.JSONDecodeError, OSError):
            return None
        if not entries:
            return None
        target = run / entries[-1]["file"]
        if not target.exists():
            return None
        detail = corrupt_file(
            target, kind=kind.split("-", 1)[1], seed=seed
        )
        detail["target"] = "checkpoint"
        detail["seq"] = entries[-1].get("seq")
        return detail
    if kind == "journal-tail":
        journal = run / "journal.bin"
        if not journal.exists():
            return None
        garbage = bytes(
            np.random.default_rng(seed).integers(0, 256, size=24, dtype=np.uint8)
        )
        # deliberately non-atomic: a torn tail IS the fault under test
        with open(journal, "ab") as handle:
            handle.write(b"\x01" + garbage)
            handle.flush()
            os.fsync(handle.fileno())
        return {
            "kind": "journal-tail",
            "path": str(journal),
            "target": "journal",
            "appended": 1 + len(garbage),
        }
    raise ReproError(
        f"unknown post-mortem fault kind {kind!r}; expected ckpt-bitrot, "
        f"ckpt-torn or journal-tail"
    )
