"""End-to-end throughput benchmarking (the ``repro bench`` verb).

The ROADMAP's north star — "as fast as the hardware allows" — needs a
measurement before any optimisation PR can prove a speedup or a CI job
can catch a regression.  This module runs a declarative suite of
*cells* (engine × algorithm × dataset-proxy, each constructed through
:func:`repro.core.build_engine`), measures wall-clock events/sec,
rounds/sec and peak RSS per cell with warmup + repeat-median, and
serializes the result as a schema-versioned ``BENCH_<fingerprint>.json``
artifact through :mod:`repro.ioutil`'s atomic writes.

This is the **one** module in the reproduction allowed to read the wall
clock: DET-001 scopes the whole ``obs/`` layer and allowlists exactly
this file (see :mod:`repro.analysis.staticcheck.rules` for the
rationale).  Nothing measured here ever feeds back into engine state —
the timed runs are ordinary deterministic runs observed from outside.

Methodology (documented for readers in EXPERIMENTS.md):

- each cell runs ``warmup`` throwaway repetitions (JIT-free Python
  still benefits: allocator warmup, page cache, branch predictors),
  then ``repeats`` timed ones;
- the reported throughput is the **median** repetition, which is robust
  to one-off scheduler hiccups that poison means;
- regression checks compare median events/sec against a baseline cell
  with a multiplicative ``tolerance`` (default 0.25: a cell fails when
  it runs more than 25% slower than its baseline), so routine host
  noise passes while a real slowdown trips;
- artifacts embed a host fingerprint because absolute throughput is
  host-specific — comparing artifacts across fingerprints answers
  "what changed", not "which machine is faster".
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..ioutil import atomic_write_text

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCell",
    "default_suite",
    "host_fingerprint",
    "run_cell",
    "run_suite",
    "work_units",
    "write_bench",
    "load_bench",
    "validate_bench",
    "check_regression",
    "default_artifact_name",
]

#: bump on any breaking change to the artifact layout
BENCH_SCHEMA_VERSION = 1

#: default regression tolerance: a cell fails ``--check`` when its
#: median events/sec drops more than this fraction below the baseline
DEFAULT_TOLERANCE = 0.25

#: per-engine option defaults the suite applies so multi-slice/worker
#: engines actually exercise their distinctive machinery
_ENGINE_OPTIONS: Dict[str, Dict[str, Any]] = {
    "sliced": {"num_slices": 2},
    "sliced-mp": {"num_slices": 2, "num_workers": 2},
    "parallel-sliced": {"num_slices": 2},
}


@dataclass(frozen=True)
class BenchCell:
    """One suite cell: an engine running one workload.

    ``variant`` distinguishes cells that differ only in engine options
    (e.g. a worker sweep ``w1``/``w2``/``w4``); it suffixes the pairing
    key so each variant regresses against its own baseline.  ``options``
    is merged over the per-engine suite defaults at run time.
    """

    engine: str
    algorithm: str
    dataset: str
    scale: float
    variant: str = ""
    options: Optional[Dict[str, Any]] = None

    @property
    def key(self) -> str:
        """Stable identity used to pair cells across artifacts."""
        key = (
            f"{self.engine}/{self.algorithm}/{self.dataset}@{self.scale:g}"
        )
        if self.variant:
            key += f"+{self.variant}"
        return key


def default_suite(
    engines: Tuple[str, ...] = ("functional", "sliced", "bsp"),
    algorithms: Tuple[str, ...] = ("pagerank", "bfs"),
    dataset: str = "WG",
    scale: float = 0.05,
    mp_workers: Tuple[int, ...] = (),
) -> List[BenchCell]:
    """The engine × algorithm cross product at one dataset proxy.

    ``mp_workers`` expands every ``sliced-mp`` entry into one cell per
    worker count (variant ``wN``).  The sweep pins one slice count —
    twice the largest worker count, so even the widest variant has
    work to multiplex — and varies *only* ``num_workers``, which is
    what makes the resulting events/sec curve a speedup-vs-workers
    measurement (the EXPERIMENTS.md recipe).
    """
    cells: List[BenchCell] = []
    for e in engines:
        for a in algorithms:
            if e == "sliced-mp" and mp_workers:
                num_slices = 2 * max(mp_workers)
                cells.extend(
                    BenchCell(
                        engine=e,
                        algorithm=a,
                        dataset=dataset,
                        scale=scale,
                        variant=f"w{n}",
                        options={
                            "num_slices": num_slices,
                            "num_workers": n,
                        },
                    )
                    for n in mp_workers
                )
            else:
                cells.append(
                    BenchCell(
                        engine=e, algorithm=a, dataset=dataset, scale=scale
                    )
                )
    return cells


def host_fingerprint() -> str:
    """Eight hex chars identifying the measuring host class.

    Hashes stable platform facts (OS, architecture, Python major.minor,
    CPU count) — enough to tell two artifact populations apart without
    leaking hostnames into committed files.
    """
    version = ".".join(platform.python_version_tuple()[:2])
    facts = "|".join(
        (
            platform.system(),
            platform.machine(),
            f"py{version}",
            f"cpus{os.cpu_count() or 0}",
        )
    )
    return hashlib.sha256(facts.encode()).hexdigest()[:8]


def default_artifact_name() -> str:
    return f"BENCH_{host_fingerprint()}.json"


def work_units(info: Dict[str, Any]) -> int:
    """The throughput numerator for one run summary.

    Engines count work differently; this resolves one comparable unit
    per engine, in preference order: processed events (functional,
    cycle, every sliced engine), scanned edges (BSP), then plain
    iterations (Ligra) as the last resort.  Bench cells of *different
    engines* are therefore only comparable within the same unit — the
    artifact records which unit each cell used.
    """
    stats = info.get("stats") or {}
    for key in ("events_processed", "edges_scanned"):
        value = stats.get(key)
        if value:
            return int(value)
    rounds = info.get("rounds") or info.get("passes") or 0
    return int(rounds)


def _work_unit_name(info: Dict[str, Any]) -> str:
    stats = info.get("stats") or {}
    for key in ("events_processed", "edges_scanned"):
        if stats.get(key):
            return key
    return "rounds"


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    ``ru_maxrss`` is KB on Linux and bytes on macOS; normalize to KB.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _timed_run(cell: BenchCell, workload, options) -> Tuple[float, Dict]:
    """One timed repetition: build, run, return (seconds, summary)."""
    from ..core import build_engine  # local: keep obs import-light

    handle = build_engine(cell.engine, workload, dict(options))
    start = time.perf_counter()
    result = handle.run()
    elapsed = time.perf_counter() - start
    return elapsed, result.to_json()


def run_cell(
    cell: BenchCell,
    *,
    warmup: int = 1,
    repeats: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Measure one cell; returns its artifact record.

    The workload is prepared once (graph construction is setup, not
    the thing under test), then the engine is rebuilt fresh for every
    repetition so no run sees a warm predecessor's state.
    """
    from ..analysis import prepare_workload  # local: keep obs import-light

    if repeats < 1:
        raise ReproError(f"bench repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ReproError(f"bench warmup must be >= 0, got {warmup}")
    graph, spec = prepare_workload(
        cell.dataset, cell.algorithm, scale=cell.scale
    )
    workload = (graph, spec)
    options = dict(_ENGINE_OPTIONS.get(cell.engine, {}))
    if cell.options:
        options.update(cell.options)
    for _ in range(warmup):
        _timed_run(cell, workload, options)
    seconds: List[float] = []
    info: Dict[str, Any] = {}
    for _ in range(repeats):
        elapsed, info = _timed_run(cell, workload, options)
        seconds.append(elapsed)
    median = sorted(seconds)[len(seconds) // 2]
    units = work_units(info)
    rounds = info.get("rounds") or info.get("passes") or 0
    record = {
        "engine": cell.engine,
        "algorithm": cell.algorithm,
        "dataset": cell.dataset,
        "scale": cell.scale,
        # variant/options stay out of _REQUIRED_CELL_KEYS: artifacts
        # written before the worker-sweep support remain valid baselines
        "variant": cell.variant,
        "options": options,
        "key": cell.key,
        "warmup": warmup,
        "repeats": repeats,
        "seconds": seconds,
        "median_seconds": median,
        "work_units": units,
        "work_unit": _work_unit_name(info),
        "events_per_sec": units / median if median > 0 else 0.0,
        "rounds": int(rounds),
        "rounds_per_sec": rounds / median if median > 0 else 0.0,
        "converged": bool(info.get("converged")),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if log is not None:
        log(
            f"bench {cell.key}: {record['events_per_sec']:,.0f} "
            f"{record['work_unit']}/s (median of {repeats})"
        )
    return record


def run_suite(
    cells: List[BenchCell],
    *,
    warmup: int = 1,
    repeats: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run every cell and assemble the schema-versioned artifact."""
    if not cells:
        raise ReproError("bench suite is empty: no engine/algorithm cells")
    records = [
        run_cell(cell, warmup=warmup, repeats=repeats, log=log)
        for cell in cells
    ]
    version = ".".join(platform.python_version_tuple()[:2])
    return {
        "format_version": BENCH_SCHEMA_VERSION,
        "host": {
            "fingerprint": host_fingerprint(),
            "system": platform.system(),
            "machine": platform.machine(),
            "python": version,
            "cpus": os.cpu_count() or 0,
        },
        "suite": {"warmup": warmup, "repeats": repeats},
        "cells": records,
    }


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------

_REQUIRED_CELL_KEYS = (
    "engine",
    "algorithm",
    "dataset",
    "scale",
    "key",
    "seconds",
    "median_seconds",
    "work_units",
    "work_unit",
    "events_per_sec",
    "rounds",
    "rounds_per_sec",
    "converged",
    "peak_rss_kb",
)


def validate_bench(payload: Dict[str, Any]) -> None:
    """Assert ``payload`` matches the BENCH artifact schema.

    Raises ``ValueError`` naming the first violation; used by the tests
    and the CI bench job so a drifting writer fails loudly.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be an object")
    version = payload.get("format_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench payload format_version {version!r} is not "
            f"{BENCH_SCHEMA_VERSION}"
        )
    host = payload.get("host")
    if not isinstance(host, dict) or not host.get("fingerprint"):
        raise ValueError("bench payload missing host.fingerprint")
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("bench payload has no cells")
    for index, cell in enumerate(cells):
        missing = [k for k in _REQUIRED_CELL_KEYS if k not in cell]
        if missing:
            raise ValueError(
                f"bench cell {index} missing keys: {', '.join(missing)}"
            )
        if not isinstance(cell["events_per_sec"], (int, float)):
            raise ValueError(
                f"bench cell {cell.get('key', index)!r} events_per_sec "
                f"must be numeric"
            )


def write_bench(payload: Dict[str, Any], path: str) -> str:
    """Atomically persist an artifact; returns the path written."""
    validate_bench(payload)
    text = json.dumps(payload, indent=2, sort_keys=True)
    atomic_write_text(path, text + "\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    """Read and validate an artifact (typed failure on a bad file)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read bench baseline {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"bench baseline {path} is not valid JSON: {exc}"
        ) from None
    try:
        validate_bench(payload)
    except ValueError as exc:
        raise ReproError(f"bench baseline {path}: {exc}") from None
    return payload


# ----------------------------------------------------------------------
# Regression gating
# ----------------------------------------------------------------------


@dataclass
class RegressionReport:
    """Outcome of comparing a current artifact against a baseline."""

    tolerance: float
    compared: int = 0
    #: cells present in current but absent from the baseline (informational)
    unmatched: List[str] = field(default_factory=list)
    regressions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json(self) -> Dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "compared": self.compared,
            "unmatched": list(self.unmatched),
            "regressions": list(self.regressions),
            "ok": self.ok,
        }


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RegressionReport:
    """Compare two artifacts cell-by-cell on median events/sec.

    A cell regresses when ``current < baseline * (1 - tolerance)``.
    Cells are paired on :attr:`BenchCell.key`; current cells without a
    baseline counterpart are recorded as ``unmatched`` (new cells must
    not fail the gate — they have no history to regress against).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(
            f"bench tolerance must be in [0, 1), got {tolerance:g}"
        )
    report = RegressionReport(tolerance=tolerance)
    reference = {cell["key"]: cell for cell in baseline["cells"]}
    for cell in current["cells"]:
        base = reference.get(cell["key"])
        if base is None:
            report.unmatched.append(cell["key"])
            continue
        report.compared += 1
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if cell["events_per_sec"] < floor:
            report.regressions.append(
                {
                    "key": cell["key"],
                    "current_events_per_sec": cell["events_per_sec"],
                    "baseline_events_per_sec": base["events_per_sec"],
                    "floor_events_per_sec": floor,
                    "ratio": (
                        cell["events_per_sec"] / base["events_per_sec"]
                        if base["events_per_sec"]
                        else 0.0
                    ),
                }
            )
    return report
