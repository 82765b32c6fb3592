"""Command-line interface for the GraphPulse reproduction.

Subcommands:

``datasets``
    List the Table IV proxy datasets and their shapes.

``run``
    Run one algorithm on one dataset proxy through a chosen engine —
    any name in the :func:`repro.core.build_engine` registry (functional
    event model, cycle-level accelerator, sliced runtime, its
    multi-process variant ``sliced-mp`` with ``--workers N``, the
    multi-accelerator ``parallel-sliced`` model, BSP, or the Ligra
    baseline) — and print convergence and event statistics.  The
    ``--json`` result payload is the engine-independent
    :class:`repro.core.RunResult` schema for every engine.
    ``--fault-rate``/``--dead-lane``/``--resilience`` enable the
    fault-injection + recovery harness on the resilient engines.

``compare``
    Run the full cross-system comparison (the Figure 10/11/12 pipeline)
    for one workload and print the speedup/traffic summary.

``resilience``
    Run a fault-injection campaign (every algorithm x fault kind cell
    at one fault rate) and report convergence/recovery rates against
    fault-free references.

``lint``
    Run the AST invariant checker (:mod:`repro.analysis.staticcheck`)
    over source paths: determinism (DET-001/DET-002), durability
    (DUR-001), engine-registry discipline (ENG-001) and recovery-path
    hygiene (RES-001 silent excepts, RES-002 unbounded IO retries).
    ``--strict`` exits 1 on any unsuppressed
    finding; ``--self-check`` proves every rule's paired fixtures
    still trigger/pass; ``--json`` emits the structured finding
    schema.

``resume``
    Continue a durable run (one started with ``repro run
    --checkpoint-dir DIR``) from its newest *verifiable* on-disk
    checkpoint: the run directory's manifest is validated against the
    re-prepared workload (graph fingerprint included), state and queue
    are restored, and the run continues to convergence with
    bit-identical final vertex state.  When the newest checkpoint
    generation is corrupt the resume walks the retained generation
    ladder backwards (replaying the spill journal forward from the
    older generation's commit horizon) before giving up;
    ``--no-fallback`` restores the strict exit-2-on-corruption
    behaviour.  The ``--json`` payload's ``resumed`` block carries the
    recovery provenance: which generation restored, whether it fell
    back, which checkpoints were skipped and the journal replay stats.
    Shares ``run``'s output flags and output path: its ``--json``
    counters cover the whole run, and a SIGINT flushes a final
    checkpoint exactly as on a durable ``run``.

``gc``
    Apply the retention policy to a durable run directory: keep the
    newest ``--keep`` verifiable checkpoint generations, drop older and
    corrupt ones plus orphaned checkpoint files, and compact the spill
    journal up to the oldest retained generation's commit horizon.
    ``--dry-run`` reports without touching disk.

``bench``
    Run the throughput suite (engine x algorithm cells on one dataset
    proxy via :mod:`repro.obs.bench`): each cell reports median
    events/sec, rounds/sec and peak RSS over warmup + repeats, written
    as a schema-versioned ``BENCH_<host-fingerprint>.json`` artifact.
    ``--check BASELINE`` exits 1 when any cell regresses more than
    ``--tolerance`` below the baseline artifact.

Typed failures (:class:`repro.errors.ReproError` subclasses — invalid
graph inputs, queue capacity overflow, watchdog halts, exhausted
recovery, corrupt checkpoints, manifest mismatches) exit with status 2
and a one-line ``error:`` message instead of a traceback; with
``--json`` they also emit a structured ``{"error": {...}}`` object.
Interrupts (SIGINT/SIGTERM) exit with status 130; on a durable run the
engine first finishes its round and flushes a final checkpoint, and the
``--json`` payload names it so the run can be continued with ``repro
resume``.

Observability flags on ``run``: ``--trace FILE`` writes a Chrome/
Perfetto trace of the run, ``--metrics FILE`` a JSONL metrics stream
(gauge samples every ``--metrics-interval`` cycles plus a final stats
record), ``--progress [N]`` prints a heartbeat line to stderr every N
engine rounds (and attaches the live metrics registry, whose snapshot
joins the JSON payload), and ``--json [FILE]`` emits the run summary as
machine-readable JSON (to stdout, replacing the human output, when no
FILE is given).

Examples::

    python -m repro datasets
    python -m repro run pagerank --dataset LJ --scale 0.2
    python -m repro run sssp --dataset WG --engine cycle --scale 0.05
    python -m repro run pagerank --dataset WG --engine cycle \
        --trace run.trace.json --metrics run.metrics.jsonl --json
    python -m repro compare cc --dataset FB --scale 0.2 --json
    python -m repro run pagerank --dataset WG --scale 0.05 \
        --checkpoint-dir runs/pr-wg
    python -m repro resume runs/pr-wg --json
    python -m repro lint src/repro --strict --json lint.json
    python -m repro bench --engines functional,sliced,bsp --repeats 3
    python -m repro bench --check benchmarks/BENCH_ci_baseline.json
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import algorithms
from .analysis import ALGORITHMS, prepare_workload, run_comparison
from .analysis.report import format_table
from .core import (
    RunResult,
    build_engine,
    engine_names,
    resilient_engine_names,
)
from .errors import (
    CheckpointCorruptError,
    GraphValidationError,
    ManifestMismatchError,
    NonConvergenceError,
    QueueCapacityError,
    ReproError,
    RunInterruptedError,
    UnrecoverableFaultError,
)
from .graph import DATASETS, dataset_names, erdos_renyi_graph, load_dataset
from .ioutil import atomic_write_bytes, atomic_write_text
from .obs import TimeSeries, Tracer, export
from .obs import bench as obs_bench
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .resilience import (
    FAULT_KINDS,
    FaultPlan,
    InterruptGuard,
    ResilienceConfig,
    gc_run_dir,
    resume_run,
    storagefaults,
)
from .resilience.campaign import (
    DEFAULT_ALGORITHMS,
    format_report,
    run_campaign,
)

__all__ = ["main", "build_parser"]

#: every engine the registry knows; the CLI constructs exclusively
#: through :func:`repro.core.build_engine`
ENGINES = engine_names()

#: engines that accept a ``resilience=ResilienceConfig`` argument
RESILIENT_ENGINES = resilient_engine_names()

#: engines whose --num-slices flag applies
SLICED_ENGINES = ("sliced", "sliced-mp", "sliced-hosts", "parallel-sliced")

#: version of the CLI's top-level ``--json`` payloads (run/resume/gc).
#: Bumped whenever a payload key is added, removed or re-typed, so
#: downstream tooling can gate on the shape it parses.  The nested
#: ``result`` block carries its own ``schema_version`` (the RunResult
#: schema) and bench artifacts version themselves independently.
PAYLOAD_SCHEMA_VERSION = 1


def _dead_lane(value: str) -> Tuple[int, int]:
    """Parse a ``LANE[:CYCLE]`` dead-lane spec (CYCLE defaults to 0)."""
    lane, _, cycle = value.partition(":")
    try:
        return int(lane), int(cycle) if cycle else 0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LANE[:CYCLE], got {value!r}"
        ) from None


def _fault_kind_list(value: str) -> Tuple[str, ...]:
    """Parse a comma-separated fault-kind list, validating each kind."""
    kinds = tuple(k.strip() for k in value.split(",") if k.strip())
    unknown = sorted(set(kinds) - set(FAULT_KINDS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown fault kind(s) {', '.join(unknown)}; "
            f"choose from {', '.join(FAULT_KINDS)}"
        )
    return kinds


def _algorithm_list(value: str) -> Tuple[str, ...]:
    """Parse a comma-separated algorithm list for the campaign."""
    names = tuple(a.strip() for a in value.split(",") if a.strip())
    unknown = sorted(set(names) - set(ALGORITHMS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(ALGORITHMS))}"
        )
    return names


def _engine_list(value: str) -> Tuple[str, ...]:
    """Parse a comma-separated engine list for the bench suite."""
    names = tuple(e.strip() for e in value.split(",") if e.strip())
    unknown = sorted(set(names) - set(ENGINES))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown engine(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ENGINES)}"
        )
    return names


def _workers_sweep(value: str) -> Tuple[int, ...]:
    """Parse a comma-separated worker-count sweep for the bench suite."""
    try:
        counts = tuple(int(w.strip()) for w in value.split(",") if w.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated worker counts, got {value!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"worker counts must be >= 1, got {value!r}"
        )
    return counts


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    """The output flags of ``run`` and ``resume`` (:func:`_run_and_report`)."""
    parser.add_argument(
        "--dump-values",
        metavar="FILE",
        default=None,
        help="write the final vertex values to FILE as a .npy array "
        "(raw float64 bits, for bit-identical resume verification)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome/Perfetto trace of the rounds this process "
        "runs to FILE",
    )
    parser.add_argument(
        "--trace-categories",
        metavar="CATS",
        default=None,
        help="comma-separated event categories to record (e.g. "
        "'round,queue,dram,recovery'); default records everything",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a JSONL metrics stream (samples + stats) to FILE",
    )
    parser.add_argument(
        "--metrics-interval",
        type=int,
        default=1000,
        metavar="N",
        help="gauge sampling interval in engine time units (default 1000)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the run summary as JSON (stdout when FILE omitted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphPulse (MICRO 2020) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "datasets", help="list the Table IV proxy datasets"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one workload on one engine"
    )
    run_parser.add_argument(
        "algorithm", choices=sorted(ALGORITHMS) + ["bfs-reachability"]
    )
    run_parser.add_argument(
        "--dataset", default="LJ", choices=dataset_names()
    )
    run_parser.add_argument("--scale", type=float, default=0.2)
    run_parser.add_argument(
        "--engine", default="functional", choices=ENGINES
    )
    run_parser.add_argument(
        "--num-slices",
        type=int,
        default=2,
        metavar="N",
        help="slice count for --engine sliced (default 2)",
    )
    run_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        metavar="V",
        help="queue vertex capacity for --engine sliced; slices that "
        "exceed it raise a QueueCapacityError",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker process count for --engine sliced-mp (default 2; "
        "must not exceed --num-slices)",
    )
    run_parser.add_argument(
        "--hosts-dir",
        metavar="DIR",
        default=None,
        help="shared substrate directory for --engine sliced-hosts; "
        "every supervisor process pointed at the same DIR cooperates "
        "on (and can take over) the same run",
    )
    run_parser.add_argument(
        "--host-id",
        metavar="NAME",
        default=None,
        help="stable name for this sliced-hosts supervisor "
        "(default host-<pid>)",
    )
    run_parser.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat-silence threshold before a sliced-hosts peer's "
        "lease is considered stale and fenced (default 5.0)",
    )
    run_parser.add_argument(
        "--no-auto-slice",
        action="store_true",
        help="fail instead of re-partitioning when --queue-capacity "
        "requires more slices than --num-slices",
    )
    run_parser.add_argument(
        "--resilience",
        action="store_true",
        help="enable invariant detection + recovery even with no faults",
    )
    run_parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-site fault probability (implies --resilience)",
    )
    run_parser.add_argument(
        "--fault-kinds",
        type=_fault_kind_list,
        default=None,
        metavar="KINDS",
        help="comma-separated fault kinds to inject (default: every "
        "kind the chosen engine models)",
    )
    run_parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="S",
        help="seed of the reproducible fault plan (default 0)",
    )
    run_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="N",
        help="capture a rollback checkpoint every N rounds",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="make the run durable: write a manifest plus periodic "
        "on-disk checkpoints (and, with --engine sliced, a spill "
        "journal) to DIR so a killed run can continue with "
        "'repro resume DIR' (implies --resilience)",
    )
    run_parser.add_argument(
        "--dead-lane",
        type=_dead_lane,
        action="append",
        default=None,
        metavar="LANE[:CYCLE]",
        help="kill processor LANE at CYCLE (cycle engine; repeatable)",
    )
    run_parser.add_argument(
        "--verify",
        action="store_true",
        help="check the result against the golden reference",
    )
    run_parser.add_argument(
        "--progress",
        nargs="?",
        const=1000,
        type=int,
        default=None,
        metavar="N",
        help="print a heartbeat line to stderr every N engine rounds "
        "(default 1000) and attach the live metrics registry",
    )
    _add_output_flags(run_parser)

    compare_parser = subparsers.add_parser(
        "compare", help="cross-system comparison for one workload"
    )
    compare_parser.add_argument("algorithm", choices=sorted(ALGORITHMS))
    compare_parser.add_argument(
        "--dataset", default="LJ", choices=dataset_names()
    )
    compare_parser.add_argument("--scale", type=float, default=0.2)
    compare_parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the comparison summary as JSON (stdout when FILE omitted)",
    )

    res_parser = subparsers.add_parser(
        "resilience",
        help="fault-injection campaign with recovery scoring",
    )
    res_parser.add_argument(
        "--dataset",
        default=None,
        choices=dataset_names(),
        help="campaign graph from the Table IV proxies "
        "(default: a seeded Erdos-Renyi graph)",
    )
    res_parser.add_argument("--scale", type=float, default=0.05)
    res_parser.add_argument(
        "--vertices", type=int, default=200, metavar="V",
        help="generator graph size when no --dataset is given",
    )
    res_parser.add_argument(
        "--edges", type=int, default=1200, metavar="E",
        help="generator edge count when no --dataset is given",
    )
    res_parser.add_argument(
        "--graph-seed", type=int, default=7, metavar="S",
        help="generator seed when no --dataset is given",
    )
    res_parser.add_argument(
        "--algorithms",
        type=_algorithm_list,
        default=DEFAULT_ALGORITHMS,
        metavar="ALGOS",
        help="comma-separated algorithms "
        f"(default {','.join(DEFAULT_ALGORITHMS)})",
    )
    res_parser.add_argument(
        "--kinds",
        type=_fault_kind_list,
        default=FAULT_KINDS,
        metavar="KINDS",
        help=f"comma-separated fault kinds (default {','.join(FAULT_KINDS)})",
    )
    res_parser.add_argument(
        "--engine",
        default="functional",
        # sliced-mp is resilient (leases + journal replay) but refuses
        # event-fault plans, so campaigns stay on the in-process engines
        choices=("functional", "cycle", "sliced"),
        help="engine for layer-agnostic kinds; dram always runs the "
        "cycle model and spill the sliced runtime",
    )
    res_parser.add_argument(
        "--rate", type=float, default=1e-3, metavar="P",
        help="per-site fault probability (default 1e-3)",
    )
    res_parser.add_argument("--seed", type=int, default=0, metavar="S")
    res_parser.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N"
    )
    res_parser.add_argument(
        "--num-slices", type=int, default=2, metavar="N"
    )
    res_parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the campaign report as JSON (stdout when FILE omitted)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="AST invariant checker (determinism, durability, "
        "engine-registry discipline)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to lint (default: the installed "
        "repro package)",
    )
    lint_parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="check only this rule id (repeatable)",
    )
    lint_parser.add_argument(
        "--ignore-rule",
        action="append",
        default=None,
        metavar="ID",
        help="skip this rule id (repeatable)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any unsuppressed finding remains",
    )
    lint_parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify every rule's paired fixtures still trigger/pass "
        "(ignores PATH arguments)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (scopes and allowlist rationale)",
    )
    lint_parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the structured finding schema (stdout when FILE "
        "omitted)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="ratchet mode: findings recorded in FILE are reported as "
        "informational and only new findings fail --strict",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings "
        "instead of checking against it",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format; 'github' emits ::error workflow "
        "annotations for new findings",
    )

    resume_parser = subparsers.add_parser(
        "resume",
        help="continue a durable run from its newest on-disk checkpoint",
    )
    resume_parser.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="run directory written by 'repro run --checkpoint-dir'",
    )
    resume_parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail (status 2) on a corrupt newest checkpoint instead "
        "of falling back to an older verifiable generation",
    )
    _add_output_flags(resume_parser)

    gc_parser = subparsers.add_parser(
        "gc",
        help="apply the checkpoint retention policy to a durable run "
        "directory and compact its spill journal",
    )
    gc_parser.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="run directory written by 'repro run --checkpoint-dir'",
    )
    gc_parser.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="K",
        help="verifiable checkpoint generations to retain (default: "
        "the manifest's checkpoint_keep policy)",
    )
    gc_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be dropped without touching disk",
    )
    gc_parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the gc report as JSON (stdout when FILE omitted)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="throughput suite with schema-versioned artifacts and "
        "regression gating",
    )
    bench_parser.add_argument(
        "--engines",
        type=_engine_list,
        default=("functional", "sliced", "bsp"),
        metavar="NAMES",
        help="comma-separated engines (default functional,sliced,bsp)",
    )
    bench_parser.add_argument(
        "--algorithms",
        type=_algorithm_list,
        default=("pagerank", "bfs"),
        metavar="ALGOS",
        help="comma-separated algorithms (default pagerank,bfs)",
    )
    bench_parser.add_argument(
        "--dataset", default="WG", choices=dataset_names()
    )
    bench_parser.add_argument("--scale", type=float, default=0.05)
    bench_parser.add_argument(
        "--mp-workers",
        type=_workers_sweep,
        default=None,
        metavar="COUNTS",
        help="comma-separated worker counts (e.g. '1,2,4'): expand "
        "every sliced-mp engine cell into one variant per count, all "
        "at a slice count of 2x the largest — the speedup-vs-workers "
        "sweep",
    )
    bench_parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        metavar="N",
        help="throwaway repetitions per cell before timing (default 1)",
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timed repetitions per cell; the median is reported "
        "(default 3)",
    )
    bench_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="artifact path (default BENCH_<host-fingerprint>.json)",
    )
    bench_parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a baseline artifact; exit 1 when any "
        "cell regresses beyond --tolerance",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=obs_bench.DEFAULT_TOLERANCE,
        metavar="F",
        help="allowed fractional slowdown before --check fails "
        f"(default {obs_bench.DEFAULT_TOLERANCE:g})",
    )
    bench_parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit the artifact payload (plus the --check report) as "
        "JSON (stdout when FILE omitted)",
    )
    return parser


def _command_datasets() -> int:
    rows = [
        [
            spec.name,
            spec.num_vertices,
            spec.num_edges,
            f"{spec.original_vertices:,}",
            f"{spec.original_edges:,}",
            spec.description,
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            [
                "name",
                "proxy |V|",
                "proxy |E|",
                "original |V|",
                "original |E|",
                "description",
            ],
            rows,
            title="Table IV workload proxies",
        )
    )
    return 0


def _check_rate(rate: float, flag: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ReproError(f"{flag} must be in [0, 1], got {rate:g}")


def _check_num_slices(num_slices: int) -> None:
    if num_slices < 1:
        raise ReproError(f"--num-slices must be >= 1, got {num_slices}")


def _resilience_config(
    args: argparse.Namespace,
) -> Optional[ResilienceConfig]:
    """Build a ResilienceConfig from the ``run`` flags (None when off)."""
    _check_rate(args.fault_rate, "--fault-rate")
    enabled = (
        args.resilience
        or args.fault_rate > 0.0
        or bool(args.dead_lane)
        or args.checkpoint_interval is not None
        or args.checkpoint_dir is not None
    )
    if not enabled:
        return None
    if args.engine not in RESILIENT_ENGINES:
        raise ReproError(
            f"resilience flags require --engine "
            f"{', '.join(RESILIENT_ENGINES)}; got {args.engine!r}"
        )
    kinds = args.fault_kinds
    if kinds is None:
        kinds = ("drop", "duplicate", "bitflip")
        if args.engine == "cycle":
            kinds += ("dram",)
        elif args.engine in SLICED_ENGINES:
            kinds += ("spill",)
    plan = FaultPlan.uniform(
        args.fault_rate,
        seed=args.fault_seed,
        kinds=kinds,
        dead_lanes=dict(args.dead_lane or []),
    )
    run_meta = None
    if args.checkpoint_dir is not None:
        run_meta = {
            "workload": {
                "algorithm": args.algorithm,
                "dataset": args.dataset,
                "scale": args.scale,
            },
            # what build_engine is handed, so resume rebuilds the run
            "engine_options": _engine_options(args),
        }
    return ResilienceConfig(
        fault_plan=plan,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
        run_meta=run_meta,
    )


def _resilience_lines(summary: Dict[str, Any]) -> List[str]:
    """Human one-liner for a harness activity summary."""
    detections = sum(summary["detections"].values())
    line = (
        f"resilience: {summary['faults']['total']} faults injected   "
        f"{detections} detections   "
        f"{summary['repair']['epochs']} repair epochs   "
        f"{summary['checkpoints']['rollbacks']} rollbacks"
    )
    degraded = summary.get("degraded_lanes") or []
    if degraded:
        line += f"   degraded lanes: {sorted(degraded)}"
    return [line]


def _result_lines(result: RunResult, info: Dict[str, Any]) -> List[str]:
    """Human one-liners for a run; ``info`` is ``result.to_json()``."""
    engine = info["engine"]
    stats = info["stats"]
    if engine == "functional":
        lines = [
            f"rounds: {info['rounds']}   events processed: "
            f"{stats['events_processed']:,}   coalesced away: "
            f"{stats['coalesce_rate']:.1%}"
        ]
    elif engine == "cycle":
        lines = [
            f"cycles: {stats['cycles']:,} "
            f"({stats['seconds'] * 1e6:.1f} us at "
            f"{result.raw.config.clock_ghz:g} GHz)   rounds: "
            f"{info['rounds']}   off-chip: "
            f"{stats['offchip_bytes'] / 1e6:.2f} MB"
        ]
    elif engine in ("sliced", "sliced-mp", "parallel-sliced"):
        lines = [
            f"passes: {info['passes']}   rounds: "
            f"{info['rounds']}   spill traffic: "
            f"{stats['spill_bytes'] / 1e6:.2f} MB "
            f"({stats['spill_overhead']:.1%} of off-chip)",
            f"cross-slice messages: {stats['messages']:,}   "
            f"load balance: {stats['load_balance']:.2f}",
        ]
        if engine == "sliced-mp":
            lines.append(
                f"workers: {stats['workers']}   max in-flight: "
                f"{stats.get('max_inflight', 0)}   "
                f"recoveries: {stats['recoveries']}"
            )
    elif engine == "sliced-hosts":
        lines = [
            f"passes: {info['passes']}   rounds: {info['rounds']}   "
            f"spill traffic: {stats['spill_bytes'] / 1e6:.2f} MB",
            f"host {stats['host']}: executed {stats['steps_executed']} "
            f"of {stats['steps']} steps   stale peers fenced: "
            f"{stats['takeovers']}",
        ]
    elif engine == "bsp":
        lines = [
            f"iterations: {info['rounds']}   edges scanned: "
            f"{stats['edges_scanned']:,}"
        ]
    else:  # ligra
        lines = [
            f"iterations: {info['rounds']}   modelled time: "
            f"{stats['seconds'] * 1e3:.3f} ms   pull fraction: "
            f"{stats['pull_fraction']:.0%}"
        ]
    if info.get("resilience"):
        lines.extend(_resilience_lines(info["resilience"]))
    return lines


def _resolved_workers(args: argparse.Namespace) -> int:
    """The effective ``--workers`` value, validated up front.

    workers > slices is a typed exit-2 error (never a silent clamp):
    every worker must own at least one slice or the extra processes
    would idle while still costing spawn + barrier bookkeeping.
    """
    workers = 2 if args.workers is None else args.workers
    if workers < 1:
        raise ReproError(f"--workers must be >= 1, got {workers}")
    if workers > args.num_slices:
        raise ReproError(
            f"--workers ({workers}) exceeds --num-slices "
            f"({args.num_slices}); every worker needs at least one "
            f"slice to own — lower --workers or raise --num-slices"
        )
    return workers


def _engine_options(args: argparse.Namespace) -> Dict[str, Any]:
    """Translate ``run`` flags into the engine's ``build_engine`` config.

    Flags that the chosen engine does not model (``--workers`` on
    ``functional``, ``--queue-capacity`` on ``parallel-sliced``, ...)
    are passed through anyway when given explicitly, so the rejection
    comes from :func:`repro.core.build_engine`'s unknown-option path —
    one error message for CLI and library callers alike.
    """
    options: Dict[str, Any] = {}
    if args.engine in SLICED_ENGINES:
        _check_num_slices(args.num_slices)
        options["num_slices"] = args.num_slices
    capacity_engine = args.engine in ("sliced", "sliced-mp", "sliced-hosts")
    if capacity_engine or args.queue_capacity is not None:
        options["queue_capacity"] = args.queue_capacity
    if capacity_engine or args.no_auto_slice:
        options["auto_slice"] = not args.no_auto_slice
    if args.engine == "sliced-mp":
        options["num_workers"] = _resolved_workers(args)
    elif args.workers is not None:
        options["num_workers"] = args.workers
    if args.engine == "sliced-hosts":
        if args.hosts_dir is None:
            raise ReproError(
                "--engine sliced-hosts requires --hosts-dir (the shared "
                "substrate directory all participating hosts point at)"
            )
        options["hosts_dir"] = args.hosts_dir
        options["host_id"] = args.host_id
        options["lease_timeout"] = args.lease_timeout
    return options


def _write_json(payload: Dict[str, Any], destination: str) -> None:
    """Dump JSON to stdout (``"-"``) or atomically to a file."""
    # default=float coerces numpy scalars that leak into summaries
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if destination == "-":
        print(text)
    else:
        atomic_write_text(destination, text + "\n")


def _dump_values(values: np.ndarray, destination: str) -> None:
    """Atomically write the final vertex values as a ``.npy`` array.

    Raw float64 bits — the crash-resume harness compares these files
    bytewise to prove resumed runs are bit-identical.
    """
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(values, dtype=np.float64))
    atomic_write_bytes(destination, buffer.getvalue())


def _say(args: argparse.Namespace, text: str) -> None:
    """Human narration; JSON on stdout replaces it entirely."""
    if args.json != "-":
        print(text)


def _run_and_report(
    args: argparse.Namespace,
    execute: Callable[
        [Optional[TimeSeries]], Tuple[RunResult, Dict[str, Any]]
    ],
    *,
    durable: bool,
    registry: Optional[obs_metrics.MetricsRegistry] = None,
    check: Optional[Callable[[np.ndarray], Tuple[float, bool]]] = None,
) -> int:
    """The one output path of ``run`` and ``resume``.

    ``execute(timeseries)`` runs the engine and returns its
    :class:`RunResult` plus the payload keys that say what ran.  It runs
    under the tracer, the metrics ``registry`` and, on ``durable`` runs,
    an :class:`InterruptGuard`: the first SIGINT/SIGTERM finishes the
    round and flushes a final checkpoint before unwinding.  Then the
    result, values summary, trace, metrics, values dump and ``--json``
    payload are written.  ``check(values)`` returns ``(max_error, ok)``
    for ``--verify``; a mismatch makes the status 1.
    """
    timeseries = None
    if args.metrics is not None:
        if args.metrics_interval < 1:
            raise ReproError(
                f"--metrics-interval must be >= 1, got {args.metrics_interval}"
            )
        timeseries = TimeSeries(interval=args.metrics_interval)
    tracer = None
    if args.trace is not None:
        categories = (
            [c.strip() for c in args.trace_categories.split(",") if c.strip()]
            if args.trace_categories
            else None
        )
        tracer = Tracer(categories=categories)
    with ExitStack() as stack:
        if durable:
            stack.enter_context(InterruptGuard())
        if tracer is not None:
            stack.enter_context(obs_trace.tracing(tracer))
        if registry is not None:
            stack.enter_context(obs_metrics.collecting(registry))
        result, payload = execute(timeseries)
    info = result.to_json()
    for line in _result_lines(result, info):
        _say(args, line)

    values = result.values
    finite = values[np.isfinite(values)]
    _say(
        args,
        f"values: {len(finite):,} finite of {len(values):,}; "
        f"min {finite.min():.4g}  max {finite.max():.4g}"
        if len(finite)
        else "values: none finite",
    )
    payload.update(
        schema_version=PAYLOAD_SCHEMA_VERSION,
        result=info,
        values={
            "total": int(len(values)),
            "finite": int(len(finite)),
            "min": float(finite.min()) if len(finite) else None,
            "max": float(finite.max()) if len(finite) else None,
        },
    )

    if args.trace is not None:
        count = export.write_chrome_trace(tracer, args.trace)
        payload["trace"] = {"path": args.trace, "events": count}
        _say(args, f"trace: {count:,} events -> {args.trace}")
    if args.metrics is not None:
        # flatten the RunResult payload into one stats record
        stats = {
            "engine": info["engine"],
            "converged": info["converged"],
            "rounds": info["rounds"],
            "passes": info["passes"],
            **info["stats"],
        }
        written = export.write_metrics_jsonl(
            args.metrics, timeseries=timeseries, stats=stats
        )
        payload["metrics"] = {"path": args.metrics, "lines": written}
        _say(args, f"metrics: {written:,} lines -> {args.metrics}")
    if registry is not None:
        payload["metrics_registry"] = registry.snapshot()
    if args.dump_values is not None:
        _dump_values(values, args.dump_values)
        payload["values"]["file"] = args.dump_values
        _say(args, f"values -> {args.dump_values}")

    status = 0
    if check is not None:
        error, ok = check(values)
        payload["verification"] = {"max_error": error, "ok": ok}
        _say(
            args,
            f"verification: max error {error:.3g} -> "
            f"{'OK' if ok else 'MISMATCH'}",
        )
        if not ok:
            status = 1

    if args.json is not None:
        _write_json(payload, args.json)
    return status


def _verify(
    algorithm: str, graph, spec, values: np.ndarray
) -> Tuple[float, bool]:
    """``(max_error, ok)`` of ``values`` against the golden reference."""
    root = int(np.argmax(graph.out_degrees()))
    injection = (
        algorithms.injection_values(graph)
        if algorithm == "adsorption"
        else None
    )
    reference = algorithms.reference_for(
        algorithm, graph, root=root, injection=injection
    )
    mask = np.isfinite(reference)
    error = (
        float(np.max(np.abs(values[mask] - reference[mask])))
        if mask.any()
        else 0.0
    )
    return error, error < max(spec.comparison_tolerance * 100, 1e-6)


def _command_run(args: argparse.Namespace) -> int:
    graph, spec = prepare_workload(
        args.dataset, args.algorithm, scale=args.scale
    )
    registry = None
    if args.progress is not None:
        if args.progress < 1:
            raise ReproError(
                f"--progress interval must be >= 1, got {args.progress}"
            )
        registry = obs_metrics.MetricsRegistry()
        registry.progress = obs_metrics.ProgressReporter(
            interval=args.progress
        )
    _say(args, f"workload: {args.algorithm} on {graph}")

    def execute(timeseries):
        # engines are built only through the build_engine registry
        handle = build_engine(
            args.engine,
            (graph, spec),
            _engine_options(args),
            resilience=_resilience_config(args),
            timeseries=timeseries,
        )
        workload = {
            "algorithm": args.algorithm,
            "dataset": args.dataset,
            "scale": args.scale,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
        return handle.run(), {"workload": workload, "engine": args.engine}

    return _run_and_report(
        args,
        execute,
        durable=args.checkpoint_dir is not None,
        registry=registry,
        check=(
            functools.partial(_verify, args.algorithm, graph, spec)
            if args.verify
            else None
        ),
    )


def _command_compare(args: argparse.Namespace) -> int:
    result = run_comparison(
        args.dataset, args.algorithm, scale=args.scale, verify=False
    )
    summary = result.summary()
    if args.json is not None:
        payload = {
            "workload": {
                "algorithm": args.algorithm,
                "dataset": args.dataset,
                "scale": args.scale,
            },
            "summary": summary,
        }
        _write_json(payload, args.json)
        if args.json == "-":
            return 0
    rows = [
        ["GraphPulse+opt vs Ligra", f"{summary['speedup_vs_ligra']:.2f}x"],
        [
            "GraphPulse-base vs Ligra",
            f"{summary['baseline_speedup_vs_ligra']:.2f}x",
        ],
        [
            "GraphPulse vs Graphicionado",
            f"{summary['speedup_vs_graphicionado']:.2f}x",
        ],
        [
            "off-chip traffic vs Graphicionado",
            f"{summary['traffic_vs_graphicionado']:.2f}",
        ],
        ["off-chip data utilization", f"{summary['data_utilization']:.2f}"],
        ["GraphPulse rounds", int(summary["graphpulse_rounds"])],
        ["BSP iterations", int(summary["bsp_iterations"])],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.algorithm} on {args.dataset} "
            f"(scale {args.scale:g})",
        )
    )
    return 0


def _command_resilience(args: argparse.Namespace) -> int:
    _check_rate(args.rate, "--rate")
    _check_num_slices(args.num_slices)
    if args.dataset is not None:
        graph = load_dataset(args.dataset, scale=args.scale)
        graph_name = args.dataset
    else:
        graph = erdos_renyi_graph(
            args.vertices, args.edges, seed=args.graph_seed
        )
        graph_name = f"er({args.vertices},{args.edges})"
    campaign = run_campaign(
        {graph_name: graph},
        algorithms=args.algorithms,
        kinds=args.kinds,
        engine=args.engine,
        rate=args.rate,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        num_slices=args.num_slices,
    )
    ok = (
        campaign.convergence_rate == 1.0 and campaign.recovery_rate == 1.0
    )
    if args.json is not None:
        payload = campaign.to_dict()
        payload["ok"] = ok
        _write_json(payload, args.json)
    if args.json != "-":
        print(format_report(campaign))
        print("CAMPAIGN OK" if ok else "CAMPAIGN FAILED")
    return 0 if ok else 1


def _lint_rules(args: argparse.Namespace):
    """Resolve --rule/--ignore-rule to Rule objects (typed failure on
    unknown ids, so CI typos fail loudly instead of linting nothing)."""
    from .analysis.staticcheck import select_rules

    try:
        return select_rules(
            tuple(args.rule or ()), tuple(args.ignore_rule or ())
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def _lint_paths(args: argparse.Namespace) -> List[str]:
    """Lint targets; default is the installed ``repro`` package so the
    verb works from any working directory."""
    if args.paths:
        for path in args.paths:
            if not os.path.exists(path):
                raise ReproError(f"lint path does not exist: {path}")
        return list(args.paths)
    return [os.path.dirname(os.path.abspath(__file__))]


def _github_annotation(finding) -> str:
    """Render a finding as a GitHub Actions ``::error`` workflow command
    (annotates the offending line directly in the PR diff view)."""

    def prop(value: str) -> str:
        # Property values terminate on "," and ":"; data only on "%"
        # and newlines.  Escaping rules come from the workflow-command
        # spec, not from us.
        return (
            value.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
            .replace(":", "%3A")
            .replace(",", "%2C")
        )

    message = (
        finding.message.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )
    return (
        f"::error file={prop(finding.path)},line={finding.line},"
        f"col={finding.col},title={prop('repro-lint ' + finding.rule)}"
        f"::{message}"
    )


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis.staticcheck import lint_paths, run_selfcheck

    rules = _lint_rules(args)
    json_to_stdout = args.json == "-"

    def say(text: str) -> None:
        if not json_to_stdout:
            print(text)

    if args.list_rules:
        rows = [
            [rule.id, rule.severity, rule.description] for rule in rules
        ]
        say(format_table(["id", "severity", "invariant"], rows,
                         title="repro lint rules"))
        for rule in rules:
            for pattern, reason in sorted(rule.allowlist.items()):
                say(f"  {rule.id} allowlist {pattern}: {reason}")
        if args.json is not None:
            _write_json(
                {"rules": [rule.describe() for rule in rules]}, args.json
            )
        return 0

    if args.self_check:
        failures = run_selfcheck(rules)
        for failure in failures:
            say(f"self-check: {failure.format()}")
        say(
            f"self-check: {len(rules)} rules, "
            f"{len(failures)} broken fixture contract(s)"
        )
        if args.json is not None:
            _write_json(
                {
                    "self_check": {
                        "rules": [rule.id for rule in rules],
                        "failures": [
                            {
                                "rule": failure.rule,
                                "fixture": failure.fixture,
                                "message": failure.message,
                            }
                            for failure in failures
                        ],
                        "ok": not failures,
                    }
                },
                args.json,
            )
        return 1 if failures else 0

    if args.update_baseline and not args.baseline:
        raise ReproError("--update-baseline requires --baseline FILE")
    if args.format == "github" and json_to_stdout:
        raise ReproError(
            "--format github owns stdout; write --json to a file instead"
        )

    paths = _lint_paths(args)
    findings = lint_paths(paths, rules)
    unsuppressed = [f for f in findings if not f.suppressed]
    by_rule: Dict[str, int] = {}
    for finding in unsuppressed:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1

    failing = list(unsuppressed)
    baselined: List[object] = []
    baseline_json = None
    if args.baseline:
        from .analysis.staticcheck.baseline import (
            apply_baseline,
            read_baseline,
            write_baseline,
        )

        if args.update_baseline:
            entry_count = write_baseline(unsuppressed, args.baseline)
            baselined, failing = list(unsuppressed), []
            say(
                f"lint: baseline rewritten: {args.baseline} "
                f"({entry_count} entries)"
            )
        else:
            try:
                entries = read_baseline(args.baseline)
            except (OSError, ValueError) as exc:
                raise ReproError(
                    f"cannot read lint baseline: {exc}"
                ) from None
            entry_count = len(entries)
            failing, baselined = apply_baseline(unsuppressed, entries)
        baseline_json = {
            "file": args.baseline,
            "updated": bool(args.update_baseline),
            "entries": entry_count,
            "baselined": len(baselined),
            "new": len(failing),
        }
    baselined_ids = {id(f) for f in baselined}

    if args.format == "github":
        for finding in failing:
            print(_github_annotation(finding))
    else:
        for finding in findings:
            tag = "  [baseline]" if id(finding) in baselined_ids else ""
            say(finding.format() + tag)
            if (
                finding.hint
                and not finding.suppressed
                and id(finding) not in baselined_ids
            ):
                say(f"    hint: {finding.hint}")
    say(
        f"lint: {len(unsuppressed)} finding(s), "
        f"{len(findings) - len(unsuppressed)} suppressed "
        f"({', '.join(rule.id for rule in rules)})"
    )
    if args.baseline and not args.update_baseline:
        say(
            f"lint: baseline {args.baseline}: {len(baselined)} "
            f"baselined, {len(failing)} new"
        )

    if args.json is not None:
        lint_json = {
            "paths": paths,
            "rules": [rule.id for rule in rules],
            "strict": bool(args.strict),
            "findings": [f.to_json() for f in findings],
            "counts": {
                "total": len(findings),
                "unsuppressed": len(unsuppressed),
                "suppressed": len(findings) - len(unsuppressed),
                "by_rule": by_rule,
            },
            "ok": not failing,
        }
        if baseline_json is not None:
            lint_json["baseline"] = baseline_json
        _write_json({"lint": lint_json}, args.json)
    return 1 if args.strict and failing else 0


def _command_resume(args: argparse.Namespace) -> int:
    def execute(timeseries):
        outcome = resume_run(
            args.run_dir,
            timeseries=timeseries,
            fallback=not args.no_fallback,
        )
        restored = outcome.restored
        provenance = outcome.provenance
        workload = outcome.manifest.get("workload") or {}
        origin = (
            f"checkpoint {restored.seq} (after round {restored.round_index})"
            if restored is not None
            else "the beginning (no checkpoint had been flushed yet)"
        )
        _say(
            args,
            f"resumed {workload.get('algorithm')} on "
            f"{workload.get('dataset')} (scale {workload.get('scale')}, "
            f"engine {outcome.engine}) from {origin}",
        )
        skipped = provenance.get("checkpoints_skipped") or []
        if skipped:
            _say(
                args,
                f"fallback: skipped {len(skipped)} corrupt checkpoint "
                f"generation(s): "
                + ", ".join(str(s.get("seq")) for s in skipped),
            )
        resumed = {
            "run_dir": args.run_dir,
            "checkpoint": restored.seq if restored is not None else None,
            "round_index": (
                restored.round_index if restored is not None else None
            ),
            # recovery provenance: which generation actually restored,
            # what the fallback ladder skipped and what the journal
            # replay kept/discarded (see validate_resume_payload)
            "generation": provenance.get("generation"),
            "fallback": bool(provenance.get("fallback")),
            "from_scratch": bool(provenance.get("from_scratch")),
            "checkpoints_skipped": skipped,
            "journal": provenance.get("journal"),
        }
        return outcome.result, {
            "resumed": resumed,
            "workload": workload,
            "engine": outcome.engine,
        }

    # a resumed run is always durable
    return _run_and_report(args, execute, durable=True)


def _command_gc(args: argparse.Namespace) -> int:
    report = gc_run_dir(
        args.run_dir, keep=args.keep, dry_run=args.dry_run
    )
    json_to_stdout = args.json == "-"

    def say(text: str) -> None:
        if not json_to_stdout:
            print(text)

    verb = "would drop" if report.dry_run else "dropped"
    say(
        f"gc {args.run_dir}: retained "
        f"{len(report.retained)} generation(s) "
        f"({', '.join(str(e['seq']) for e in report.retained) or 'none'}), "
        f"{verb} {len(report.dropped)} stale, "
        f"{len(report.corrupt)} corrupt, "
        f"{len(report.orphans)} orphan(s)"
    )
    for entry in report.corrupt:
        say(f"  corrupt checkpoint {entry['seq']}: {entry['error']}")
    journal = report.journal or {}
    if journal.get("skipped"):
        say(f"journal: skipped ({journal['skipped']})")
    elif report.dry_run and "compact_upto" in journal:
        say(f"journal: would compact up to commit {journal['compact_upto']}")
    elif journal:
        say(
            f"journal: compacted up to commit {journal.get('upto')} "
            f"({journal.get('records_dropped', 0)} record(s) dropped, "
            f"{journal.get('bytes_before', 0):,} -> "
            f"{journal.get('bytes_after', 0):,} bytes)"
        )
    if args.json is not None:
        _write_json(
            {"schema_version": PAYLOAD_SCHEMA_VERSION, **report.to_json()},
            args.json,
        )
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ReproError(f"--repeats must be >= 1, got {args.repeats}")
    if args.warmup < 0:
        raise ReproError(f"--warmup must be >= 0, got {args.warmup}")
    cells = obs_bench.default_suite(
        engines=args.engines,
        algorithms=args.algorithms,
        dataset=args.dataset,
        scale=args.scale,
        mp_workers=args.mp_workers or (),
    )
    json_to_stdout = args.json == "-"

    def say(text: str) -> None:
        if not json_to_stdout:
            print(text)

    # per-cell progress goes to stderr so `--json -` stays parseable
    payload = obs_bench.run_suite(
        cells,
        warmup=args.warmup,
        repeats=args.repeats,
        log=lambda line: print(line, file=sys.stderr),
    )
    out = args.out or obs_bench.default_artifact_name()
    obs_bench.write_bench(payload, out)
    say(
        f"bench: {len(payload['cells'])} cells "
        f"(host {payload['host']['fingerprint']}) -> {out}"
    )
    rows = [
        [
            cell["key"],
            f"{cell['events_per_sec']:,.0f} {cell['work_unit']}/s",
            f"{cell['median_seconds'] * 1e3:.1f} ms",
            f"{cell['peak_rss_kb'] / 1024:.0f} MB",
        ]
        for cell in payload["cells"]
    ]
    say(
        format_table(
            ["cell", "throughput", "median", "peak rss"],
            rows,
            title=f"repro bench ({args.dataset} @ {args.scale:g}, "
            f"median of {args.repeats})",
        )
    )

    status = 0
    output: Dict[str, Any] = payload
    if args.check is not None:
        baseline = obs_bench.load_bench(args.check)
        report = obs_bench.check_regression(
            payload, baseline, tolerance=args.tolerance
        )
        output = dict(payload)
        output["check"] = report.to_json()
        for regression in report.regressions:
            say(
                f"REGRESSION {regression['key']}: "
                f"{regression['current_events_per_sec']:,.0f}/s vs "
                f"baseline {regression['baseline_events_per_sec']:,.0f}/s "
                f"(floor {regression['floor_events_per_sec']:,.0f}/s)"
            )
        say(
            f"check vs {args.check}: {report.compared} compared, "
            f"{len(report.unmatched)} unmatched, "
            f"{len(report.regressions)} regression(s) "
            f"(tolerance {report.tolerance:g}) -> "
            f"{'OK' if report.ok else 'FAILED'}"
        )
        if not report.ok:
            status = 1
    if args.json is not None:
        _write_json(output, args.json)
    return status


def _error_payload(exc: ReproError) -> Dict[str, Any]:
    """Structured ``{"error": ...}`` object for a typed failure."""
    error: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, GraphValidationError):
        error.update(exc.context)
    elif isinstance(exc, QueueCapacityError):
        error.update(
            num_vertices=exc.num_vertices,
            capacity=exc.capacity,
            required_slices=exc.required_slices,
            suggestion=(
                f"re-run with --engine sliced "
                f"--num-slices {exc.required_slices}"
            ),
        )
    elif isinstance(exc, NonConvergenceError):
        error["diagnostic"] = exc.diagnostic
    elif isinstance(exc, UnrecoverableFaultError):
        error.update(exc.detail)
    elif isinstance(exc, (CheckpointCorruptError, ManifestMismatchError)):
        error.update(exc.context)
    return {"error": error}


def _report_error(exc: ReproError, json_dest: Optional[str]) -> int:
    """Clean nonzero exit for a typed failure: no traceback, status 2."""
    if json_dest is not None:
        _write_json(_error_payload(exc), json_dest)
    if json_dest != "-":
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, QueueCapacityError):
            print(
                f"hint: re-run with --engine sliced "
                f"--num-slices {exc.required_slices}",
                file=sys.stderr,
            )
    return 2


def _report_interrupt(
    exc: Optional[RunInterruptedError], json_dest: Optional[str]
) -> int:
    """Clean exit 130 for an interrupted run (no traceback).

    On a durable run ``exc`` carries the final flushed checkpoint, so
    both the human hint and the ``--json`` partial-result object name
    the exact ``repro resume`` invocation that continues the run.
    """
    detail = dict(exc.detail) if exc is not None else {}
    run_dir = detail.get("run_dir")
    if json_dest is not None:
        interrupted: Dict[str, Any] = {
            "message": str(exc) if exc is not None else "interrupted",
            **detail,
        }
        if run_dir:
            interrupted["resume"] = f"repro resume {run_dir}"
        _write_json({"interrupted": interrupted}, json_dest)
    if json_dest != "-":
        message = str(exc) if exc is not None else "interrupted"
        print(f"interrupted: {message}", file=sys.stderr)
        if run_dir:
            print(
                f"hint: continue with 'repro resume {run_dir}'",
                file=sys.stderr,
            )
    return 130


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the storage-fault chaos layer, when requested via
        # REPRO_STORAGE_FAULTS, shims every durable write in this process
        storagefaults.install_from_env()
        if args.command == "datasets":
            return _command_datasets()
        if args.command == "run":
            return _command_run(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "resilience":
            return _command_resilience(args)
        if args.command == "lint":
            return _command_lint(args)
        if args.command == "resume":
            return _command_resume(args)
        if args.command == "gc":
            return _command_gc(args)
        if args.command == "bench":
            return _command_bench(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except RunInterruptedError as exc:
        return _report_interrupt(exc, getattr(args, "json", None))
    except KeyboardInterrupt:
        return _report_interrupt(None, getattr(args, "json", None))
    except ReproError as exc:
        return _report_error(exc, getattr(args, "json", None))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
