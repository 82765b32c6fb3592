"""Resilience campaign: sweep fault models, measure recovery quality.

An architecture-level resilience study in the spirit of the paper's
Figure 10/14 methodology: for every (algorithm, fault kind) cell the
runner executes a fault-free reference run and a seeded faulty run with
detection + recovery enabled, then reports

- whether the faulty run converged (no crash, no unrecoverable fault),
- whether it *recovered* — final state within tolerance of the
  reference (L-inf <= 1e-6 for numeric algorithms, exact equality for
  label/level algorithms),
- how many faults were injected/detected and what recovery cost: extra
  rounds or cycles past the point where the fault-free run would have
  terminated (the harness's ``recovery_overhead``).

Fault kinds bind to the engine layer they live in: ``dram`` errors only
exist in the cycle-accurate model and ``spill`` loss only in the sliced
runtime, so those kinds override the requested engine.  Engines are
imported lazily to keep ``repro.resilience`` importable from inside the
engines themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms import get_algorithm
from ..errors import ReproError
from ..graph import CSRGraph
from .faults import FAULT_KINDS, FaultPlan
from .harness import ResilienceConfig

__all__ = [
    "DEFAULT_ALGORITHMS",
    "RunReport",
    "CampaignResult",
    "run_campaign",
    "format_report",
]

DEFAULT_ALGORITHMS = ("pagerank", "sssp", "bfs", "cc")

#: L-inf acceptance bound for numeric (additive) algorithms
NUMERIC_TOLERANCE = 1e-6

#: fault kinds that only exist in a specific engine layer
_KIND_ENGINE = {"dram": "cycle", "spill": "sliced"}


@dataclass
class RunReport:
    """One campaign cell: algorithm x graph x fault kind."""

    algorithm: str
    graph: str
    kind: str
    engine: str
    rate: float
    seed: int
    converged: bool = False
    recovered: bool = False
    error: float = float("nan")  #: L-inf vs the fault-free reference
    faults: int = 0
    detections: int = 0
    repair_epochs: int = 0
    rollbacks: int = 0
    overhead: float = 0.0  #: recovery cycles (cycle engine) or rounds
    time_unit: str = "rounds"
    failure: str = ""  #: exception text when the run did not complete

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "kind": self.kind,
            "engine": self.engine,
            "rate": self.rate,
            "seed": self.seed,
            "converged": self.converged,
            "recovered": self.recovered,
            "error": None if np.isnan(self.error) else self.error,
            "faults": self.faults,
            "detections": self.detections,
            "repair_epochs": self.repair_epochs,
            "rollbacks": self.rollbacks,
            "overhead": self.overhead,
            "time_unit": self.time_unit,
        }
        if self.failure:
            record["failure"] = self.failure
        return record


@dataclass
class CampaignResult:
    """All cells of one campaign sweep."""

    rate: float
    seed: int
    reports: List[RunReport] = field(default_factory=list)

    @property
    def convergence_rate(self) -> float:
        if not self.reports:
            return 1.0
        return sum(r.converged for r in self.reports) / len(self.reports)

    @property
    def recovery_rate(self) -> float:
        if not self.reports:
            return 1.0
        return sum(r.recovered for r in self.reports) / len(self.reports)

    @property
    def total_faults(self) -> int:
        return sum(r.faults for r in self.reports)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "seed": self.seed,
            "convergence_rate": self.convergence_rate,
            "recovery_rate": self.recovery_rate,
            "total_faults": self.total_faults,
            "runs": [r.to_dict() for r in self.reports],
        }


#: propagate threshold for the additive campaign workloads.  The
#: fault-free quiescent state deviates from the fixed point by an
#: unpropagated tail proportional to this threshold (also in the
#: sliced runtime, whose barrier schedule re-drops sub-threshold tails
#: once per pass); repair epochs park a recovered run *at* the fixed point,
#: so the threshold must keep the reference's own tail band well inside
#: the L-inf acceptance bound.
_ADDITIVE_THRESHOLD = 1e-9


def _prepare_workload(
    algorithm: str, graph: CSRGraph
) -> Tuple[CSRGraph, Any]:
    """Algorithm-specific graph preprocessing + spec construction."""
    if algorithm == "cc":
        from ..algorithms.connected_components import symmetrize

        prepared = symmetrize(graph)
        return prepared, get_algorithm("cc", graph=prepared)
    if algorithm == "sssp":
        prepared = graph if graph.is_weighted else graph.with_unit_weights()
        return prepared, get_algorithm("sssp", graph=prepared)
    if algorithm == "adsorption":
        from ..algorithms.adsorption import normalize_inbound_weights

        prepared = normalize_inbound_weights(graph)
        return prepared, get_algorithm(
            "adsorption", graph=prepared, threshold=_ADDITIVE_THRESHOLD
        )
    if algorithm == "pagerank":
        return graph, get_algorithm(
            "pagerank", graph=graph, threshold=_ADDITIVE_THRESHOLD
        )
    return graph, get_algorithm(algorithm, graph=graph)


def _execute(
    engine: str,
    graph: CSRGraph,
    spec: Any,
    resilience: Optional[ResilienceConfig],
    *,
    num_slices: int = 2,
) -> Tuple[np.ndarray, float, str, Optional[Dict[str, Any]]]:
    """Run one engine; returns (state, duration, time_unit, summary)."""
    from ..core.engines import build_engine

    options: Dict[str, Any] = {}
    if engine == "sliced":
        options["num_slices"] = num_slices
    elif engine not in ("functional", "cycle"):
        raise ValueError(f"unknown campaign engine {engine!r}")
    result = build_engine(
        engine, (graph, spec), options, resilience=resilience
    ).run()
    if engine == "cycle":
        duration, unit = float(result.stats["cycles"]), "cycles"
    else:
        duration, unit = float(result.rounds), "rounds"
    return result.values, duration, unit, result.resilience


def _compare(spec: Any, reference: np.ndarray, faulty: np.ndarray) -> Tuple[float, bool]:
    """(L-inf error, recovered?) treating inf==inf as exact agreement."""
    both_inf = (
        np.isinf(reference) & np.isinf(faulty)
        & (np.sign(reference) == np.sign(faulty))
    )
    with np.errstate(invalid="ignore"):  # inf - inf where both_inf
        diff = np.abs(reference - faulty)
    diff[both_inf] = 0.0
    if np.isnan(diff).any():
        return float("inf"), False
    error = float(diff.max()) if diff.size else 0.0
    if spec.additive:
        return error, error <= NUMERIC_TOLERANCE
    return error, error == 0.0


def run_campaign(
    graphs: Mapping[str, CSRGraph],
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    kinds: Sequence[str] = FAULT_KINDS,
    engine: str = "functional",
    rate: float = 1e-3,
    seed: int = 0,
    checkpoint_interval: Optional[int] = None,
    dead_lanes: Optional[Mapping[int, int]] = None,
    parity_coverage: float = 1.0,
    num_slices: int = 2,
) -> CampaignResult:
    """Sweep every (graph, algorithm, fault kind) cell at one fault rate.

    ``engine`` is the layer exercised for layer-agnostic kinds
    (drop/duplicate/bitflip); ``dram`` always runs the cycle model and
    ``spill`` always runs the sliced runtime.  ``dead_lanes`` adds a
    dead-lane scenario (cycle engine) on top of every faulty run.
    """
    campaign = CampaignResult(rate=rate, seed=seed)
    for graph_name, graph in graphs.items():
        for algorithm in algorithms:
            prepared, spec = _prepare_workload(algorithm, graph)
            references: Dict[str, np.ndarray] = {}
            for kind in kinds:
                run_engine = _KIND_ENGINE.get(kind, engine)
                report = RunReport(
                    algorithm=algorithm,
                    graph=graph_name,
                    kind=kind,
                    engine=run_engine,
                    rate=rate,
                    seed=seed,
                )
                if run_engine not in references:
                    reference, _, _, _ = _execute(
                        run_engine, prepared, spec, None, num_slices=num_slices
                    )
                    references[run_engine] = reference
                plan = FaultPlan.uniform(
                    rate,
                    seed=seed,
                    kinds=(kind,),
                    dead_lanes=dead_lanes if run_engine == "cycle" else None,
                    parity_coverage=parity_coverage,
                )
                config = ResilienceConfig(
                    fault_plan=plan, checkpoint_interval=checkpoint_interval
                )
                try:
                    state, duration, unit, summary = _execute(
                        run_engine,
                        prepared,
                        spec,
                        config,
                        num_slices=num_slices,
                    )
                except ReproError as exc:
                    report.failure = f"{type(exc).__name__}: {exc}"
                    campaign.reports.append(report)
                    continue
                report.converged = True
                report.time_unit = unit
                report.error, report.recovered = _compare(
                    spec, references[run_engine], state
                )
                if summary is not None:
                    report.faults = summary["faults"]["total"]
                    report.detections = sum(summary["detections"].values())
                    report.repair_epochs = summary["repair"]["epochs"]
                    report.rollbacks = summary["checkpoints"]["rollbacks"]
                    report.overhead = summary["recovery_overhead"]
                campaign.reports.append(report)
    return campaign


def format_report(campaign: CampaignResult) -> str:
    """Human-readable campaign table (one row per cell)."""
    header = (
        f"{'algorithm':<12} {'graph':<10} {'kind':<10} {'engine':<10} "
        f"{'faults':>6} {'detect':>6} {'epochs':>6} "
        f"{'error':>10} {'overhead':>12} {'status':<10}"
    )
    lines = [
        f"resilience campaign: rate={campaign.rate:g} seed={campaign.seed}",
        header,
        "-" * len(header),
    ]
    for r in campaign.reports:
        if not r.converged:
            status = "FAILED"
        elif r.recovered:
            status = "recovered"
        else:
            status = "DIVERGED"
        error = "-" if np.isnan(r.error) else f"{r.error:.2e}"
        overhead = f"{r.overhead:g} {r.time_unit[:2]}"
        lines.append(
            f"{r.algorithm:<12} {r.graph:<10} {r.kind:<10} {r.engine:<10} "
            f"{r.faults:>6} {r.detections:>6} {r.repair_epochs:>6} "
            f"{error:>10} {overhead:>12} {status:<10}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"convergence {campaign.convergence_rate:.0%}  "
        f"recovery {campaign.recovery_rate:.0%}  "
        f"faults {campaign.total_faults}"
    )
    return "\n".join(lines)
