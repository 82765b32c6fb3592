"""The four benchmark workloads: seeded inputs, engine, and output check.

Each workload is one (dataset proxy, scale, algorithm, engine, options)
cell.  The seed is the benchmark's ``--seed`` and reaches the program
only as ``load_dataset(..., seed_offset=seed)``.  ``prepare_workload``
in ``repro.analysis.experiments`` takes no seed, so :meth:`Workload.prepare`
repeats its preprocessing for the two algorithms used here: random edge
weights for SSSP and, as root, the vertex with the highest out-degree.

Why these four (measured on a 2-CPU x86 container, seed 0):

- ``pagerank-wg`` is the additive-float, apply-heavy, coalescing-heavy
  case: about 86% of insertions coalesce.  Eager coalescing and a
  vectorised apply/propagate target it;
- ``sssp-tw`` is exact-min and edge-scan-heavy with few applies, takes
  the weights path, and is the one workload where generating the graph
  is a visible share of the time;
- ``pagerank-sliced`` runs the slicing and spill layers: barrier
  dispatch over 4 slices does about 5x the events of ``functional`` on
  the same graph, so pass-driver and scheduling changes move it;
- ``cycle-pagerank`` is the paper's modelled accelerator and the only
  workload that runs the ``memory``, ``network`` and ``sim`` layers.  A
  queue change that helps the other three but costs the cycle model
  shows here.

Scales are chosen so one set-up plus solve takes 1 to 4 s on that
host: a run of 25 s then holds several repetitions and reports their
median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro import core
from repro.algorithms import get_algorithm
from repro.algorithms.base import AlgorithmSpec
from repro.algorithms.reference import reference_for
from repro.graph import CSRGraph, datasets

__all__ = ["WORKLOADS", "Check", "Workload", "check_values", "work_counts"]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    algorithm: str
    engine: str
    options: Mapping[str, Any] = field(default_factory=dict)
    why: str = ""

    def prepare(self, seed: int) -> Tuple[CSRGraph, AlgorithmSpec, int]:
        """The seeded graph and spec; returns ``(graph, spec, root)``."""
        weighted = self.algorithm == "sssp"
        graph = datasets.load_dataset(
            self.dataset,
            scale=self.scale,
            weighted=weighted,
            seed_offset=seed,
        )
        root = 0
        if self.algorithm == "sssp":
            root = int(np.argmax(graph.out_degrees()))
            spec = get_algorithm(self.algorithm, graph, root=root)
        else:
            spec = get_algorithm(self.algorithm, graph)
        return graph, spec, root

    def build(self, graph: CSRGraph, spec: AlgorithmSpec):
        """The engine, built through the public registry."""
        return core.build_engine(self.engine, (graph, spec), dict(self.options))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pagerank-wg",
            "WG",
            0.125,
            "pagerank",
            "functional",
            why="functional pagerank on WG@0.125: additive float, "
            "apply- and coalescing-heavy; eager coalescing and "
            "vectorised apply target it",
        ),
        Workload(
            "sssp-tw",
            "TW",
            0.25,
            "sssp",
            "functional",
            why="functional SSSP on weighted TW@0.25 from the top "
            "out-degree vertex: exact min, edge-scan-heavy, graph "
            "generation a visible share of set-up",
        ),
        Workload(
            "pagerank-sliced",
            "WG",
            0.1,
            "pagerank",
            "sliced",
            {"num_slices": 4, "dispatch": "barrier"},
            why="sliced pagerank, 4 slices, barrier dispatch, WG@0.1: "
            "the slicing and spill layers, ~5x functional's events",
        ),
        Workload(
            "cycle-pagerank",
            "WG",
            0.15,
            "pagerank",
            "cycle",
            why="cycle-level accelerator pagerank on WG@0.15: the only "
            "workload that runs the memory, network and sim layers",
        ),
    )
}


def work_counts(result) -> Dict[str, int]:
    """The deterministic end-to-end work counts of one run.

    ``offchip_bytes`` is the engine's modelled off-chip traffic: the
    traffic counters' fetched bytes for ``functional``, plus the spill
    buffer's written and read-back bytes for ``sliced`` (the spill lives
    in DRAM), and the DRAM model's bytes for ``cycle``.  The cycle model
    scans one out-edge per generate cycle, so its ``edges_scanned`` is
    the generate-stage cycle total.
    """
    raw = result.raw
    if result.engine == "cycle":
        edges = raw.stage_profile.generate
        offchip = raw.offchip_bytes
    else:
        edges = raw.traffic.edge_reads
        offchip = raw.traffic.total_bytes_fetched
        if result.engine == "sliced":
            offchip += raw.total_spill_bytes
    return {
        "events_processed": int(result.stats["events_processed"]),
        "edges_scanned": int(edges),
        "offchip_bytes": int(offchip),
    }


@dataclass
class Check:
    ok: bool
    max_abs_err: float
    reason: str = ""


def check_values(
    workload: Workload,
    graph: CSRGraph,
    spec: AlgorithmSpec,
    root: int,
    values: np.ndarray,
    converged: bool,
) -> Check:
    """Compare a run's values with the golden reference.

    Exact-reduce algorithms (SSSP's min) must match bit for bit,
    unreachable vertices included; additive ones must be within
    ``spec.comparison_tolerance`` on every finite reference entry and
    equal on the rest.  The run must also report ``converged``.
    """
    reference = reference_for(workload.algorithm, graph, root=root)
    finite = np.isfinite(reference)
    err = (
        float(np.max(np.abs(values[finite] - reference[finite])))
        if finite.any()
        else 0.0
    )
    if not converged:
        return Check(False, err, "run did not converge")
    if not np.array_equal(values[~finite], reference[~finite]):
        return Check(False, err, "non-finite reference entries differ")
    tolerance = spec.comparison_tolerance if spec.additive else 0.0
    if not err <= tolerance:
        return Check(
            False, err, f"max |value - reference| {err:.3g} > {tolerance:g}"
        )
    return Check(True, err)
