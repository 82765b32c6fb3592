"""Bulk-synchronous (iteration-barrier) execution of delta algorithms.

This is the conventional execution model GraphPulse is compared against
(Section II): per iteration, all pending contributions are applied to
vertex states, changes are computed, and new contributions are scattered
to neighbours; a global barrier separates iterations.  Both software
baselines (Ligra) and the Graphicionado accelerator model run on top of
this engine — they differ only in how each iteration's operations are
*timed*, which the ``on_iteration`` hook exposes.

The fixed point is identical to the asynchronous engines' (the reorder
property guarantees it), which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..core.event import Event
from ..errors import NonConvergenceError
from ..graph import CSRGraph
from ..obs import probe
from ..obs import trace as obs_trace
from ..resilience.watchdog import build_diagnostic

__all__ = ["SynchronousDeltaEngine", "BSPIteration", "BSPResult"]


@dataclass
class BSPIteration:
    """What happened in one BSP superstep (input to timing models)."""

    index: int
    #: vertices whose state changed and which scatter this iteration
    active_vertices: np.ndarray
    #: per-active-vertex change values (aligned with active_vertices)
    changes: np.ndarray
    #: total out-edges scanned while scattering
    edges_scanned: int
    #: vertices that received at least one contribution
    touched_vertices: int


@dataclass
class BSPResult:
    values: np.ndarray
    iterations: List[BSPIteration]
    converged: bool

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_edges_scanned(self) -> int:
        return sum(it.edges_scanned for it in self.iterations)


class _PendingView:
    """The pending contributions shaped as a one-bin queue, for the
    abort diagnostic (:func:`repro.resilience.watchdog.build_diagnostic`)."""

    num_bins = 1

    def __init__(self, pending: np.ndarray, has_pending: np.ndarray):
        self._vertices = np.flatnonzero(has_pending)
        self._deltas = pending[self._vertices]

    @property
    def occupancy(self) -> int:
        return len(self._vertices)

    def peek_bin(self, index: int) -> List[Event]:
        return [
            Event(vertex, delta)
            for vertex, delta in zip(
                self._vertices.tolist(), self._deltas.tolist()
            )
        ]


class SynchronousDeltaEngine:
    """Executes an :class:`AlgorithmSpec` under the BSP model."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: AlgorithmSpec,
        *,
        max_iterations: int = 100_000,
    ):
        self.graph = graph
        self.spec = spec
        self.max_iterations = max_iterations

    def run(
        self,
        on_iteration: Optional[Callable[[BSPIteration], None]] = None,
    ) -> BSPResult:
        graph, spec = self.graph, self.spec
        n = graph.num_vertices
        state = spec.initial_state(graph)
        identity = spec.identity

        pending = np.full(n, identity, dtype=np.float64)
        has_pending = np.zeros(n, dtype=bool)
        for vertex, delta in spec.initial_events(graph).items():
            pending[vertex] = delta
            has_pending[vertex] = True

        iterations: List[BSPIteration] = []
        converged = False
        for index in range(self.max_iterations):
            if not has_pending.any():
                converged = True
                break
            iteration = self._superstep(index, state, pending, has_pending)
            iterations.append(iteration)
            if obs_trace.ACTIVE is not None:
                # Round-level telemetry in the shared cross-engine schema;
                # the BSP time domain is the superstep index.
                probe.round_span(
                    "bsp",
                    index,
                    float(index),
                    float(index + 1),
                    events_processed=len(iteration.active_vertices),
                    events_produced=iteration.touched_vertices,
                    edges_scanned=iteration.edges_scanned,
                )
            if on_iteration is not None:
                on_iteration(iteration)
        else:  # guards runaway configurations
            raise NonConvergenceError(
                f"{spec.name} did not converge within {self.max_iterations} "
                "BSP iterations",
                build_diagnostic(
                    "bsp",
                    "round-limit",
                    self.max_iterations,
                    _PendingView(pending, has_pending),
                ),
            )
        if not has_pending.any():
            converged = True
        return BSPResult(values=state, iterations=iterations, converged=converged)

    # ------------------------------------------------------------------
    def _superstep(
        self,
        index: int,
        state: np.ndarray,
        pending: np.ndarray,
        has_pending: np.ndarray,
    ) -> BSPIteration:
        graph, spec = self.graph, self.spec
        identity = spec.identity

        # Apply phase: fold pending contributions into vertex states.
        candidates = np.flatnonzero(has_pending)
        active: List[int] = []
        changes: List[float] = []
        for v in candidates.tolist():
            result = spec.apply(float(state[v]), float(pending[v]))
            pending[v] = identity
            has_pending[v] = False
            if not result.changed:
                continue
            state[v] = result.state
            if spec.should_propagate(result.change):
                active.append(v)
                changes.append(result.change)

        # Scatter phase: push changes along out-edges into next pending.
        edges_scanned = 0
        touched = 0
        for v, change in zip(active, changes):
            degree = graph.out_degree(v)
            if degree == 0:
                continue
            edges_scanned += degree
            neighbors = graph.neighbors(v)
            weights = graph.edge_weights(v) if spec.uses_weights else None
            for k in range(degree):
                dst = int(neighbors[k])
                weight = float(weights[k]) if weights is not None else 1.0
                delta = spec.propagate(change, v, dst, weight, degree)
                if delta == identity:
                    continue
                if has_pending[dst]:
                    pending[dst] = spec.reduce(float(pending[dst]), delta)
                else:
                    pending[dst] = delta
                    has_pending[dst] = True
                    touched += 1

        return BSPIteration(
            index=index,
            active_vertices=np.array(active, dtype=np.int64),
            changes=np.array(changes, dtype=np.float64),
            edges_scanned=edges_scanned,
            touched_vertices=touched,
        )
