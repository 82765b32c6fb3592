"""Single-Source Shortest Paths in delta-accumulative form (Table II).

Table II row ``SSSP``:

    propagate(delta) = E_ij + delta
    reduce           = min
    V_init           = +inf
    DeltaV_init      = 0 for the root, +inf otherwise

``min`` is commutative/associative with identity ``+inf``, so events
coalesce by keeping the shortest tentative distance.  A vertex propagates
whenever its distance improves (monotonic algorithms have no magnitude
threshold).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = ["make_sssp", "INFINITY"]

INFINITY = math.inf


@register_algorithm("sssp")
def make_sssp(
    graph: Optional[CSRGraph] = None,
    *,
    root: int = 0,
) -> AlgorithmSpec:
    """Build the SSSP spec rooted at ``root``.

    The graph should carry non-negative edge weights; unweighted graphs
    fall back to unit weights through ``CSRGraph.edge_weights``.
    """
    if root < 0:
        raise ValueError("root must be a valid vertex id")

    def reduce_fn(state: float, delta: float) -> float:
        return min(state, delta)

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return weight + delta

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return weights + deltas

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return 0.0 if vertex == root else INFINITY

    def should_propagate(change: float) -> bool:
        return True

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # quiescent distances satisfy the Bellman condition:
        # d(v) = min(init(v), min over u->v of d(u) + w(u,v))
        target = np.full(g.num_vertices, INFINITY, dtype=np.float64)
        if root < g.num_vertices:
            target[root] = 0.0
        sources = g.edge_sources()
        weights = (
            g.weights
            if g.weights is not None
            else np.ones(g.num_edges, dtype=np.float64)
        )
        np.minimum.at(target, g.adjacency, state[sources] + weights)
        return target

    return AlgorithmSpec(
        name="sssp",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=INFINITY,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=True,
        additive=False,
        comparison_tolerance=1e-9,
        local_target=local_target,
        propagate_array=propagate_array,
        reduce_ufunc=np.minimum,
        description=f"Single-source shortest paths from vertex {root}",
    )
