"""Connected Components via max-label propagation (Table II).

Table II row ``Conn. Comp.``:

    propagate(delta) = delta
    reduce           = max
    V_init           = -1
    DeltaV_init      = j   (each vertex injects its own id)

At the fixed point every vertex holds the maximum vertex id in its
component.  Components are defined over *undirected* connectivity, so —
as in Ligra/Graphicionado evaluations — the graph must be symmetrized
first; :func:`symmetrize` provides that preprocessing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = ["make_connected_components", "symmetrize"]


def symmetrize(graph: CSRGraph) -> CSRGraph:
    """Return the graph with every edge mirrored (weights preserved).

    Duplicate edges introduced by mirroring are kept — they do not change
    the fixed point of label propagation and preserve CSR determinism.
    """
    sources = graph.edge_sources()
    forward = np.stack([sources, graph.adjacency], axis=1)
    backward = np.stack([graph.adjacency, sources], axis=1)
    edges = np.concatenate([forward, backward], axis=0)
    weights = None
    if graph.weights is not None:
        weights = np.concatenate([graph.weights, graph.weights]).tolist()
    return CSRGraph.from_edges(
        graph.num_vertices, edges, weights=weights, name=f"{graph.name}+sym"
    )


@register_algorithm("cc")
def make_connected_components(
    graph: Optional[CSRGraph] = None,
) -> AlgorithmSpec:
    """Build the Connected Components spec (max-label propagation)."""

    def reduce_fn(state: float, delta: float) -> float:
        return max(state, delta)

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return delta

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return deltas

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return float(vertex)

    def should_propagate(change: float) -> bool:
        return True

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # quiescent labels satisfy label(v) = max(v, max of in-neighbour
        # labels); on a symmetrized graph that is the component maximum
        target = np.arange(g.num_vertices, dtype=np.float64)
        sources = g.edge_sources()
        np.maximum.at(target, g.adjacency, state[sources])
        return target

    return AlgorithmSpec(
        name="cc",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=-1.0,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=False,
        additive=False,
        comparison_tolerance=0.0,
        local_target=local_target,
        propagate_array=propagate_array,
        reduce_ufunc=np.maximum,
        description="Connected components via max-label propagation",
    )
