"""Adsorption: label-propagation random-walk algorithm (Table II).

Table II row ``Adsorption``:

    propagate(delta) = alpha_i * E_ij * delta
    reduce           = +
    V_init           = 0
    DeltaV_init      = beta_j * I_j

where ``alpha_i`` is the continuation probability, ``beta_j`` the
injection probability and ``I_j`` the injected label mass of vertex j.
The fixed point solves   v = B + A^T v   with A_ij = alpha * E_ij,
which converges when the inbound weights of every vertex sum to at most
one — the paper "normalized the inbound weights for each vertex", and
:func:`normalize_inbound_weights` reproduces that preprocessing step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = [
    "make_adsorption",
    "normalize_inbound_weights",
    "injection_values",
    "DEFAULT_CONTINUE_PROB",
    "DEFAULT_INJECTION_PROB",
    "DEFAULT_THRESHOLD",
]

DEFAULT_CONTINUE_PROB = 0.85
DEFAULT_INJECTION_PROB = 0.15
DEFAULT_THRESHOLD = 1e-8


def normalize_inbound_weights(graph: CSRGraph) -> CSRGraph:
    """Scale edge weights so each vertex's *incoming* weights sum to 1.

    Vertices with no incoming edges are untouched.  This is the paper's
    Adsorption preprocessing and guarantees convergence for any
    continuation probability < 1.
    """
    if graph.weights is None:
        graph = graph.with_unit_weights()
    in_weight = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(in_weight, graph.adjacency, graph.weights)
    scale = np.ones(graph.num_vertices, dtype=np.float64)
    nonzero = in_weight > 0
    scale[nonzero] = 1.0 / in_weight[nonzero]
    return graph.with_weights(graph.weights * scale[graph.adjacency])


def injection_values(graph: CSRGraph, *, seed: int = 7) -> np.ndarray:
    """Deterministic per-vertex injected label mass ``I_j`` in [0, 1)."""
    rng = np.random.default_rng(seed)
    return rng.random(graph.num_vertices)


@register_algorithm("adsorption")
def make_adsorption(
    graph: Optional[CSRGraph] = None,
    *,
    continue_prob: float = DEFAULT_CONTINUE_PROB,
    injection_prob: float = DEFAULT_INJECTION_PROB,
    injection: Optional[np.ndarray] = None,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 7,
) -> AlgorithmSpec:
    """Build the Adsorption spec.

    ``injection`` defaults to :func:`injection_values` of the graph; the
    graph is required in that case so per-vertex ``I_j`` can be drawn.
    The graph's weights must already be inbound-normalized (or small
    enough) for convergence; use :func:`normalize_inbound_weights`.
    """
    if not 0.0 < continue_prob < 1.0:
        raise ValueError("continue_prob must be in (0, 1)")
    if injection is None:
        if graph is None:
            raise ValueError("adsorption needs a graph or explicit injection")
        injection = injection_values(graph, seed=seed)
    injection = np.asarray(injection, dtype=np.float64)

    def reduce_fn(state: float, delta: float) -> float:
        return state + delta

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return continue_prob * weight * delta

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return continue_prob * weights * deltas

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return injection_prob * float(injection[vertex])

    def should_propagate(change: float) -> bool:
        return abs(change) > threshold

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # quiescent fixed point: v = beta*I + alpha * W^T v (inbound-
        # normalized weights), recomputed push-style over all edges
        target = injection_prob * injection[: g.num_vertices].astype(np.float64)
        sources = g.edge_sources()
        weights = (
            g.weights
            if g.weights is not None
            else np.ones(g.num_edges, dtype=np.float64)
        )
        np.add.at(
            target, g.adjacency, continue_prob * weights * state[sources]
        )
        return target

    return AlgorithmSpec(
        name="adsorption",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=0.0,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=True,
        additive=True,
        comparison_tolerance=max(threshold * 1e4, 1e-5),
        local_target=local_target,
        # sub-threshold unpropagated tails per in-edge at quiescence
        residual_tolerance=4.0 * continue_prob * threshold,
        propagate_array=propagate_array,
        reduce_ufunc=np.add,
        description="Adsorption label propagation (weighted random walk)",
    )
