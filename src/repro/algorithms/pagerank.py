"""PageRank-Delta: incremental, delta-accumulative PageRank.

Table II row ``PR-Delta``:

    propagate(delta) = alpha * E_ij * delta / N(src)
    reduce           = +
    V_init           = 0
    DeltaV_init      = 1 - alpha

The fixed point is the *unnormalized* PageRank used by Ligra's
PageRankDelta and by Maiter:

    rank(j) = (1 - alpha) + alpha * sum_{i -> j} rank(i) / out_degree(i)

Local termination (Algorithm 1 line 8): a vertex stops propagating when
the magnitude of its accumulated change falls below ``threshold``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = ["make_pagerank_delta", "DEFAULT_ALPHA", "DEFAULT_THRESHOLD"]

DEFAULT_ALPHA = 0.85
DEFAULT_THRESHOLD = 1e-8


@register_algorithm("pagerank")
def make_pagerank_delta(
    graph: Optional[CSRGraph] = None,
    *,
    alpha: float = DEFAULT_ALPHA,
    threshold: float = DEFAULT_THRESHOLD,
) -> AlgorithmSpec:
    """Build the PR-Delta spec.

    The graph argument is accepted for registry uniformity; PR-Delta
    reads the source out-degree through the propagate signature, so the
    spec itself is graph independent.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")

    def reduce_fn(state: float, delta: float) -> float:
        return state + delta

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        # out_degree > 0 is guaranteed: propagate is only invoked per
        # existing out-edge of src.
        return alpha * delta / out_degree

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return alpha * deltas / degrees

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return 1.0 - alpha

    def should_propagate(change: float) -> bool:
        return abs(change) > threshold

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # the quiescent fixed point, recomputed push-style: every vertex
        # holds its initial delta plus alpha/outdeg of each in-neighbour
        out_degree = g.out_degrees()
        sources = g.edge_sources()
        contribution = alpha * state[sources] / out_degree[sources]
        target = np.full(g.num_vertices, 1.0 - alpha, dtype=np.float64)
        np.add.at(target, g.adjacency, contribution)
        return target

    return AlgorithmSpec(
        name="pagerank",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=0.0,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=False,
        additive=True,
        comparison_tolerance=max(threshold * 1e4, 1e-5),
        local_target=local_target,
        # each in-edge may carry a few sub-threshold unpropagated tails
        # at quiescence; 4x covers the geometric decay in practice
        residual_tolerance=4.0 * alpha * threshold,
        propagate_array=propagate_array,
        reduce_ufunc=np.add,
        description="PageRank-Delta (contribution-based incremental PageRank)",
    )
