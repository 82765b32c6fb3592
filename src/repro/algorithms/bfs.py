"""Breadth-First Search in delta-accumulative form.

Table II lists BFS with ``reduce = min``, ``V_init = inf`` and a root
delta of 0.  We provide two variants:

- :func:`make_bfs` — *level* BFS, the conventional delta-accumulative
  formulation (``propagate = delta + 1``), whose fixed point is the hop
  distance from the root.  This matches the behaviour the paper
  describes (vertices activated frontier by frontier, reactivation when
  a shorter hop count arrives) and is what the benchmarks run.
- :func:`make_bfs_reachability` — the literal Table II row
  (``propagate(delta) = 0``): every vertex reachable from the root ends
  with value 0, everything else stays at infinity.  Kept for fidelity
  and exercised by the tests.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = ["make_bfs", "make_bfs_reachability", "INFINITY"]

INFINITY = math.inf


@register_algorithm("bfs")
def make_bfs(
    graph: Optional[CSRGraph] = None,
    *,
    root: int = 0,
) -> AlgorithmSpec:
    """Level-BFS: vertex value converges to hop distance from ``root``."""
    if root < 0:
        raise ValueError("root must be a valid vertex id")

    def reduce_fn(state: float, delta: float) -> float:
        return min(state, delta)

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return delta + 1.0

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return deltas + 1.0

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return 0.0 if vertex == root else INFINITY

    def should_propagate(change: float) -> bool:
        return True

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # quiescent levels satisfy level(v) = min(init(v), 1 + min of
        # in-neighbour levels)
        target = np.full(g.num_vertices, INFINITY, dtype=np.float64)
        if root < g.num_vertices:
            target[root] = 0.0
        sources = g.edge_sources()
        np.minimum.at(target, g.adjacency, state[sources] + 1.0)
        return target

    return AlgorithmSpec(
        name="bfs",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=INFINITY,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=False,
        additive=False,
        comparison_tolerance=0.0,
        local_target=local_target,
        propagate_array=propagate_array,
        reduce_ufunc=np.minimum,
        description=f"Breadth-first search levels from vertex {root}",
    )


@register_algorithm("bfs-reachability")
def make_bfs_reachability(
    graph: Optional[CSRGraph] = None,
    *,
    root: int = 0,
) -> AlgorithmSpec:
    """Literal Table II BFS: marks vertices reachable from ``root`` with 0."""
    if root < 0:
        raise ValueError("root must be a valid vertex id")

    def reduce_fn(state: float, delta: float) -> float:
        return min(state, delta)

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return 0.0

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return np.zeros_like(deltas)

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return 0.0 if vertex == root else INFINITY

    def should_propagate(change: float) -> bool:
        return True

    def local_target(g: CSRGraph, state: np.ndarray) -> np.ndarray:
        # a vertex is reachable (0) iff it is the root or any
        # in-neighbour is reachable
        target = np.full(g.num_vertices, INFINITY, dtype=np.float64)
        if root < g.num_vertices:
            target[root] = 0.0
        sources = g.edge_sources()
        reached = np.where(np.isfinite(state[sources]), 0.0, INFINITY)
        np.minimum.at(target, g.adjacency, reached)
        return target

    return AlgorithmSpec(
        name="bfs-reachability",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=INFINITY,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=False,
        additive=False,
        comparison_tolerance=0.0,
        local_target=local_target,
        propagate_array=propagate_array,
        reduce_ufunc=np.minimum,
        description=f"Reachability from vertex {root} (Table II literal BFS)",
    )
