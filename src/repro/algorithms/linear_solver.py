"""Delta-accumulative linear-equation solving (paper Section II-B).

The paper notes that "a wide class of graph algorithms — PageRank, SSSP,
Connected Components, Adsorption, and many Linear Equation Solvers —
satisfy" the delta-accumulative properties.  This module provides that
last class: solving ``x = c + W^T x`` (equivalently ``A x = b`` after
Jacobi preconditioning) by propagating deltas over the dependency graph.

Mapping onto the event model:

    propagate(delta) = W_ij * delta      (the coefficient on edge i->j)
    reduce           = +
    V_init           = 0
    DeltaV_init      = c_j

which converges to the unique fixed point whenever the spectral radius
of ``W`` is below one — guaranteed for strictly diagonally dominant
systems, the standard Jacobi condition.  :func:`system_from_matrix`
turns such a dense system into the graph + constants the spec needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph import CSRGraph
from .base import AlgorithmSpec, register_algorithm

__all__ = [
    "make_linear_solver",
    "system_from_matrix",
    "jacobi_reference",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 1e-10


@register_algorithm("linear-solver")
def make_linear_solver(
    graph: Optional[CSRGraph] = None,
    *,
    constants: Optional[np.ndarray] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> AlgorithmSpec:
    """Build a solver spec for ``x = c + W^T x``.

    ``graph`` must carry the coefficients ``W_ij`` as edge weights
    (edge i->j contributes ``W_ij * x_i`` to ``x_j``); ``constants`` is
    the vector ``c``.  Convergence requires the spectral radius of
    ``W`` below 1 (use :func:`system_from_matrix` for an ``A x = b``
    system, which guarantees this for diagonally dominant ``A``).
    """
    if graph is None or constants is None:
        raise ValueError("linear solver needs a weighted graph and constants")
    if graph.weights is None:
        raise ValueError("coefficient graph must carry edge weights")
    constants = np.asarray(constants, dtype=np.float64)
    if len(constants) != graph.num_vertices:
        raise ValueError("constants length must equal num_vertices")

    def reduce_fn(state: float, delta: float) -> float:
        return state + delta

    def propagate_fn(
        delta: float, src: int, dst: int, weight: float, out_degree: int
    ) -> float:
        return weight * delta

    def propagate_array(deltas, srcs, dsts, weights, degrees):
        return weights * deltas

    def initial_delta(vertex: int, g: CSRGraph) -> float:
        return float(constants[vertex])

    def should_propagate(change: float) -> bool:
        return abs(change) > threshold

    return AlgorithmSpec(
        name="linear-solver",
        reduce=reduce_fn,
        propagate=propagate_fn,
        identity=0.0,
        initial_delta=initial_delta,
        should_propagate=should_propagate,
        uses_weights=True,
        additive=True,
        comparison_tolerance=max(threshold * 1e4, 1e-6),
        propagate_array=propagate_array,
        reduce_ufunc=np.add,
        description="asynchronous Jacobi solver for x = c + W^T x",
    )


def system_from_matrix(
    matrix: np.ndarray,
    rhs: np.ndarray,
    *,
    name: str = "linear-system",
) -> Tuple[CSRGraph, np.ndarray]:
    """Convert a strictly diagonally dominant ``A x = b`` into the
    (graph, constants) pair the solver spec consumes.

    Jacobi splitting: ``x_j = b_j / A_jj - sum_{i != j} (A_ji / A_jj) x_i``,
    so the dependency edge ``i -> j`` carries ``-A_ji / A_jj`` and the
    constant vector is ``b / diag(A)``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if rhs.shape != (n,):
        raise ValueError("rhs length must match the matrix")
    diagonal = np.diag(matrix)
    if np.any(diagonal == 0):
        raise ValueError("matrix needs a non-zero diagonal")
    off_diag_sums = np.sum(np.abs(matrix), axis=1) - np.abs(diagonal)
    if np.any(off_diag_sums >= np.abs(diagonal)):
        raise ValueError(
            "matrix must be strictly diagonally dominant for convergence"
        )

    edges = []
    weights = []
    for j in range(n):
        for i in range(n):
            if i != j and matrix[j, i] != 0.0:
                # x_i feeds x_j with coefficient -A_ji / A_jj
                edges.append((i, j))
                weights.append(-matrix[j, i] / diagonal[j])
    graph = CSRGraph.from_edges(n, edges, weights=weights, name=name)
    return graph, rhs / diagonal


def jacobi_reference(
    matrix: np.ndarray,
    rhs: np.ndarray,
    *,
    tolerance: float = 1e-13,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Golden oracle: classical synchronous Jacobi iteration."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    diagonal = np.diag(matrix)
    remainder = matrix - np.diag(diagonal)
    x = np.zeros_like(rhs)
    for _ in range(max_iterations):
        new_x = (rhs - remainder @ x) / diagonal
        if np.max(np.abs(new_x - x)) < tolerance:
            return new_x
        x = new_x
    return x
