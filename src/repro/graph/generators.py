"""Synthetic graph generators.

The paper evaluates on five real-world graphs (Table IV).  Those datasets
are not redistributable inside this offline reproduction, so the
benchmarks substitute synthetic graphs whose *shape* matches: power-law
degree distributions via R-MAT/Kronecker for the social/web graphs, plus
a few regular topologies used by the unit tests (chains, grids, stars).

All generators are deterministic given a seed and return `CSRGraph`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "rmat_graph",
    "erdos_renyi_graph",
    "small_world_graph",
    "chain_graph",
    "cycle_graph",
    "grid_graph",
    "star_graph",
    "complete_graph",
    "binary_tree_graph",
    "random_weights",
]


def _distinct_edges(
    num_vertices: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Distinct ``(src, dst)`` pairs without self loops, in CSR order.

    One sort of ``src * num_vertices + dst`` both orders and exposes the
    duplicates as equal neighbours, so the ``(E, 2)`` result is already
    what ``from_edges`` would sort it into.  (``np.unique`` gives the
    same keys, but numpy 2.3+ routes it through a hash table that costs
    tens of times the sort.)
    """
    keep = src != dst
    keys = np.sort(src[keep] * num_vertices + dst[keep])
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.stack(np.divmod(keys[first], num_vertices), axis=1)


def rmat_graph(
    num_vertices: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: str = "rmat",
    permute: bool = True,
) -> CSRGraph:
    """Generate an R-MAT (recursive matrix) power-law graph.

    The default ``(a, b, c)`` parameters are the Graph500 values, which
    produce degree skew comparable to social networks like LiveJournal —
    the skew is what drives GraphPulse's coalescing benefit, so this is
    the key stand-in generator for Table IV's workloads.

    ``num_vertices`` is rounded up to the next power of two internally;
    vertices beyond the requested count are folded back by modulo so the
    returned graph has exactly ``num_vertices`` vertices.
    """
    if num_vertices <= 1:
        raise ValueError("rmat_graph needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(num_vertices)))
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must be <= 1")

    # Level by level, from the top bit down, each edge falls into the
    # quadrant numbered by how many cumulative thresholds lie below its
    # draw (as ``searchsorted`` counts them, so 4 if rounding leaves the
    # last threshold under a draw).  Quadrants 2 and up set the source
    # bit; odd quadrants, the parity of the four threshold tests, set the
    # destination bit.  The level draws and then the permutation keep
    # this fixed order, which makes every dataset proxy reproducible
    # from its seed.
    cumulative = np.cumsum(np.array([a, b, c, d]))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    draws = np.empty(num_edges, dtype=np.float64)
    above = np.empty(num_edges, dtype=bool)
    odd = np.empty(num_edges, dtype=bool)
    for _ in range(scale):
        rng.random(out=draws)
        np.greater(draws, cumulative[0], out=odd)
        np.greater(draws, cumulative[1], out=above)
        src <<= 1
        src |= above
        odd ^= above
        np.greater(draws, cumulative[2], out=above)
        odd ^= above
        np.greater(draws, cumulative[3], out=above)
        odd ^= above
        dst <<= 1
        dst |= odd

    src %= num_vertices
    dst %= num_vertices
    if permute:
        # Relabel so high-degree vertices are not clustered at low ids.
        # A permutation is a bijection, so permuting before deduplication
        # yields the same edge set as permuting after it.
        perm = rng.permutation(num_vertices)
        src = perm[src]
        dst = perm[dst]
    edge_array = _distinct_edges(num_vertices, src, dst)
    return CSRGraph.from_edges(num_vertices, edge_array, name=name)


def erdos_renyi_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> CSRGraph:
    """Uniform random directed graph with ~``num_edges`` distinct edges."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    edge_array = _distinct_edges(num_vertices, src, dst)
    return CSRGraph.from_edges(num_vertices, edge_array, name=name)


def small_world_graph(
    num_vertices: int,
    neighbors: int = 4,
    rewire_prob: float = 0.1,
    *,
    seed: int = 0,
    name: str = "small-world",
) -> CSRGraph:
    """Watts–Strogatz-style ring lattice with random rewiring (directed)."""
    rng = np.random.default_rng(seed)
    sources = []
    targets = []
    for v in range(num_vertices):
        for k in range(1, neighbors + 1):
            target = (v + k) % num_vertices
            if rng.random() < rewire_prob:
                target = int(rng.integers(0, num_vertices))
            if target != v:
                sources.append(v)
                targets.append(target)
    edge_array = _distinct_edges(
        num_vertices,
        np.array(sources, dtype=np.int64),
        np.array(targets, dtype=np.int64),
    )
    return CSRGraph.from_edges(num_vertices, edge_array, name=name)


def chain_graph(num_vertices: int, *, name: str = "chain") -> CSRGraph:
    """0 → 1 → 2 → ... → n-1 (worst case for asynchronous lookahead)."""
    edges = [(v, v + 1) for v in range(num_vertices - 1)]
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def cycle_graph(num_vertices: int, *, name: str = "cycle") -> CSRGraph:
    """Directed ring; exercises indefinite propagation / thresholds."""
    edges = [(v, (v + 1) % num_vertices) for v in range(num_vertices)]
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def grid_graph(rows: int, cols: int, *, name: str = "grid") -> CSRGraph:
    """2-D grid with bidirectional edges (mesh workloads, SSSP tests)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
                edges.append((v + 1, v))
            if r + 1 < rows:
                edges.append((v, v + cols))
                edges.append((v + cols, v))
    return CSRGraph.from_edges(rows * cols, edges, name=name)


def star_graph(
    num_leaves: int, *, outward: bool = True, name: str = "star"
) -> CSRGraph:
    """Hub-and-spoke graph; stresses single-vertex event fan-out."""
    if outward:
        edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    else:
        edges = [(leaf, 0) for leaf in range(1, num_leaves + 1)]
    return CSRGraph.from_edges(num_leaves + 1, edges, name=name)


def complete_graph(num_vertices: int, *, name: str = "complete") -> CSRGraph:
    """All-to-all directed graph (no self loops)."""
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def binary_tree_graph(
    depth: int, *, downward: bool = True, name: str = "tree"
) -> CSRGraph:
    """Complete binary tree with edges pointing away from (or to) the root."""
    num_vertices = (1 << depth) - 1
    edges = []
    for v in range(num_vertices):
        for child in (2 * v + 1, 2 * v + 2):
            if child < num_vertices:
                edges.append((v, child) if downward else (child, v))
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def random_weights(
    graph: CSRGraph,
    *,
    low: float = 1.0,
    high: float = 10.0,
    seed: int = 0,
) -> CSRGraph:
    """Attach uniform random weights in ``[low, high)`` to a graph.

    Mirrors the paper's Adsorption setup: "We created randomly weighted
    edges for the graphs".
    """
    rng = np.random.default_rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return graph.with_weights(weights)
