"""Graph slicing for large-graph execution (paper Section IV-F).

GraphPulse handles graphs whose vertex set exceeds the coalescing queue's
capacity by partitioning them into *slices* that each fit on chip.  The
paper assumes offline partitioning that "limits the maximum number of
vertices in each slice while minimizing edges that cross slice
boundaries" and relabels vertices "to make them contiguous within each
slice".

Two partitioners are provided:

- :func:`contiguous_partition` — split the (already laid out) vertex range
  into equal contiguous chunks.  Cheap, and the natural choice when the
  graph generator already clusters communities in id space.
- :func:`greedy_edge_cut_partition` — a lightweight LDG-style streaming
  heuristic that assigns each vertex to the slice holding most of its
  already-placed neighbours, subject to a capacity bound.  This is the
  stand-in for the offline METIS/PuLP partitioners the paper cites.

The result is a :class:`Partition` carrying per-slice subgraphs with
*local* contiguous ids plus the translation tables the slicing runtime
needs to route inter-slice events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "GraphSlice",
    "Partition",
    "contiguous_partition",
    "greedy_edge_cut_partition",
]


@dataclass
class GraphSlice:
    """One slice of a partitioned graph.

    ``subgraph`` holds only the *internal* edges (both endpoints in the
    slice) with vertices renumbered to ``[0, len(vertices))``.  Edges
    leaving the slice are listed in ``boundary_edges`` as
    ``(local_src, global_dst, weight)`` triples; the slicing runtime
    turns these into spilled inter-slice events.
    """

    index: int
    vertices: np.ndarray  # global ids owned by this slice, ascending
    subgraph: CSRGraph
    boundary_sources: np.ndarray  # local source vertex per boundary edge
    boundary_targets: np.ndarray  # global destination per boundary edge
    boundary_weights: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_internal_edges(self) -> int:
        return self.subgraph.num_edges

    @property
    def num_boundary_edges(self) -> int:
        return len(self.boundary_targets)


@dataclass
class Partition:
    """A full partitioning of a graph into slices."""

    graph: CSRGraph
    slices: List[GraphSlice]
    slice_of_vertex: np.ndarray  # global vertex -> slice index
    local_id_of_vertex: np.ndarray  # global vertex -> local id in its slice

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def cut_edges(self) -> int:
        """Total number of edges crossing slice boundaries."""
        return sum(s.num_boundary_edges for s in self.slices)

    def cut_fraction(self) -> float:
        """Fraction of all edges that cross slices (partition quality)."""
        if self.graph.num_edges == 0:
            return 0.0
        return self.cut_edges / self.graph.num_edges

    def locate(self, global_vertex: int) -> Tuple[int, int]:
        """Map a global vertex id to ``(slice_index, local_id)``."""
        return (
            int(self.slice_of_vertex[global_vertex]),
            int(self.local_id_of_vertex[global_vertex]),
        )


def _build_partition(graph: CSRGraph, assignment: np.ndarray) -> Partition:
    """Materialize slices from a vertex → slice assignment vector."""
    num_slices = int(assignment.max()) + 1 if assignment.size else 0
    local_ids = np.zeros(graph.num_vertices, dtype=np.int64)

    # Group the edges by source slice; a stable sort keeps each group in
    # CSR order, which is the order the slice's members list their edges.
    sources = graph.edge_sources()
    targets = graph.adjacency
    weights = graph.weights
    if weights is None:
        weights = np.ones(graph.num_edges, dtype=np.float64)
    source_slice = assignment[sources]
    internal = source_slice == assignment[targets]
    by_slice = np.argsort(source_slice, kind="stable")
    bounds = np.zeros(num_slices + 1, dtype=np.int64)
    np.cumsum(np.bincount(source_slice, minlength=num_slices), out=bounds[1:])

    slices: List[GraphSlice] = []
    for s in range(num_slices):
        members = np.flatnonzero(assignment == s)
        local_ids[members] = np.arange(len(members))
        edges = by_slice[bounds[s]: bounds[s + 1]]
        inside = internal[edges]
        own = edges[inside]
        out = edges[~inside]
        sub = CSRGraph.from_edges(
            len(members),
            np.stack([local_ids[sources[own]], local_ids[targets[own]]], axis=1),
            weights=weights[own] if graph.is_weighted else None,
            name=f"{graph.name}/slice{s}",
        )
        slices.append(
            GraphSlice(
                index=s,
                vertices=members,
                subgraph=sub,
                boundary_sources=local_ids[sources[out]],
                boundary_targets=targets[out],
                boundary_weights=weights[out],
            )
        )
    return Partition(
        graph=graph,
        slices=slices,
        slice_of_vertex=assignment,
        local_id_of_vertex=local_ids,
    )


def contiguous_partition(graph: CSRGraph, num_slices: int) -> Partition:
    """Split the vertex range into ``num_slices`` contiguous chunks."""
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    if num_slices > max(1, graph.num_vertices):
        raise ValueError("more slices than vertices")
    bounds = np.linspace(0, graph.num_vertices, num_slices + 1).astype(np.int64)
    assignment = np.zeros(graph.num_vertices, dtype=np.int64)
    for s in range(num_slices):
        assignment[bounds[s]: bounds[s + 1]] = s
    return _build_partition(graph, assignment)


def greedy_edge_cut_partition(
    graph: CSRGraph,
    num_slices: int,
    *,
    balance_slack: float = 0.05,
) -> Partition:
    """Streaming LDG-style partitioner minimizing cut edges.

    Vertices are visited in id order; each is placed in the slice that
    already holds the most of its (in+out) neighbours, discounted by a
    linear penalty as a slice approaches its capacity
    ``ceil(n / num_slices) * (1 + balance_slack)``.
    """
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    n = graph.num_vertices
    if num_slices > max(1, n):
        raise ValueError("more slices than vertices")
    capacity = int(np.ceil(n / num_slices) * (1.0 + balance_slack))
    capacity = max(capacity, 1)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_slices, dtype=np.int64)
    reverse = graph.reverse()

    for v in range(n):
        placed = assignment[
            np.concatenate((graph.neighbors(v), reverse.neighbors(v)))
        ]
        scores = np.bincount(
            placed[placed >= 0], minlength=num_slices
        ).astype(np.float64)
        penalty = 1.0 - sizes / capacity
        scores = (scores + 1e-9) * np.maximum(penalty, 0.0)
        full = sizes >= capacity
        scores[full] = -1.0
        target = int(np.argmax(scores))
        assignment[v] = target
        sizes[target] += 1
    return _build_partition(graph, assignment)
