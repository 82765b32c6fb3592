"""Compressed Sparse Row graph storage.

This is the in-memory graph format used by every engine in the
reproduction, mirroring the paper's statement that "the graph is stored in
a Compressed Sparse Row format in memory" (Section IV-E).  Vertex ids are
dense integers in ``[0, num_vertices)``.  Out-edges of vertex ``v`` occupy
``adjacency[offsets[v]:offsets[v + 1]]`` and the matching entries of
``weights`` (when the graph is weighted).

The class also exposes the *byte layout* of the structure (`vertex_bytes`,
`edge_bytes`, address helpers) because the cycle-level simulator issues
memory requests against concrete addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphValidationError

__all__ = ["CSRGraph", "LINE_BYTES"]

#: bytes per line of the simulated memory: the unit in which the event
#: kernel charges vertex and edge fetches
LINE_BYTES = 64


@dataclass
class CSRGraph:
    """A directed graph in Compressed Sparse Row form.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``offsets[0] == 0`` and
        ``offsets[-1] == num_edges``.
    adjacency:
        ``int32``/``int64`` array of destination vertex ids, grouped by
        source vertex.
    weights:
        Optional ``float64`` per-edge weights, same length as
        ``adjacency``.  ``None`` models an unweighted graph.
    name:
        Human-readable label used in benchmark reports.
    """

    offsets: np.ndarray
    adjacency: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "graph"

    #: bytes occupied by one vertex property (double-precision rank etc.)
    vertex_bytes: int = field(default=8, repr=False)
    #: bytes occupied by one edge record (destination id, 4 bytes in the
    #: paper's graphs; weighted graphs carry 4 more for the weight)
    edge_bytes: int = field(default=4, repr=False)

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.adjacency = np.asarray(self.adjacency, dtype=np.int64)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        self._validate()
        self._in_degrees: Optional[np.ndarray] = None
        self._reverse: Optional["CSRGraph"] = None
        #: (record sizes, out-degrees, edge lines), see edge_line_table
        self._edge_lines: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Sequence[float]] = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from ``(src, dst)`` pairs.

        ``edges`` is an ``(E, 2)`` array, used as it is, or any iterable
        of pairs.  Edge order within a vertex's adjacency list follows
        the stable sort of ``(src, dst)``: deterministic across runs
        whatever the input order, with duplicate edges and their weights
        kept in input order.  Already sorted input, which the generators
        produce, sorts in one linear pass.
        """
        if isinstance(edges, np.ndarray):
            edge_array = edges
        else:
            edge_array = np.asarray(list(edges))
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphValidationError("edges must be (src, dst) pairs")
        if edge_array.dtype.kind not in "iub":
            edge_array = _integral_endpoints(edge_array)
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            bad = int(np.flatnonzero(
                (edge_array < 0).any(axis=1)
                | (edge_array >= num_vertices).any(axis=1)
            )[0])
            raise GraphValidationError(
                f"edge endpoint out of range at edge index {bad}: "
                f"{tuple(edge_array[bad].tolist())} with num_vertices="
                f"{num_vertices}",
                index=bad,
            )
        src = edge_array[:, 0].astype(np.int64, copy=False)
        dst = edge_array[:, 1].astype(np.int64, copy=False)

        weight_array = None
        if weights is not None:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape[0] != edge_array.shape[0]:
                raise GraphValidationError(
                    "weights length must match edges length"
                )

        order = np.argsort(src * num_vertices + dst, kind="stable")
        if weight_array is not None:
            weight_array = weight_array[order]
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
        return cls(
            offsets=offsets,
            adjacency=dst[order],
            weights=weight_array,
            name=name,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return int(self.offsets[-1])

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, vertex: int) -> int:
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for every vertex."""
        return np.diff(self.offsets)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for every vertex (cached)."""
        if self._in_degrees is None:
            self._in_degrees = np.bincount(
                self.adjacency, minlength=self.num_vertices
            ).astype(np.int64)
        return self._in_degrees

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of ``vertex``'s out-edges (a CSR slice view)."""
        return self.adjacency[self.offsets[vertex]: self.offsets[vertex + 1]]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s out-edges; ones when unweighted."""
        if self.weights is None:
            return np.ones(self.out_degree(vertex), dtype=np.float64)
        return self.weights[self.offsets[vertex]: self.offsets[vertex + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(src, dst)`` pairs in CSR order."""
        return zip(self.edge_sources().tolist(), self.adjacency.tolist())

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with ``adjacency``."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges), cached.

        Pull-style baselines iterate a vertex's *incoming* neighbours,
        which in CSR terms is the adjacency of the reversed graph.
        """
        if self._reverse is None:
            self._reverse = CSRGraph.from_edges(
                self.num_vertices,
                np.stack([self.adjacency, self.edge_sources()], axis=1),
                weights=self.weights,
                name=f"{self.name}^T",
            )
        return self._reverse

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """A copy of this graph carrying the given per-edge weights."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.num_edges:
            raise ValueError("weights length must equal num_edges")
        return CSRGraph(
            offsets=self.offsets.copy(),
            adjacency=self.adjacency.copy(),
            weights=weights,
            name=self.name,
        )

    def with_unit_weights(self) -> "CSRGraph":
        """A copy with all-ones weights (for SSSP on unweighted inputs)."""
        return self.with_weights(np.ones(self.num_edges, dtype=np.float64))

    # ------------------------------------------------------------------
    # Memory layout (used by the cycle-level simulator)
    # ------------------------------------------------------------------
    def vertex_address(self, vertex: int) -> int:
        """Byte address of a vertex property in the simulated memory.

        Vertex properties live at the base of the simulated address
        space, packed contiguously.
        """
        return vertex * self.vertex_bytes

    def edge_address(self, edge_index: int) -> int:
        """Byte address of an edge record (edges follow the vertices)."""
        return self.edge_region_base + edge_index * self.edge_bytes

    def edge_line_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex ``(out_degrees, edge_lines)`` as read-only arrays.

        ``edge_lines[v]`` counts the :data:`LINE_BYTES` lines that cover
        ``v``'s contiguous CSR edge slice in the simulated memory, 0
        when ``v`` has no out-edge: the lines streaming its out-edges
        fetches.  The layout is fixed before a run, so the table is
        built on first use and cached, like :meth:`in_degrees`; it is
        rebuilt only if a record size changes.
        """
        key = (self.vertex_bytes, self.edge_bytes)
        if self._edge_lines is None or self._edge_lines[0] != key:
            degrees = self.out_degrees()
            first = self.edge_address(self.offsets[:-1]) // LINE_BYTES
            last = (self.edge_address(self.offsets[1:]) - 1) // LINE_BYTES
            lines = np.where(degrees > 0, last - first + 1, 0)
            degrees.flags.writeable = False
            lines.flags.writeable = False
            self._edge_lines = (key, degrees, lines)
        return self._edge_lines[1], self._edge_lines[2]

    @property
    def edge_region_base(self) -> int:
        return self.num_vertices * self.vertex_bytes

    @property
    def footprint_bytes(self) -> int:
        """Total simulated memory footprint of properties plus structure."""
        return (
            self.num_vertices * self.vertex_bytes
            + self.num_edges * self.edge_bytes
        )

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.offsets.ndim != 1 or len(self.offsets) < 1:
            raise GraphValidationError(
                "offsets must be a 1-D array of length >= 1"
            )
        if self.offsets[0] != 0:
            raise GraphValidationError("offsets[0] must be 0")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphValidationError("offsets must be non-decreasing")
        if int(self.offsets[-1]) != len(self.adjacency):
            raise GraphValidationError(
                "offsets[-1] must equal len(adjacency)"
            )
        if self.adjacency.size and (
            self.adjacency.min() < 0
            or self.adjacency.max() >= len(self.offsets) - 1
        ):
            raise GraphValidationError("adjacency entry out of range")
        if self.weights is not None and len(self.weights) != len(self.adjacency):
            raise GraphValidationError("weights must align with adjacency")
        if self.weights is not None and np.isnan(self.weights).any():
            bad = int(np.flatnonzero(np.isnan(self.weights))[0])
            raise GraphValidationError(
                f"weights contain NaN (first at edge index {bad})",
                index=bad,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, weighted={self.is_weighted})"
        )


def _integral_endpoints(edge_array: np.ndarray) -> np.ndarray:
    """``edge_array`` as floats, or a typed error at its first non-integer."""
    try:
        values = np.asarray(edge_array, dtype=np.float64)
    except (TypeError, ValueError):
        raise GraphValidationError("edge endpoints must be integers") from None
    integral = np.isfinite(values) & (np.floor(values) == values)
    if not integral.all():
        bad = int(np.flatnonzero(~integral.all(axis=1))[0])
        raise GraphValidationError(
            f"non-integer edge endpoint at edge index {bad}: "
            f"{tuple(values[bad].tolist())}",
            index=bad,
        )
    return values
