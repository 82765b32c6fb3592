"""The per-vertex edge-line table against the per-drain line arithmetic.

``reference_account_edge_slices`` below is the per-drain computation the
event kernel ran before :meth:`CSRGraph.edge_line_table` replaced it:
the first and last 64-byte line of each propagating vertex's contiguous
CSR edge slice, recomputed from ``offsets`` and ``edge_address`` on every
drain.  The table and the kernel's charge (``functional._messages``)
must give the same bytes on generated graphs: zero-degree vertices,
self-loops, duplicate edges, weighted graphs and non-default record
sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.core import functional
from repro.core.functional import TrafficCounters
from repro.graph import CSRGraph

_CACHE_LINE = 64


def reference_account_edge_slices(graph, starts, degrees, total, traffic):
    if np.count_nonzero(degrees) < len(degrees):
        scanned = degrees > 0
        starts, degrees = starts[scanned], degrees[scanned]
    first_line = graph.edge_address(starts) // _CACHE_LINE
    last_line = (graph.edge_address(starts + degrees) - 1) // _CACHE_LINE
    lines = int((last_line - first_line).sum()) + len(starts)
    traffic.edge_bytes_fetched += lines * _CACHE_LINE
    traffic.edge_bytes_useful += total * graph.edge_bytes


@st.composite
def laid_out_graphs(draw):
    """Small graphs with self-loops, duplicate edges, sinks and isolated
    vertices, weighted or not, under any of a few record sizes."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6 * n,
        )
    )
    weights = None
    if draw(st.booleans()):
        weights = [float(i % 5) for i in range(len(edges))]
    base = CSRGraph.from_edges(n, edges, weights=weights)
    return CSRGraph(
        offsets=base.offsets,
        adjacency=base.adjacency,
        weights=base.weights,
        vertex_bytes=draw(st.sampled_from([1, 4, 8, 12, 64, 100])),
        edge_bytes=draw(st.sampled_from([1, 4, 8, 12, 24, 64, 72])),
    )


def _reference_charge(graph, sources):
    starts = graph.offsets[sources]
    degrees = graph.offsets[sources + 1] - starts
    total = int(degrees.sum())
    traffic = TrafficCounters()
    reference_account_edge_slices(graph, starts, degrees, total, traffic)
    return traffic


@given(graph=laid_out_graphs())
@settings(max_examples=60, deadline=None)
def test_table_matches_the_per_vertex_line_span(graph):
    degrees, lines = graph.edge_line_table()
    assert np.array_equal(degrees, np.diff(graph.offsets))
    for vertex in range(graph.num_vertices):
        want = _reference_charge(graph, np.array([vertex], dtype=np.int64))
        assert int(lines[vertex]) * _CACHE_LINE == want.edge_bytes_fetched
        assert (lines[vertex] == 0) == (degrees[vertex] == 0)


@given(graph=laid_out_graphs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_charge_matches_the_reference(graph, data):
    """``_messages`` charges a drain's sources exactly as the per-drain
    line arithmetic did, over any propagating sources in sweep order."""
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=graph.num_vertices - 1),
            min_size=1,
            unique=True,
        ).map(sorted)
    )
    spec = get_algorithm("pagerank", graph)
    traffic = TrafficCounters()
    functional._messages(
        graph,
        spec,
        sources,
        [1.0] * len(sources),
        [0] * len(sources),
        traffic,
    )
    want = _reference_charge(graph, np.array(sources, dtype=np.int64))
    assert traffic.edge_bytes_fetched == want.edge_bytes_fetched
    assert traffic.edge_bytes_useful == want.edge_bytes_useful
    assert traffic.edge_reads == int(
        np.diff(graph.offsets)[sources].sum()
    )


def test_table_is_cached_read_only_and_follows_the_layout():
    graph = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 1)])
    degrees, lines = graph.edge_line_table()
    again = graph.edge_line_table()
    assert again[0] is degrees and again[1] is lines
    with pytest.raises(ValueError):
        lines[0] = 7
    with pytest.raises(ValueError):
        degrees[0] = 7
    assert lines.tolist() == [1, 1, 0]
    # 3 vertex records of 8 B put the edges at byte 24; 24 B edge
    # records then put vertex 0's two edges across two lines
    graph.edge_bytes = 24
    assert graph.edge_line_table()[1].tolist() == [2, 1, 0]
