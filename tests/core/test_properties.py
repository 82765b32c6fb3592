"""Property-based tests of the event-driven execution core.

The central invariant of the paper's model: for algorithms satisfying
the Reordering + Simplification properties, *any* execution order —
synchronous, asynchronous, coalesced, sliced — converges to the same
fixed point.  Hypothesis generates random graphs and checks the engines
against a naive worklist oracle and against each other.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.baselines import SynchronousDeltaEngine
from repro.core import CoalescingQueue, Event, FunctionalGraphPulse, SlicedGraphPulse
from repro.graph import CSRGraph, contiguous_partition


@st.composite
def small_graphs(draw, max_vertices=24, max_edges=80):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=max_edges,
            unique=True,
        )
    )
    return CSRGraph.from_edges(n, edges)


def naive_worklist_fixed_point(graph, spec):
    """Oracle: uncoalesced FIFO worklist, one event per edge, no bins."""
    from collections import deque

    state = spec.initial_state(graph)
    queue = deque(
        Event(vertex=v, delta=d)
        for v, d in spec.initial_events(graph).items()
    )
    steps = 0
    while queue:
        steps += 1
        if steps > 2_000_000:  # pragma: no cover - degenerate inputs
            raise RuntimeError("oracle did not converge")
        event = queue.popleft()
        result = spec.apply(float(state[event.vertex]), event.delta)
        if not result.changed:
            continue
        state[event.vertex] = result.state
        if not spec.should_propagate(result.change):
            continue
        u = event.vertex
        degree = graph.out_degree(u)
        weights = graph.edge_weights(u) if spec.uses_weights else None
        for k, dst in enumerate(graph.neighbors(u).tolist()):
            w = float(weights[k]) if weights is not None else 1.0
            delta = spec.propagate(result.change, u, dst, w, degree)
            if delta != spec.identity:
                queue.append(Event(vertex=dst, delta=delta))
    return state


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_coalesced_engine_matches_uncoalesced_oracle_bfs(graph):
    spec = algorithms.make_bfs(root=0)
    oracle = naive_worklist_fixed_point(graph, spec)
    result = FunctionalGraphPulse(graph, spec, num_bins=4, block_size=2).run()
    finite = np.isfinite(oracle)
    assert np.array_equal(result.values[finite], oracle[finite])
    assert np.all(np.isinf(result.values[~finite]))


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_coalesced_engine_matches_uncoalesced_oracle_cc(graph):
    spec = algorithms.make_connected_components()
    oracle = naive_worklist_fixed_point(graph, spec)
    result = FunctionalGraphPulse(graph, spec, num_bins=4, block_size=2).run()
    assert np.array_equal(result.values, oracle)


@st.composite
def small_dags(draw, max_vertices=10, max_edges=24):
    """Random DAG: edges only from lower to higher ids.

    On a DAG, PageRank-Delta with a zero threshold terminates without
    coalescing (no feedback loops), so the uncoalesced oracle computes
    the *exact* fixed point — a threshold on a cyclic graph makes the
    oracle lose sub-threshold mass that coalescing would have compounded
    (the paper's Figure 7 effect), so cyclic exact comparison is
    impossible by construction.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] < e[1]),
            max_size=max_edges,
            unique=True,
        )
    )
    return CSRGraph.from_edges(n, edges)


@given(small_dags())
@settings(max_examples=30, deadline=None)
def test_coalesced_engine_matches_uncoalesced_oracle_pagerank(graph):
    spec = algorithms.make_pagerank_delta(threshold=0.0)
    oracle = naive_worklist_fixed_point(graph, spec)
    result = FunctionalGraphPulse(graph, spec, num_bins=4, block_size=2).run()
    assert np.allclose(result.values, oracle, atol=1e-9)
    # and both equal the classical power-iteration fixed point
    assert np.allclose(
        result.values, algorithms.pagerank_reference(graph), atol=1e-6
    )


@given(small_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_sliced_equals_unsliced(graph, num_slices):
    num_slices = min(num_slices, graph.num_vertices)
    spec = algorithms.make_connected_components()
    whole = FunctionalGraphPulse(graph, spec).run()
    sliced = SlicedGraphPulse(
        contiguous_partition(graph, num_slices), spec
    ).run()
    assert np.array_equal(whole.values, sliced.values)


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_async_equals_bsp(graph):
    spec = algorithms.make_bfs(root=0)
    async_result = FunctionalGraphPulse(graph, spec).run()
    sync_result = SynchronousDeltaEngine(graph, spec).run()
    both_finite = np.isfinite(async_result.values) == np.isfinite(
        sync_result.values
    )
    assert np.all(both_finite)
    finite = np.isfinite(sync_result.values)
    assert np.array_equal(
        async_result.values[finite], sync_result.values[finite]
    )


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_queue_conserves_delta_mass(inserts):
    """For an additive reduce, the sum of all drained payloads equals
    the sum of all inserted payloads, regardless of coalescing."""
    queue = CoalescingQueue(64, lambda a, b: a + b, num_bins=4, block_size=4)
    for vertex, delta in inserts:
        queue.insert(vertex, delta)
    drained = queue.drain_all()
    assert queue.is_empty
    assert math.isclose(
        sum(e.delta for e in drained),
        sum(d for _, d in inserts),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )
    # exactly one drained event per distinct vertex
    vertices = [e.vertex for e in drained]
    assert len(vertices) == len(set(vertices))
    assert set(vertices) == {v for v, _ in inserts}


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            st.integers(min_value=0, max_value=50),  # generation
            st.integers(min_value=0, max_value=1000),  # ready time
        ),
        min_size=1,
        max_size=200,
    ),
    st.sampled_from(["add", "min"]),
)
@settings(max_examples=60, deadline=None)
def test_folded_and_parity_slots_drain_identically(inserts, reduce_name):
    """Folding arrivals at insert time and keeping the raw entries for
    an (all-pass) parity check drain to bit-identical events."""
    reduce_fn = {"add": lambda a, b: a + b, "min": min}[reduce_name]
    folded = CoalescingQueue(32, reduce_fn, num_bins=4, block_size=4)
    raw = CoalescingQueue(32, reduce_fn, num_bins=4, block_size=4)
    raw.payload_check = lambda event: True
    for vertex, delta, generation, ready in inserts:
        assert folded.insert(vertex, delta, generation, ready) == raw.insert(
            vertex, delta, generation, ready
        )

    def drained(queue):
        return [
            (e.vertex, struct.pack("<d", e.delta), e.generation, e.ready)
            for b in range(queue.num_bins)
            for e in queue.drain_bin(b)
        ]

    assert drained(folded) == drained(raw)
    assert folded.is_empty and raw.is_empty
    assert raw.stats.discarded == 0
