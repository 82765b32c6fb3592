"""Differential test: the per-bin kernel against the per-event kernel.

``reference_process_event`` below is the per-event kernel the engines
ran before the per-bin kernel replaced it, kept verbatim (with its byte
accounting) as the reference implementation.  ``reference_process_bin``
adapts it to the per-bin signature by walking the drained events one at
a time, so the same engines can run either kernel.  On generated
graph shapes — self-loops, zero-out-degree and isolated vertices,
duplicate edges, empty and single-vertex graphs — every algorithm under
``functional``, ``sliced`` and the ``parallel-sliced`` preset must give
the same bits: values, event counts, every queue's statistics, every
traffic counter and every per-round record.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import algorithm_names, get_algorithm, normalize_inbound_weights
from repro.core import CoalescingQueue, Event, build_engine, functional, slicing
from repro.graph import CSRGraph

_CACHE_LINE = 64


# ----------------------------------------------------------------------
# Reference: the per-event kernel
# ----------------------------------------------------------------------


def reference_account_vertex_batch(graph, batch, traffic):
    lines = {graph.vertex_address(e.vertex) // _CACHE_LINE for e in batch}
    traffic.vertex_bytes_fetched += 2 * len(lines) * _CACHE_LINE
    traffic.vertex_bytes_useful += 2 * len(batch) * graph.vertex_bytes


def reference_account_edge_slice(graph, vertex, degree, traffic):
    start = graph.edge_address(int(graph.offsets[vertex]))
    stop = graph.edge_address(int(graph.offsets[vertex + 1]))
    first_line = start // _CACHE_LINE
    last_line = (stop - 1) // _CACHE_LINE
    traffic.edge_bytes_fetched += (last_line - first_line + 1) * _CACHE_LINE
    traffic.edge_bytes_useful += degree * graph.edge_bytes


def reference_process_event(
    graph, spec, event, state, traffic, queue, resilience=None, now=0.0,
    owner=None, slice_index=0, spill=None,
):
    u = event.vertex
    traffic.vertex_reads += 1
    result = spec.apply(float(state[u]), event.delta)
    if not result.changed:
        return 0.0
    new_state = result.state
    if resilience is not None:
        ok, new_state = resilience.guard_value(u, new_state, now)
        if not ok:
            state[u] = new_state
            traffic.vertex_writes += 1
            return 0.0
    state[u] = new_state
    traffic.vertex_writes += 1
    change = result.change
    magnitude = abs(change) if math.isfinite(change) else 0.0
    if not spec.should_propagate(change):
        return magnitude

    degree = graph.out_degree(u)
    if degree == 0:
        return magnitude
    traffic.edge_reads += degree
    reference_account_edge_slice(graph, u, degree, traffic)
    neighbors = graph.neighbors(u).tolist()
    weights = graph.edge_weights(u).tolist() if spec.uses_weights else None
    propagate, identity = spec.propagate, spec.identity
    insert = queue.insert
    generation = event.generation + 1
    for index, dst in enumerate(neighbors):
        weight = weights[index] if weights is not None else 1.0
        delta = propagate(change, u, dst, weight, degree)
        if delta == identity:
            continue
        if owner is not None:
            target = int(owner[dst])
            if target != slice_index:
                spill(target, dst, delta, generation)
                continue
        if resilience is None:
            insert(dst, delta, generation)
        else:
            for survivor in resilience.filter_insert(
                Event(dst, delta, generation), now
            ):
                queue.insert_event(survivor)
    return magnitude


def reference_process_bin(
    graph, spec, drained, state, traffic, queue, resilience=None, now=0.0,
    owner=None, slice_index=0, spill=None, progress=0.0,
):
    batch = drained.events()
    if not batch:
        return progress
    reference_account_vertex_batch(graph, batch, traffic)
    per_message = None
    if spill is not None:
        # the engines take spills as columns: pass each message as
        # one-message columns, in emission order

        def per_message(target, dst, delta, generation):
            spill(
                np.array([dst], dtype=np.int64),
                np.array([delta], dtype=np.float64),
                np.array([generation], dtype=np.int64),
            )

    for event in batch:
        progress += reference_process_event(
            graph, spec, event, state, traffic, queue, resilience, now,
            owner=owner, slice_index=slice_index, spill=per_message,
        )
    return progress


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

ENGINES = (
    ("functional", {}),
    ("functional", {"track_lookahead": True}),
    # a cap no activation reaches: the full drain, which the default
    # runs only for exact reduces and single slices
    ("sliced", {"dispatch": "barrier", "rounds_per_activation": 10**6}),
    ("sliced", {"dispatch": "barrier", "rounds_per_activation": 1}),
    ("parallel-sliced", {}),
)


def spec_for(name, graph):
    if name == "adsorption":
        graph = normalize_inbound_weights(graph)
        return graph, get_algorithm(name, graph)
    if name == "linear-solver":
        # the coefficients into any vertex sum to 1/2: converges
        in_degree = np.bincount(graph.adjacency, minlength=graph.num_vertices)
        graph = graph.with_weights(0.5 / in_degree[graph.adjacency])
        constants = 1.0 + np.arange(graph.num_vertices, dtype=np.float64)
        return graph, get_algorithm(name, graph, constants=constants)
    return graph, get_algorithm(name, graph)


def observe(name, options, graph, spec, kernel=None):
    """Every deterministic output of one run, for exact comparison."""
    queues = []
    init = CoalescingQueue.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        queues.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoalescingQueue, "__init__", recording_init)
        if kernel is not None:
            patch.setattr(functional, "process_bin", kernel)
            patch.setattr(slicing, "process_bin", kernel)
        result = build_engine(name, (graph, spec), options).run()
    raw = result.raw
    out = {
        "values": result.values.tobytes(),
        "traffic": dataclasses.asdict(raw.traffic),
        "queues": [
            (
                q.stats.inserted,
                q.stats.coalesced,
                q.stats.drained,
                q.stats.peak_occupancy,
            )
            for q in queues
        ],
    }
    if name == "functional":
        out["events"] = (raw.total_events_processed, raw.total_events_produced)
        out["records"] = [dataclasses.asdict(r) for r in raw.rounds]
    elif name in ("sliced", "parallel-sliced"):
        out["records"] = [dataclasses.asdict(a) for a in raw.activations]
        out["spill"] = (raw.spill_bytes_written, raw.spill_bytes_read)
    return out


@st.composite
def graph_shapes(draw):
    """Small directed graphs: self-loops, duplicate edges, isolated and
    zero-out-degree vertices all allowed; weights include zero."""
    n = draw(st.integers(min_value=0, max_value=14))
    edges = []
    if n:
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=3 * n,
            )
        )
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0]),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return CSRGraph.from_edges(n, edges, weights=weights)


def _graph(n, edges):
    weights = [1.0 + i % 3 for i in range(len(edges))]
    return CSRGraph.from_edges(n, edges, weights=weights)


@pytest.mark.parametrize("algorithm", algorithm_names())
@given(graph=graph_shapes())
@example(graph=_graph(0, []))  # empty
@example(graph=_graph(1, []))  # single vertex
@example(graph=_graph(1, [(0, 0)]))  # single vertex, self-loop
# duplicate edge, self-loop on 2, sink 3, isolated vertex 4
@example(graph=_graph(5, [(0, 1), (0, 1), (1, 0), (2, 2), (0, 3)]))
# a cycle, a sink 4 and an isolated vertex 5
@example(graph=_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)]))
@settings(max_examples=25, deadline=None)
def test_per_bin_kernel_matches_per_event_reference(algorithm, graph):
    graph, spec = spec_for(algorithm, graph)
    for name, options in ENGINES:
        # a small geometry, so drains span several bins and blocks
        options = dict(options, num_bins=3, block_size=2)
        if name != "functional":
            if graph.num_vertices == 0:
                continue  # a partition needs at least one vertex per slice
            options["num_slices"] = min(3, graph.num_vertices)
        batched = observe(name, options, graph, spec)
        reference = observe(name, options, graph, spec, reference_process_bin)
        assert batched == reference, (name, options)
