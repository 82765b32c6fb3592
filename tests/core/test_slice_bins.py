"""Slice-bound sweeps: an activation drains only its slice's bins.

Only a slice's own vertices ever enter an activation's queue (inbound
buffers are keyed by owner, remote messages spill), so draining the
bins of :func:`repro.core.slicing.slice_bins` alone must do exactly what
sweeping every bin did.  Every activation of a run is checked against an
all-bins sweep of the same activation on copies of its state and
traffic: counts, state, traffic and every emitted column must be equal,
and no bin outside the slice's list may ever be occupied.  The
partitions include non-contiguous slices: the greedy edge-cut
partitioner and random vertex assignments.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.core import CoalescingQueue, SlicedGraphPulse, slicing
from repro.core.functional import TrafficCounters
from repro.core.queue import VertexBinMap
from repro.core.spill import SpillColumns
from repro.graph import (
    CSRGraph,
    contiguous_partition,
    greedy_edge_cut_partition,
    random_weights,
    rmat_graph,
)
from repro.graph.partition import _build_partition
from repro.resilience import FaultPlan, ResilienceConfig

#: the queue geometry: a row of bins holds 16 vertices, so the small
#: slices below fall in a few of the bins
NUM_BINS = 8
BLOCK_SIZE = 2

_ACTIVATION = slicing.run_slice_activation
_DRAIN = CoalescingQueue.drain_bin_arrays


class SweepCheck:
    """Patches the engine's activation kernel and the queue's drain for
    one run (see the module docs) and records what it checked."""

    def __init__(self, monkeypatch, compare=True):
        self.compare = compare
        self.bin_lists = []
        self._allowed = []
        original, drain = _ACTIVATION, _DRAIN

        def guarded_drain(queue, bin_index):
            if self._allowed:
                allowed = self._allowed[-1]
                for other in range(queue.num_bins):
                    if other not in allowed:
                        assert queue.bin_occupancy(other) == 0, other
            return drain(queue, bin_index)

        def checked(
            partition, spec, pass_index, slice_index, inbound, state,
            traffic, emit, **options
        ):
            bins = options["bins"]
            self.bin_lists.append(list(bins))
            self._allowed.append(set(bins))
            try:
                if self.compare:
                    every_state = state.copy()
                    every_traffic = dataclasses.replace(traffic)
                    every_emitted = []
                    every_counts = original(
                        partition, spec, pass_index, slice_index, inbound,
                        every_state, every_traffic,
                        lambda *columns: every_emitted.append(
                            [(c.dtype.str, c.tobytes()) for c in columns]
                        ),
                        **dict(
                            options, bins=range(options["mapping"].num_bins)
                        ),
                    )
                emitted = []

                def record(*columns):
                    emitted.append([(c.dtype.str, c.tobytes()) for c in columns])
                    emit(*columns)

                counts = original(
                    partition, spec, pass_index, slice_index, inbound,
                    state, traffic, record, **options
                )
            finally:
                self._allowed.pop()
            if self.compare:
                assert counts == every_counts
                assert state.tobytes() == every_state.tobytes()
                assert traffic == every_traffic
                assert emitted == every_emitted
            return counts

        monkeypatch.setattr(slicing, "run_slice_activation", checked)
        monkeypatch.setattr(CoalescingQueue, "drain_bin_arrays", guarded_drain)


def _run(monkeypatch, partition, spec, compare=True, **options):
    check = SweepCheck(monkeypatch, compare=compare)
    result = SlicedGraphPulse(
        partition, spec, num_bins=NUM_BINS, block_size=BLOCK_SIZE, **options
    ).run()
    assert check.bin_lists, "no activation ran"
    return check, result


def _specs(graph):
    weighted = random_weights(graph, seed=3)
    root = int(np.argmax(weighted.out_degrees()))
    return [
        (graph, algorithms.make_pagerank_delta()),
        (weighted, algorithms.make_sssp(root=root)),
    ]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(48, 240, seed=17)


@pytest.mark.parametrize(
    "partitioner", [contiguous_partition, greedy_edge_cut_partition]
)
@pytest.mark.parametrize("rounds_per_activation", [None, 2])
def test_slice_bound_sweep_equals_all_bins(
    monkeypatch, graph, partitioner, rounds_per_activation
):
    for g, spec in _specs(graph):
        partition = partitioner(g, 4)
        check, result = _run(
            monkeypatch,
            partition,
            spec,
            rounds_per_activation=rounds_per_activation,
        )
        assert result.converged
        if partitioner is contiguous_partition:
            # contiguous slices hold a few blocks each: the bound bites
            assert max(len(bins) for bins in check.bin_lists) < NUM_BINS


@st.composite
def assigned_graphs(draw):
    """A small graph and a random vertex -> slice assignment in which
    every slice owns a vertex."""
    n = draw(st.integers(min_value=2, max_value=24))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=4 * n,
        )
    )
    num_slices = draw(st.integers(min_value=2, max_value=min(4, n)))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_slices - 1),
            min_size=n,
            max_size=n,
        )
    )
    assignment[:num_slices] = range(num_slices)
    assignment = draw(st.permutations(assignment))
    graph = CSRGraph.from_edges(
        n, edges, weights=[1.0 + i % 4 for i in range(len(edges))]
    )
    return graph, np.array(assignment, dtype=np.int64)


@given(case=assigned_graphs())
@settings(max_examples=25, deadline=None)
def test_random_assignments(case):
    graph, assignment = case
    partition = _build_partition(graph, assignment)
    mapping = VertexBinMap(graph.num_vertices, NUM_BINS, BLOCK_SIZE)
    for s, bins in zip(partition.slices, slicing.slice_bins(partition, mapping)):
        assert bins == sorted(set(mapping.bin_of(s.vertices).tolist()))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for g, spec in _specs(graph):
            _run(monkeypatch, partition, spec)
            _run(monkeypatch, partition, spec, rounds_per_activation=1)


def test_no_foreign_bin_is_occupied_under_faults(monkeypatch, graph):
    """The per-message paths (drops, duplicates, bit flips caught by
    parity) insert only the slice's own vertices too."""
    config = ResilienceConfig(
        fault_plan=FaultPlan(
            seed=5,
            rates={"drop": 0.02, "duplicate": 0.05, "bitflip": 0.02},
        )
    )
    partition = contiguous_partition(graph, 4)
    check, _ = _run(
        monkeypatch,
        partition,
        algorithms.make_pagerank_delta(),
        compare=False,
        resilience=config,
    )
    assert max(len(bins) for bins in check.bin_lists) < NUM_BINS


def test_bins_missing_a_queued_event_raise(graph):
    """A bins list that misses a bin holding queued events would leave
    the round loop spinning; the kernel refuses it instead."""
    partition = contiguous_partition(graph, 4)
    mapping = VertexBinMap(graph.num_vertices, NUM_BINS, BLOCK_SIZE)
    bins = slicing.slice_bins(partition, mapping)[0]
    vertices = partition.slices[0].vertices[:1]
    inbound = SpillColumns(
        vertices.astype(np.int64),
        np.ones(1),
        np.zeros(1, dtype=np.int64),
    )
    missing = [b for b in bins if b != int(mapping.bin_of(vertices[0]))]
    with pytest.raises(ValueError, match="miss events queued for slice 0"):
        slicing.run_slice_activation(
            partition,
            algorithms.make_pagerank_delta(),
            0,
            0,
            inbound,
            np.zeros(graph.num_vertices),
            TrafficCounters(),
            lambda *columns: None,
            mapping=mapping,
            bins=missing,
        )
