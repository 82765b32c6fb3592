"""Tests for the multi-accelerator parallel slicing runtime (the paper's
unexplored Section IV-F option b)."""

import dataclasses

import numpy as np
import pytest

from repro import algorithms
from repro.algorithms import algorithm_names, get_algorithm, normalize_inbound_weights
from repro.core import FunctionalGraphPulse, build_engine
from repro.errors import NonConvergenceError
from repro.graph import (
    chain_graph,
    contiguous_partition,
    greedy_edge_cut_partition,
    random_weights,
    rmat_graph,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=121)


def parallel_sliced(graph, spec, num_slices, **options):
    return build_engine(
        "parallel-sliced", (graph, spec), {"num_slices": num_slices, **options}
    ).run()


class TestCorrectness:
    @pytest.mark.parametrize("num_slices", [1, 2, 4])
    def test_pagerank_matches_single_accelerator(self, graph, num_slices):
        spec = algorithms.make_pagerank_delta()
        single = FunctionalGraphPulse(graph, spec).run()
        parallel = parallel_sliced(graph, spec, num_slices)
        assert np.allclose(parallel.values, single.values, atol=1e-7)
        assert parallel.converged

    def test_sssp(self, graph):
        g = random_weights(graph, seed=12)
        root = int(np.argmax(g.out_degrees()))
        spec = algorithms.make_sssp(root=root)
        result = parallel_sliced(g, spec, 3)
        reference = algorithms.sssp_reference(g, root)
        finite = np.isfinite(reference)
        assert np.allclose(result.values[finite], reference[finite])
        assert np.all(np.isinf(result.values[~finite]))

    def test_cc_with_greedy_partition(self, graph):
        g = algorithms.symmetrize(graph)
        spec = algorithms.make_connected_components()
        result = parallel_sliced(
            g, spec, 3, partition_fn=greedy_edge_cut_partition
        )
        assert np.array_equal(
            result.values, algorithms.connected_components_reference(g)
        )

    def test_chain_across_accelerators(self):
        # every hop crosses an accelerator boundary: one super-round per
        # hop (network latency of one round per crossing)
        g = chain_graph(12)
        spec = algorithms.make_bfs(root=0)
        result = parallel_sliced(g, spec, 12)
        assert np.array_equal(result.values, algorithms.bfs_reference(g, 0))
        assert result.passes >= 12

    def test_max_super_rounds_guard(self):
        g = chain_graph(12)
        spec = algorithms.make_bfs(root=0)
        with pytest.raises(RuntimeError, match="did not converge"):
            parallel_sliced(g, spec, 12, max_passes=2)

    def test_max_super_rounds_guard_is_typed_with_a_diagnostic(self):
        g = chain_graph(12)
        spec = algorithms.make_bfs(root=0)
        with pytest.raises(NonConvergenceError) as info:
            parallel_sliced(g, spec, 12, max_passes=2)
        diagnostic = info.value.diagnostic
        assert diagnostic["engine"] == "parallel-sliced"
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["rounds"] == 2
        # one slice per vertex: the pending event sits in slice 2's queue
        assert diagnostic["queue_occupancy"] == 1
        assert diagnostic["stuck_bins"] == [2]
        assert info.value.stuck_vertices == [2]


class TestParallelismAccounting:
    def test_messages_counted(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = parallel_sliced(graph, spec, 4)
        assert result.stats["messages"] > 0

    def test_single_slice_exchanges_nothing(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = parallel_sliced(graph, spec, 1)
        assert result.stats["messages"] == 0

    def test_all_slices_do_work(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = parallel_sliced(graph, spec, 4)
        totals = [0, 0, 0, 0]
        for record in result.raw.activations:
            totals[record.slice_index] += record.events_processed
        assert all(t > 0 for t in totals)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edge_lines_are_charged(self, graph, weighted):
        # every scanned edge is charged its record bytes, and the lines
        # covering the scanned CSR slices are at least that much
        g = random_weights(graph, seed=5) if weighted else graph
        spec = (
            algorithms.make_sssp(root=0)
            if weighted
            else algorithms.make_pagerank_delta()
        )
        traffic = parallel_sliced(g, spec, 3).raw.traffic
        assert traffic.edge_reads > 0
        assert traffic.edge_bytes_useful == traffic.edge_reads * g.edge_bytes
        assert traffic.edge_bytes_fetched >= traffic.edge_bytes_useful

    def test_load_balance_metric(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = parallel_sliced(graph, spec, 4)
        assert 0.0 < result.stats["load_balance"] <= 1.0

    def test_parallelism_reduces_sequential_rounds(self, graph):
        """The point of option (b): with N accelerators draining their
        queues concurrently, the number of sequential steps is far below
        the single-accelerator activation count of option (a)."""
        from repro.core import SlicedGraphPulse

        spec = algorithms.make_pagerank_delta()
        partition = contiguous_partition(graph, 4)
        serial = SlicedGraphPulse(
            partition, spec, rounds_per_activation=1
        ).run()
        parallel = parallel_sliced(graph, spec, 4)
        serial_steps = sum(a.rounds for a in serial.activations)
        assert parallel.passes < serial_steps


class TestPreset:
    @pytest.mark.parametrize("num_slices", [1, 2, 4])
    @pytest.mark.parametrize("name", algorithm_names())
    def test_bit_identical_to_sliced_one_round_per_activation(
        self, graph, name, num_slices
    ):
        """``parallel-sliced`` is ``sliced`` with barrier dispatch and
        one round per activation, bit for bit."""
        g, kwargs = graph, {}
        if name == "adsorption":
            g = normalize_inbound_weights(graph)
        elif name == "sssp":
            g = random_weights(graph, seed=12)
        elif name == "linear-solver":
            # the coefficients into any vertex sum to 1/2: converges
            in_degree = np.bincount(graph.adjacency, minlength=graph.num_vertices)
            g = graph.with_weights(0.5 / in_degree[graph.adjacency])
            kwargs["constants"] = 1.0 + np.arange(g.num_vertices, dtype=float)
        spec = get_algorithm(name, g, **kwargs)
        preset = parallel_sliced(g, spec, num_slices)
        sliced = build_engine(
            "sliced",
            (g, spec),
            {
                "num_slices": num_slices,
                "dispatch": "barrier",
                "rounds_per_activation": 1,
            },
        ).run()
        assert preset.engine == "parallel-sliced"
        assert preset.values.tobytes() == sliced.values.tobytes()
        assert preset.raw.activations == sliced.raw.activations
        assert dataclasses.asdict(preset.raw.traffic) == dataclasses.asdict(
            sliced.raw.traffic
        )
        assert preset.passes == sliced.passes
        assert preset.stats == sliced.stats
