"""Tests for the multi-accelerator parallel slicing runtime (the paper's
unexplored Section IV-F option b)."""

import numpy as np
import pytest

from repro import algorithms
from repro.core import FunctionalGraphPulse, ParallelSlicedGraphPulse
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


class TestCorrectness:
    @pytest.mark.parametrize("num_slices", [1, 2, 4])
    def test_pagerank_matches_single_accelerator(self, graph, num_slices):
        spec = algorithms.make_pagerank_delta()
        single = FunctionalGraphPulse(graph, spec).run()
        parallel = ParallelSlicedGraphPulse(
            contiguous_partition(graph, num_slices), spec
        ).run()
        assert np.allclose(parallel.values, single.values, atol=1e-7)
        assert parallel.converged

    def test_sssp(self, graph):
        g = random_weights(graph, seed=12)
        root = int(np.argmax(g.out_degrees()))
        spec = algorithms.make_sssp(root=root)
        result = ParallelSlicedGraphPulse(
            contiguous_partition(g, 3), spec
        ).run()
        reference = algorithms.sssp_reference(g, root)
        finite = np.isfinite(reference)
        assert np.allclose(result.values[finite], reference[finite])
        assert np.all(np.isinf(result.values[~finite]))

    def test_cc_with_greedy_partition(self, graph):
        g = algorithms.symmetrize(graph)
        spec = algorithms.make_connected_components()
        result = ParallelSlicedGraphPulse(
            greedy_edge_cut_partition(g, 3), spec
        ).run()
        assert np.array_equal(
            result.values, algorithms.connected_components_reference(g)
        )

    def test_chain_across_accelerators(self):
        # every hop crosses an accelerator boundary: one super-round per
        # hop (network latency of one round per crossing)
        g = chain_graph(12)
        spec = algorithms.make_bfs(root=0)
        result = ParallelSlicedGraphPulse(
            contiguous_partition(g, 12), spec
        ).run()
        assert np.array_equal(result.values, algorithms.bfs_reference(g, 0))
        assert result.num_super_rounds >= 12

    def test_max_super_rounds_guard(self):
        g = chain_graph(12)
        spec = algorithms.make_bfs(root=0)
        with pytest.raises(RuntimeError, match="did not converge"):
            ParallelSlicedGraphPulse(
                contiguous_partition(g, 12), spec, max_super_rounds=2
            ).run()


class TestParallelismAccounting:
    def test_messages_counted(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = ParallelSlicedGraphPulse(
            contiguous_partition(graph, 4), spec
        ).run()
        assert result.total_messages > 0

    def test_single_slice_exchanges_nothing(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = ParallelSlicedGraphPulse(
            contiguous_partition(graph, 1), spec
        ).run()
        assert result.total_messages == 0

    def test_all_slices_do_work(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = ParallelSlicedGraphPulse(
            contiguous_partition(graph, 4), spec
        ).run()
        totals = [0, 0, 0, 0]
        for record in result.super_rounds:
            for i, count in enumerate(record.events_processed_per_slice):
                totals[i] += count
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
        traffic = ParallelSlicedGraphPulse(
            contiguous_partition(g, 3), spec
        ).run().traffic
        assert traffic.edge_reads > 0
        assert traffic.edge_bytes_useful == traffic.edge_reads * g.edge_bytes
        assert traffic.edge_bytes_fetched >= traffic.edge_bytes_useful

    def test_load_balance_metric(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = ParallelSlicedGraphPulse(
            contiguous_partition(graph, 4), spec
        ).run()
        assert 0.0 < result.load_balance() <= 1.0

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
        parallel = ParallelSlicedGraphPulse(partition, spec).run()
        serial_steps = sum(a.rounds for a in serial.activations)
        assert parallel.num_super_rounds < serial_steps
