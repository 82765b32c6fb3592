"""Tests for the large-graph slicing runtime (Section IV-F)."""

import numpy as np
import pytest

from repro import algorithms
from repro.core import SlicedGraphPulse
from repro.graph import (
    chain_graph,
    contiguous_partition,
    greedy_edge_cut_partition,
    random_weights,
    rmat_graph,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=41)


class TestCorrectness:
    @pytest.mark.parametrize("num_slices", [1, 2, 3, 5])
    def test_pagerank_fixed_point_independent_of_slicing(
        self, graph, num_slices
    ):
        partition = contiguous_partition(graph, num_slices)
        result = SlicedGraphPulse(
            partition, algorithms.make_pagerank_delta()
        ).run()
        assert np.allclose(
            result.values, algorithms.pagerank_reference(graph), atol=1e-4
        )
        assert result.converged

    def test_sssp_across_slices(self, graph):
        g = random_weights(graph, seed=7)
        root = int(np.argmax(g.out_degrees()))
        partition = contiguous_partition(g, 3)
        result = SlicedGraphPulse(partition, algorithms.make_sssp(root=root)).run()
        reference = algorithms.sssp_reference(g, root)
        finite = np.isfinite(reference)
        assert np.allclose(result.values[finite], reference[finite])
        assert np.all(np.isinf(result.values[~finite]))

    def test_cc_across_slices(self, graph):
        g = algorithms.symmetrize(graph)
        partition = contiguous_partition(g, 4)
        result = SlicedGraphPulse(
            partition, algorithms.make_connected_components()
        ).run()
        assert np.array_equal(
            result.values, algorithms.connected_components_reference(g)
        )

    def test_greedy_partition_also_correct(self, graph):
        partition = greedy_edge_cut_partition(graph, 3)
        result = SlicedGraphPulse(
            partition, algorithms.make_pagerank_delta()
        ).run()
        assert np.allclose(
            result.values, algorithms.pagerank_reference(graph), atol=1e-4
        )

    def test_chain_crossing_every_slice(self):
        # worst case: the chain repeatedly crosses slice boundaries
        g = chain_graph(30)
        partition = contiguous_partition(g, 3)
        result = SlicedGraphPulse(partition, algorithms.make_bfs(root=0)).run()
        assert np.array_equal(
            result.values, algorithms.bfs_reference(g, 0)
        )


class TestSpillAccounting:
    def test_single_slice_never_spills(self, graph):
        partition = contiguous_partition(graph, 1)
        result = SlicedGraphPulse(
            partition, algorithms.make_pagerank_delta()
        ).run()
        # only the bootstrap events flow through the spill buffers
        assert result.spill_bytes_written == 0

    def test_more_slices_spill_more(self, graph):
        spec = algorithms.make_pagerank_delta()
        two = SlicedGraphPulse(contiguous_partition(graph, 2), spec).run()
        five = SlicedGraphPulse(contiguous_partition(graph, 5), spec).run()
        assert five.spill_bytes_written >= two.spill_bytes_written
        assert two.spill_bytes_written > 0

    def test_spill_overhead_fraction(self, graph):
        result = SlicedGraphPulse(
            contiguous_partition(graph, 3), algorithms.make_pagerank_delta()
        ).run()
        assert 0.0 < result.spill_overhead() < 1.0

    def test_activation_log(self, graph):
        result = SlicedGraphPulse(
            contiguous_partition(graph, 3), algorithms.make_pagerank_delta()
        ).run()
        assert result.num_passes >= 1
        processed = sum(a.events_processed for a in result.activations)
        assert processed == result.traffic.vertex_reads
        assert all(a.rounds >= 1 for a in result.activations)

    def test_better_partition_spills_less(self):
        # a clustered graph: greedy cut should spill fewer events than a
        # deliberately bad round-robin-style split
        g = algorithms.symmetrize(rmat_graph(200, 2400, seed=42))
        spec = algorithms.make_pagerank_delta()
        good = SlicedGraphPulse(greedy_edge_cut_partition(g, 2), spec).run()
        # contiguous on a permuted R-MAT is close to random
        bad_cut = contiguous_partition(g, 2)
        bad = SlicedGraphPulse(bad_cut, spec).run()
        if greedy_edge_cut_partition(g, 2).cut_fraction() < bad_cut.cut_fraction():
            assert good.spill_bytes_written <= bad.spill_bytes_written


class TestActivationCaps:
    def test_rounds_per_activation_cap_still_converges(self, graph):
        partition = contiguous_partition(graph, 3)
        capped = SlicedGraphPulse(
            partition,
            algorithms.make_pagerank_delta(),
            rounds_per_activation=1,
        ).run()
        assert np.allclose(
            capped.values, algorithms.pagerank_reference(graph), atol=1e-4
        )

    def test_max_passes_guard(self):
        # capping both rounds-per-activation and passes leaves the chain
        # unfinished, which must trip the guard rather than loop forever
        g = chain_graph(40)
        partition = contiguous_partition(g, 4)
        with pytest.raises(RuntimeError, match="did not converge"):
            SlicedGraphPulse(
                partition,
                algorithms.make_bfs(root=0),
                max_passes=1,
                rounds_per_activation=1,
            ).run()

    def test_barrier_chain_needs_one_pass_per_slice(self):
        # outbound spills only become visible at the next pass, so a
        # forward chain takes one pass per slice hop
        g = chain_graph(40)
        partition = contiguous_partition(g, 4)
        result = SlicedGraphPulse(
            partition, algorithms.make_bfs(root=0), max_passes=10
        ).run()
        assert result.converged
        assert result.num_passes == 4


def test_activations_share_the_engines_sweep_order(graph, monkeypatch):
    # every slice activation builds a queue; the bin-to-vertex sweep
    # order is built once, by the engine
    from repro.core import queue as queue_module

    built = []
    init = queue_module.VertexBinMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(queue_module.VertexBinMap, "__init__", counting_init)
    result = SlicedGraphPulse(
        contiguous_partition(graph, 3), algorithms.make_pagerank_delta()
    ).run()
    assert len(result.activations) > 3
    assert len(built) == 1
