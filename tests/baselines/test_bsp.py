"""Tests for the bulk-synchronous delta engine."""

import numpy as np
import pytest

from repro import algorithms
from repro.baselines import SynchronousDeltaEngine
from repro.errors import NonConvergenceError
from repro.graph import chain_graph, random_weights, rmat_graph


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=51)


class TestFixedPoints:
    def test_pagerank(self, graph):
        result = SynchronousDeltaEngine(
            graph, algorithms.make_pagerank_delta()
        ).run()
        assert np.allclose(
            result.values, algorithms.pagerank_reference(graph), atol=1e-4
        )
        assert result.converged

    def test_sssp(self, graph):
        g = random_weights(graph, seed=8)
        root = int(np.argmax(g.out_degrees()))
        result = SynchronousDeltaEngine(g, algorithms.make_sssp(root=root)).run()
        reference = algorithms.sssp_reference(g, root)
        finite = np.isfinite(reference)
        assert np.allclose(result.values[finite], reference[finite])

    def test_bfs_iterations_track_frontier_depth(self):
        g = chain_graph(10)
        result = SynchronousDeltaEngine(g, algorithms.make_bfs(root=0)).run()
        # one superstep per hop plus the bootstrap
        assert result.num_iterations == 10
        assert np.array_equal(
            result.values, algorithms.bfs_reference(g, 0)
        )

    def test_cc(self, graph):
        g = algorithms.symmetrize(graph)
        result = SynchronousDeltaEngine(
            g, algorithms.make_connected_components()
        ).run()
        assert np.array_equal(
            result.values, algorithms.connected_components_reference(g)
        )

    def test_adsorption(self, graph):
        g = algorithms.normalize_inbound_weights(random_weights(graph, seed=9))
        result = SynchronousDeltaEngine(g, algorithms.make_adsorption(g)).run()
        reference = algorithms.adsorption_reference(
            g, algorithms.injection_values(g)
        )
        assert np.allclose(result.values, reference, atol=1e-4)


class TestIterationRecords:
    def test_edges_scanned_matches_active_degrees(self, graph):
        result = SynchronousDeltaEngine(
            graph, algorithms.make_pagerank_delta()
        ).run()
        degrees = graph.out_degrees()
        for it in result.iterations:
            expected = int(degrees[it.active_vertices].sum())
            assert it.edges_scanned == expected

    def test_changes_align_with_active(self, graph):
        result = SynchronousDeltaEngine(
            graph, algorithms.make_pagerank_delta()
        ).run()
        for it in result.iterations:
            assert len(it.changes) == len(it.active_vertices)

    def test_on_iteration_hook_called_every_superstep(self, graph):
        seen = []
        result = SynchronousDeltaEngine(
            graph, algorithms.make_pagerank_delta()
        ).run(on_iteration=lambda it: seen.append(it.index))
        assert seen == list(range(result.num_iterations))

    def test_total_edges(self, graph):
        result = SynchronousDeltaEngine(
            graph, algorithms.make_pagerank_delta()
        ).run()
        assert result.total_edges_scanned == sum(
            it.edges_scanned for it in result.iterations
        )

    def test_max_iterations_guard(self):
        g = chain_graph(30)
        with pytest.raises(RuntimeError, match="did not converge"):
            SynchronousDeltaEngine(
                g, algorithms.make_bfs(root=0), max_iterations=2
            ).run()

    def test_max_iterations_guard_is_typed_with_a_diagnostic(self):
        g = chain_graph(30)
        with pytest.raises(NonConvergenceError) as info:
            SynchronousDeltaEngine(
                g, algorithms.make_bfs(root=0), max_iterations=2
            ).run()
        diagnostic = info.value.diagnostic
        assert diagnostic["engine"] == "bsp"
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["rounds"] == 2
        # two supersteps from the root leave vertex 2's level pending
        assert diagnostic["queue_occupancy"] == 1
        assert info.value.stuck_vertices == [2]


class TestAgainstAsynchronous:
    def test_async_needs_no_more_work(self, graph):
        """The asynchronous engine's key claim: coalescing + lookahead
        never increase (and usually reduce) total edge work."""
        from repro.core import FunctionalGraphPulse

        spec = algorithms.make_pagerank_delta()
        sync = SynchronousDeltaEngine(graph, spec).run()
        fun = FunctionalGraphPulse(graph, spec).run()
        assert fun.traffic.edge_reads <= 1.05 * sync.total_edges_scanned
        assert fun.num_rounds <= sync.num_iterations
