"""Tests for scheduler bin-visit policies (Section IV-C extension)."""

import numpy as np
import pytest

from repro import algorithms
from repro.core import FunctionalGraphPulse
from repro.graph import random_weights, rmat_graph


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=131)


POLICIES = FunctionalGraphPulse.SCHEDULING_POLICIES


class TestPolicyIndependence:
    """The Reordering property: the fixed point is schedule-independent."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pagerank_fixed_point(self, graph, policy):
        spec = algorithms.make_pagerank_delta()
        result = FunctionalGraphPulse(
            graph, spec, scheduling=policy, block_size=8
        ).run()
        assert np.allclose(
            result.values, algorithms.pagerank_reference(graph), atol=1e-4
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sssp_fixed_point(self, graph, policy):
        g = random_weights(graph, seed=13)
        root = int(np.argmax(g.out_degrees()))
        spec = algorithms.make_sssp(root=root)
        result = FunctionalGraphPulse(
            g, spec, scheduling=policy, block_size=8
        ).run()
        reference = algorithms.sssp_reference(g, root)
        finite = np.isfinite(reference)
        assert np.allclose(result.values[finite], reference[finite])


class TestPolicyBehaviour:
    def test_unknown_policy_rejected(self, graph):
        with pytest.raises(ValueError, match="scheduling policy"):
            FunctionalGraphPulse(
                graph,
                algorithms.make_pagerank_delta(),
                scheduling="random",
            )

    def test_policies_differ_in_schedule_not_result(self, graph):
        """Different visit orders may change per-round work but all
        converge; the round counts are allowed to differ."""
        spec = algorithms.make_connected_components()
        g = algorithms.symmetrize(graph)
        reference = algorithms.connected_components_reference(g)
        rounds = {}
        for policy in POLICIES:
            result = FunctionalGraphPulse(
                g, spec, scheduling=policy, block_size=8
            ).run()
            assert np.array_equal(result.values, reference)
            rounds[policy] = result.num_rounds
        assert all(r >= 1 for r in rounds.values())

    def test_occupancy_policy_orders_by_fullness(self, graph):
        engine = FunctionalGraphPulse(
            graph,
            algorithms.make_pagerank_delta(),
            scheduling="occupancy",
            block_size=8,
        )
        for vertex, delta in engine.spec.initial_events(graph).items():
            engine.queue.insert(vertex, delta)
        order = engine._bin_visit_order()
        occupancies = [engine.queue.bin_occupancy(b) for b in order]
        assert occupancies == sorted(occupancies, reverse=True)

    def test_reverse_policy_order(self, graph):
        engine = FunctionalGraphPulse(
            graph,
            algorithms.make_pagerank_delta(),
            scheduling="reverse",
        )
        order = engine._bin_visit_order()
        assert order == list(reversed(range(engine.queue.num_bins)))
