"""White-box tests for cycle-accelerator internals."""

import numpy as np
import pytest

from repro import algorithms
from repro.core import Event, GraphPulseAccelerator, optimized_config
from repro.core.accelerator import _GenerationStream
from repro.graph import CSRGraph, chain_graph, star_graph


def make_accel(graph, spec=None, **overrides):
    spec = spec or algorithms.make_pagerank_delta()
    return GraphPulseAccelerator(graph, spec, optimized_config(**overrides))


class TestBlockGrouping:
    def test_adjacent_vertices_grouped(self):
        acc = make_accel(chain_graph(300))
        batch = [Event(vertex=v, delta=1.0) for v in (0, 1, 2, 130, 131)]
        groups = acc._group_by_block(batch)
        assert [len(g) for g in groups] == [3, 2]

    def test_block_size_follows_config(self):
        acc = make_accel(chain_graph(300), prefetch_block_size=2)
        batch = [Event(vertex=v, delta=1.0) for v in (0, 1, 2, 3)]
        groups = acc._group_by_block(batch)
        assert [len(g) for g in groups] == [2, 2]

    def test_sweep_order_preserved_within_groups(self):
        acc = make_accel(chain_graph(300))
        batch = [Event(vertex=v, delta=1.0) for v in (5, 6, 7)]
        [group] = acc._group_by_block(batch)
        assert [e.vertex for e in group] == [5, 6, 7]


class TestGenerationStream:
    def test_admission_immediate_when_buffer_free(self):
        stream = _GenerationStream(0, buffer_entries=2)
        assert stream.admission_time(10) == 10

    def test_admission_waits_when_buffer_full(self):
        stream = _GenerationStream(0, buffer_entries=2)
        stream.admit(100)
        stream.admit(200)
        # both jobs unfinished at cycle 50; a slot frees at cycle 100
        assert stream.admission_time(50) == 100

    def test_finished_jobs_free_slots(self):
        stream = _GenerationStream(0, buffer_entries=2)
        stream.admit(10)
        stream.admit(20)
        assert stream.admission_time(30) == 30  # both completed

    def test_job_list_is_bounded(self):
        stream = _GenerationStream(0, buffer_entries=2)
        for i in range(1000):
            stream.admit(i)
        assert len(stream.jobs) <= 8  # trimmed to a small window
        assert stream.cursor == 999


class TestHubFanOut:
    def test_star_generates_one_event_per_leaf(self):
        g = star_graph(50, outward=True)
        spec = algorithms.make_bfs(root=0)
        acc = make_accel(g, spec)
        result = acc.run()
        # the hub's single event fans out to all 50 leaves exactly once
        assert result.events_processed == 51  # hub + leaves
        assert result.queue_stats["inserted"] == 51  # initial + 50

    def test_generation_paced_by_degree(self):
        # a 200-leaf hub needs >= 200 generation cycles on one stream
        g = star_graph(200, outward=True)
        spec = algorithms.make_bfs(root=0)
        result = make_accel(g, spec).run()
        assert result.stage_profile.generate >= 200


class TestEmitPath:
    def test_emitted_events_carry_ready_times(self):
        g = chain_graph(40)
        spec = algorithms.make_bfs(root=0)
        acc = make_accel(g, spec)
        acc.queue.insert(0, 0.0)
        acc._run_round(0)
        remaining = list(acc.queue)
        assert remaining, "chain propagation must enqueue successors"
        assert all(e.ready > 0 for e in remaining)

    def test_bin_insert_done_monotone_per_round(self):
        g = chain_graph(40)
        spec = algorithms.make_bfs(root=0)
        acc = make_accel(g, spec)
        result = acc.run()
        assert result.converged
        assert max(acc._bin_insert_done) <= result.total_cycles


class TestEdgeLineAttribution:
    def test_every_edge_generated_exactly_once(self):
        # vertices with unaligned edge slices: each edge must produce
        # exactly one generation cycle
        g = CSRGraph.from_edges(
            7, [(0, i) for i in range(1, 7)] + [(1, 2), (1, 3), (2, 3)]
        )
        spec = algorithms.make_connected_components()
        sym = algorithms.symmetrize(g)
        acc = make_accel(sym, spec)
        result = acc.run()
        fun_edges = result.stage_profile.generate
        # generation cycles == edges scanned by propagating events
        from repro.core import FunctionalGraphPulse

        functional = FunctionalGraphPulse(sym, spec).run()
        assert fun_edges == functional.traffic.edge_reads
