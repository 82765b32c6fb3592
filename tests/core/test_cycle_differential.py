"""Differential test: the cycle model's per-bin routing against per edge.

An untraced :class:`GraphPulseAccelerator` routes each drained bin's
generated events as arrays (crossbar, coalescer pipelines and queue
insert as next-free chains).  Under an installed tracer it sends every
event through the per-edge ``_emit`` path instead, one crossbar send,
one pipeline issue and one scalar queue insert at a time, which makes
the traced run the reference.  Over generated graph shapes, every
algorithm and both paper configurations, with varied bins, crossbar
ports and coalescer latency, the two must agree bit for bit: values,
cycles, rounds, event counts, stage and occupancy profiles, queue and
DRAM statistics, useful bytes and every resource's ``StatSet``.
"""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import algorithm_names
from repro.core import GraphPulseAccelerator, baseline_config, optimized_config
from repro.graph import CSRGraph, rmat_graph, star_graph
from repro.obs import trace as obs_trace

from .test_kernel_differential import spec_for

CONFIGS = {"optimized": optimized_config, "baseline": baseline_config}


def _stats(stat_set):
    # key order too: the routed path creates keys in the scalar order
    return list(stat_set.snapshot().items())


def observe(accelerator, traced):
    """Every deterministic output of one run, for exact comparison."""
    if traced:
        with obs_trace.tracing():
            result = accelerator.run()
    else:
        result = accelerator.run()
    xbar = accelerator.crossbar
    ports = xbar._inputs + xbar._outputs
    return {
        "values": result.values.tobytes(),
        "total_cycles": (type(result.total_cycles), result.total_cycles),
        "num_rounds": result.num_rounds,
        "events": (result.events_processed, result.events_produced),
        "stage": dataclasses.asdict(result.stage_profile),
        "occupancy": dataclasses.asdict(result.occupancy),
        "queue_stats": result.queue_stats,
        "dram_stats": result.dram_stats,
        "useful_bytes": result.useful_bytes,
        "crossbar": _stats(xbar.stats),
        "ports": [(p.next_free, _stats(p.stats)) for p in ports],
        "pipelines": [
            (p.next_issue, _stats(p.stats)) for p in accelerator.bin_pipelines
        ],
        "processors": [
            (p.next_free, _stats(p.stats)) for p in accelerator.processors
        ],
        "engine": _stats(accelerator.stats),
        "bin_insert_done": accelerator._bin_insert_done.tolist(),
    }


@st.composite
def graph_shapes(draw):
    """Directed graphs with self-loops, duplicate edges, sinks, isolated
    vertices and, through a hub, out-edge slices spanning many lines."""
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    hub = draw(vertex)
    fanout = draw(st.integers(min_value=0, max_value=2 * n))
    edges += [(hub, (hub + 1 + i) % n) for i in range(fanout)]
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0]),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return CSRGraph.from_edges(n, edges, weights=weights)


geometries = st.fixed_dictionaries(
    {
        "num_bins": st.sampled_from([1, 3, 8]),
        "queue_block_size": st.sampled_from([2, 4, 128]),
        "crossbar_ports": st.sampled_from([1, 2, 16]),
        "coalescer_latency_cycles": st.sampled_from([1, 4, 9]),
    }
)


def _weighted(graph):
    return graph.with_weights(1.0 + (graph.adjacency % 3).astype(float))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("algorithm", algorithm_names())
@given(graph=graph_shapes(), geometry=geometries)
@example(graph=_weighted(star_graph(60, outward=True)), geometry={})
@example(
    graph=_weighted(rmat_graph(96, 700, seed=3)),
    geometry={"num_bins": 3, "queue_block_size": 4, "crossbar_ports": 2},
)
@settings(max_examples=8, deadline=None)
def test_routed_run_matches_per_edge_run(algorithm, config, graph, geometry):
    graph, spec = spec_for(algorithm, graph)
    cfg = CONFIGS[config](**geometry)
    routed = observe(GraphPulseAccelerator(graph, spec, cfg), traced=False)
    per_edge = observe(GraphPulseAccelerator(graph, spec, cfg), traced=True)
    assert routed == per_edge


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_resumed_run_matches_per_edge_run(config):
    graph, spec = spec_for("pagerank", _weighted(rmat_graph(128, 900, seed=5)))
    cfg = CONFIGS[config](num_bins=4, queue_block_size=8, crossbar_ports=4)
    # a restart point at a round barrier, as the cycle engine captures it
    warm = GraphPulseAccelerator(graph, spec, cfg)
    for vertex, delta in spec.initial_events(graph).items():
        warm.queue.insert(vertex, delta)
    at, processed, produced = 0, 0, 0
    for _ in range(3):
        at, count, _ = warm._run_round(at)
        processed += count
    assert len(warm.queue), "the restart point must leave work pending"
    restored = SimpleNamespace(
        state=warm.state.copy(),
        queue_snapshot=warm.queue.snapshot(),
        round_index=3,
        at=float(at),
        totals={
            "events_processed": processed,
            "events_produced": warm.queue.stats.inserted,
        },
        fault_cursor=None,
    )

    def resumed(traced):
        accelerator = GraphPulseAccelerator(graph, spec, cfg)
        accelerator.restore(restored)
        return observe(accelerator, traced)

    assert resumed(traced=False) == resumed(traced=True)
