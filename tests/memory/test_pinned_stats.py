"""Pinned statistics of the memory layer under the cycle model.

The traced per-edge path of the cycle model shares the cache, DRAM and
resource code with the routed path, so the differential test in
``tests/core/test_cycle_differential.py`` cannot see a change that
alters both alike.  This module pins, for a small matrix, every counter
those layers write: each ``StatSet`` of the edge caches, DRAM banks,
channels and buses, processors, crossbar ports and bin pipelines, with
its key order, plus ``dram_stats``, the cycle count, the stage and
occupancy profiles and the useful bytes.  The Graphicionado baseline's
DRAM statistics are pinned too.  Component ``StatSet`` lists are pinned
as SHA-256 digests of their JSON (which tells ``1`` from ``1.0`` and
prints floats exactly); the headline numbers are pinned as values.

A second test checks identities between the layers' counters: every
burst is one bank request, one channel burst and one bus transfer of a
line, and every edge-cache miss is one DRAM edge access.

A change meant to alter the model re-pins by running this file as a
script (``PYTHONPATH=src python tests/memory/test_pinned_stats.py``),
which prints ``PINNED`` for the current code.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import algorithms
from repro.baselines import GraphicionadoAccelerator
from repro.core import GraphPulseAccelerator, baseline_config, optimized_config
from repro.graph import rmat_graph

CONFIGS = {"optimized": optimized_config, "baseline": baseline_config}
ALGORITHMS = ("pagerank", "sssp")


def _graph():
    graph = rmat_graph(256, 2048, seed=11)
    return graph.with_weights(1.0 + (graph.adjacency % 3).astype(float))


def _spec(algorithm, graph):
    if algorithm == "sssp":
        return algorithms.make_sssp(root=int(np.argmax(graph.out_degrees())))
    return algorithms.make_pagerank_delta()


def _items(stat_sets):
    return [list(s.snapshot().items()) for s in stat_sets]


def _digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cycle_groups(accelerator):
    dram = accelerator.dram
    xbar = accelerator.crossbar
    return {
        "edge_caches": _items(c.stats for c in accelerator.edge_caches),
        "banks": _items(b.stats for ch in dram.channels for b in ch.banks),
        "channels": _items(ch.stats for ch in dram.channels),
        "buses": _items(ch.bus.stats for ch in dram.channels),
        "processors": _items(p.stats for p in accelerator.processors),
        "crossbar_ports": _items(p.stats for p in xbar._inputs + xbar._outputs),
        "crossbar": _items([xbar.stats]),
        "bin_pipelines": _items(p.stats for p in accelerator.bin_pipelines),
        "engine": _items([accelerator.stats]),
    }


def observe_cycle(algorithm, config):
    graph = _graph()
    accelerator = GraphPulseAccelerator(
        graph, _spec(algorithm, graph), CONFIGS[config]()
    )
    result = accelerator.run()
    return {
        "total_cycles": result.total_cycles,
        "useful_bytes": result.useful_bytes,
        "dram_stats": list(result.dram_stats.items()),
        "stage": dataclasses.asdict(result.stage_profile),
        "occupancy": dataclasses.asdict(result.occupancy),
        "digests": {
            name: _digest(items)
            for name, items in _cycle_groups(accelerator).items()
        },
    }


def observe_graphicionado(algorithm):
    graph = _graph()
    result = GraphicionadoAccelerator(graph, _spec(algorithm, graph)).run()
    return {
        "total_cycles": result.total_cycles,
        "dram_stats": list(result.dram_stats.items()),
    }


def observe_all():
    observed = {
        f"cycle-{algorithm}-{config}": observe_cycle(algorithm, config)
        for algorithm in ALGORITHMS
        for config in CONFIGS
    }
    for algorithm in ALGORITHMS:
        observed[f"graphicionado-{algorithm}"] = observe_graphicionado(
            algorithm
        )
    return observed


def _canonical(value):
    # tuples and lists print alike; 1 and 1.0 do not
    return json.loads(json.dumps(value))


PINNED = {
    "cycle-pagerank-optimized": {
        "total_cycles": 94841,
        "useful_bytes": 574076.0,
        "dram_stats": [
            ["accesses", 4636.0],
            ["vertex_accesses", 4256.0],
            ["bytes", 296704.0],
            ["vertex_bytes", 272384.0],
            ["read_bytes", 160512.0],
            ["edge_accesses", 380.0],
            ["edge_bytes", 24320.0],
            ["write_bytes", 136192.0],
        ],
        "stage": {
            "vertex_mem": 14234.0,
            "process": 49832.0,
            "gen_buffer": 169428.0,
            "edge_mem": 7372.0,
            "generate": 93687.0,
            "events": 12458,
        },
        "occupancy": {
            "processor_vertex_read": 14234.0,
            "processor_process": 49832.0,
            "processor_stall": 0.0,
            "generator_edge_read": 7372.0,
            "generator_generate": 93687.0,
            "generator_stall": 0.0,
        },
        "digests": {
            "edge_caches": "ae531a192781e1df",
            "banks": "95bdd65b23d4e39d",
            "channels": "94ad95c108a4e351",
            "buses": "fdf2a5ee281d3ab8",
            "processors": "fdbe274dfb6fdf2e",
            "crossbar_ports": "33e22220d2616768",
            "crossbar": "fff10899fa9faed6",
            "bin_pipelines": "605ee1c6bede86a6",
            "engine": "7b9796c53258aa45",
        },
    },
    "cycle-pagerank-baseline": {
        "total_cycles": 341104,
        "useful_bytes": 574076.0,
        "dram_stats": [
            ["accesses", 36221.0],
            ["vertex_accesses", 24916.0],
            ["bytes", 2318144.0],
            ["vertex_bytes", 1594624.0],
            ["read_bytes", 1520832.0],
            ["write_bytes", 797312.0],
            ["edge_accesses", 11305.0],
            ["edge_bytes", 723520.0],
        ],
        "stage": {
            "vertex_mem": 13192322.0,
            "process": 49832.0,
            "gen_buffer": 0.0,
            "edge_mem": 494576.0,
            "generate": 93687.0,
            "events": 12458,
        },
        "occupancy": {
            "processor_vertex_read": 13192322.0,
            "processor_process": 49832.0,
            "processor_stall": 0.0,
            "generator_edge_read": 494576.0,
            "generator_generate": 93687.0,
            "generator_stall": 0.0,
        },
        "digests": {
            "edge_caches": "ca53176c2577cbd7",
            "banks": "d1e140b4bca0f631",
            "channels": "f818d06dab5545f9",
            "buses": "f397f8efdd83f129",
            "processors": "6810b21be47bf173",
            "crossbar_ports": "008114701a8347e7",
            "crossbar": "040a6b3cb3d7f2e7",
            "bin_pipelines": "605ee1c6bede86a6",
            "engine": "7b9796c53258aa45",
        },
    },
    "cycle-sssp-optimized": {
        "total_cycles": 2604,
        "useful_bytes": 10300.0,
        "dram_stats": [
            ["accesses", 305.0],
            ["vertex_accesses", 171.0],
            ["bytes", 19520.0],
            ["vertex_bytes", 10944.0],
            ["read_bytes", 14400.0],
            ["edge_accesses", 134.0],
            ["edge_bytes", 8576.0],
            ["write_bytes", 5120.0],
        ],
        "stage": {
            "vertex_mem": 653.0,
            "process": 1412.0,
            "gen_buffer": 3689.0,
            "edge_mem": 1059.0,
            "generate": 1479.0,
            "events": 353,
        },
        "occupancy": {
            "processor_vertex_read": 653.0,
            "processor_process": 1412.0,
            "processor_stall": 0.0,
            "generator_edge_read": 1059.0,
            "generator_generate": 1479.0,
            "generator_stall": 0.0,
        },
        "digests": {
            "edge_caches": "7beeac110682709b",
            "banks": "06f7675087997435",
            "channels": "c5b10185d274ff59",
            "buses": "ba1b347d225671e0",
            "processors": "fdbe274dfb6fdf2e",
            "crossbar_ports": "017a39e98c75ed62",
            "crossbar": "8ed652690f410784",
            "bin_pipelines": "6461b127766e8fa4",
            "engine": "cd57bc70e555bbad",
        },
    },
    "cycle-sssp-baseline": {
        "total_cycles": 6695,
        "useful_bytes": 10300.0,
        "dram_stats": [
            ["accesses", 790.0],
            ["vertex_accesses", 548.0],
            ["bytes", 50560.0],
            ["vertex_bytes", 35072.0],
            ["read_bytes", 38080.0],
            ["write_bytes", 12480.0],
            ["edge_accesses", 242.0],
            ["edge_bytes", 15488.0],
        ],
        "stage": {
            "vertex_mem": 199036.0,
            "process": 1412.0,
            "gen_buffer": 0.0,
            "edge_mem": 9817.0,
            "generate": 1479.0,
            "events": 353,
        },
        "occupancy": {
            "processor_vertex_read": 199036.0,
            "processor_process": 1412.0,
            "processor_stall": 0.0,
            "generator_edge_read": 9817.0,
            "generator_generate": 1479.0,
            "generator_stall": 0.0,
        },
        "digests": {
            "edge_caches": "f93b2b6893701db0",
            "banks": "a291e82a00a3ce71",
            "channels": "9ac00b2e3e54cfbf",
            "buses": "d34bb530311bc606",
            "processors": "6810b21be47bf173",
            "crossbar_ports": "cd0a6d5566ac3c6f",
            "crossbar": "7d4fe6bc947752b6",
            "bin_pipelines": "6461b127766e8fa4",
            "engine": "cd57bc70e555bbad",
        },
    },
    "graphicionado-pagerank": {
        "total_cycles": 67981,
        "dram_stats": [
            ["accesses", 12622.0],
            ["vertex_accesses", 170.0],
            ["bytes", 1474880.0],
            ["vertex_bytes", 252480.0],
            ["read_bytes", 1345216.0],
            ["edge_accesses", 12452.0],
            ["edge_bytes", 1222400.0],
            ["write_bytes", 129664.0],
        ],
    },
    "graphicionado-sssp": {
        "total_cycles": 1212,
        "dram_stats": [
            ["accesses", 163.0],
            ["vertex_accesses", 8.0],
            ["bytes", 19840.0],
            ["vertex_bytes", 4800.0],
            ["read_bytes", 16768.0],
            ["edge_accesses", 155.0],
            ["edge_bytes", 15040.0],
            ["write_bytes", 3072.0],
        ],
    },
}


@pytest.mark.parametrize(
    "case",
    [f"cycle-{a}-{c}" for a in ALGORITHMS for c in CONFIGS]
    + [f"graphicionado-{a}" for a in ALGORITHMS],
)
def test_statistics_match_pinned(case):
    kind, algorithm, *config = case.split("-")
    if kind == "cycle":
        observed = observe_cycle(algorithm, config[0])
    else:
        observed = observe_graphicionado(algorithm)
    expected = PINNED[case]
    observed = _canonical(observed)
    for key in expected:
        # json.dumps also compares the types of the numbers
        assert json.dumps(observed[key]) == json.dumps(expected[key]), key
    assert observed.keys() == expected.keys()


def _total(stat_sets, key):
    return sum(s.get(key) for s in stat_sets)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_counters_agree_across_layers(algorithm, config):
    graph = _graph()
    accelerator = GraphPulseAccelerator(
        graph, _spec(algorithm, graph), CONFIGS[config]()
    )
    result = accelerator.run()
    channels = accelerator.dram.channels
    banks = [b.stats for ch in channels for b in ch.banks]
    line = accelerator.dram.config.line_bytes
    bursts = result.dram_stats["bytes"] / line
    assert bursts > 0
    assert _total(banks, "row_hits") + _total(banks, "row_misses") == bursts
    assert _total(banks, "requests") == bursts
    assert _total((ch.stats for ch in channels), "bursts") == bursts
    assert _total((ch.bus.stats for ch in channels), "transfers") == bursts
    assert _total((ch.stats for ch in channels), "bytes") == (
        result.dram_stats["bytes"]
    )
    assert result.dram_stats.get("edge_accesses", 0.0) == _total(
        (c.stats for c in accelerator.edge_caches), "misses"
    )


def pinned_source(observed):
    """``observed`` as the ``PINNED = {...}`` literal of this module."""
    lines = ["PINNED = {"]
    for case, fields in _canonical(observed).items():
        lines.append(f"    {json.dumps(case)}: {{")
        for key, value in fields.items():
            if isinstance(value, dict):
                lines.append(f"        {json.dumps(key)}: {{")
                lines += [
                    f"            {json.dumps(k)}: {json.dumps(v)},"
                    for k, v in value.items()
                ]
                lines.append("        },")
            elif isinstance(value, list):
                lines.append(f"        {json.dumps(key)}: [")
                lines += [f"            {json.dumps(v)}," for v in value]
                lines.append("        ],")
            else:
                lines.append(f"        {json.dumps(key)}: {json.dumps(value)},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(pinned_source(observe_all()))
