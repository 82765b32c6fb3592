"""Extension study: multi-accelerator slicing (Section IV-F, option b).

The paper processes slices one at a time (option a) and leaves "multiple
accelerator chips ... streaming inter-slice events in real-time" as an
unexplored alternative.  This benchmark runs PageRank on the TW proxy
with 1/2/4/8 parallel accelerators, measuring sequential steps (the
passes of the ``parallel-sliced`` preset, the parallel analogue of
rounds), inter-accelerator messages and load balance.
"""

import numpy as np
from conftest import publish

from repro.analysis import format_table, prepare_workload
from repro.core import build_engine


def run_scaling_sweep():
    graph, spec = prepare_workload("TW", "pagerank", scale=0.03)
    single = build_engine("functional", (graph, spec)).run().raw
    rows = [["1 (monolithic)", single.num_rounds, 0, "1.00"]]
    results = {1: None}
    for num_accels in (2, 4, 8):
        result = build_engine(
            "parallel-sliced", (graph, spec), {"num_slices": num_accels}
        ).run()
        assert np.allclose(result.values, single.values, atol=1e-7)
        results[num_accels] = result
        rows.append(
            [
                str(num_accels),
                result.passes,
                result.stats["messages"],
                f"{result.stats['load_balance']:.2f}",
            ]
        )
    table = format_table(
        [
            "accelerators",
            "sequential steps",
            "inter-chip messages",
            "load balance",
        ],
        rows,
        title=(
            "Extension (measured): multi-accelerator scaling, PageRank "
            "on TW proxy"
        ),
    )
    publish("multi_accelerator", table)
    return results


def test_multi_accelerator_scaling(benchmark):
    results = benchmark.pedantic(run_scaling_sweep, rounds=1, iterations=1)
    # more chips -> more inter-chip traffic (cut grows)
    assert (
        results[8].stats["messages"] >= results[2].stats["messages"]
    )
    for num_accels in (2, 4, 8):
        assert results[num_accels].converged
        assert 0.0 < results[num_accels].stats["load_balance"] <= 1.0
