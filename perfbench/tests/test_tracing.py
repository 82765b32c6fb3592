"""The traced run only observes: same outputs, every wrapper removed.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workloads run here at a few percent of their benchmark scale.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import measure
from layers import LayerTrace, wrapped_attributes
from repro.obs.export import load_chrome_trace
from workloads import WORKLOADS, check_values

SEED = 3


def _small(name):
    return replace(WORKLOADS[name], scale=0.02)


def _deterministic(solved):
    """Work counts plus the engine's own schedule and simulated totals."""
    result = solved.result
    out = dict(solved.counts, rounds=result.rounds, passes=result.passes)
    if result.engine == "cycle":
        out["cycles"] = result.raw.total_cycles
    if result.engine == "sliced":
        out["spill_bytes"] = result.raw.total_spill_bytes
    return out


def _same_objects(a, b):
    return len(a) == len(b) and all(
        x[0] is y[0] and x[1] == y[1] and x[2] is y[2] for x, y in zip(a, b)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path):
    workload = _small(name)
    untraced = measure.solve_once(workload, SEED)
    before = wrapped_attributes()
    trace = LayerTrace()
    with trace.installed():
        traced = measure.solve_once(workload, SEED, trace)
    assert _same_objects(before, wrapped_attributes())

    assert np.array_equal(untraced.result.values, traced.result.values)
    assert _deterministic(untraced) == _deterministic(traced)
    assert trace.acc["queue.insert"].calls > 0
    assert trace.acc["algorithms.apply"].calls == traced.counts[
        "events_processed"
    ]

    values = measure.layer_values(trace, 0.0, traced, 1)
    assert {name for name, *_ in measure.PER_LAYER} - {"check.max_abs_err"} <= set(
        values
    )
    for key, acc in trace.acc.items():
        assert acc.self_seconds <= acc.seconds + 1e-9, key

    path = tmp_path / "spans.json"
    trace.write_chrome_trace(str(path))
    events = load_chrome_trace(str(path))["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"setup", "solve", "engines.build_engine"} <= names


def test_wrappers_removed_when_the_run_raises():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with LayerTrace().installed():
            raise RuntimeError("boom")
    assert _same_objects(before, wrapped_attributes())


def test_reference_check_fails_a_wrong_value():
    workload = _small("sssp-tw")
    solved = measure.solve_once(workload, SEED)
    args = (workload, solved.graph, solved.spec, solved.root)
    assert check_values(*args, solved.result.values, True).ok
    assert not check_values(*args, solved.result.values, False).ok
    wrong = solved.result.values.copy()
    last = np.isfinite(wrong).nonzero()[0][-1]
    wrong[last] = np.nextafter(wrong[last], np.inf)
    assert not check_values(*args, wrong, True).ok


def test_benchmark_json_matches_the_tables():
    spec = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(measure.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(measure.PER_LAYER)
