"""Resumed runs report whole-run counters.

A durable run stopped at round (or pass) ``STOP`` and resumed from its
newest checkpoint into a freshly built engine must report the
``rounds``, ``passes`` and ``stats`` work counters of the same run left
uninterrupted, floats bit for bit.  The engines stage their running
totals in every checkpoint and continue from them after ``restore``.
The cycle model's caches and pipelines restart cold, so its off-chip
bytes are only bounded below by the checkpoint's total.
"""

import struct

import pytest

from repro import algorithms
from repro.analysis import prepare_workload
from repro.core import build_engine
from repro.errors import NonConvergenceError
from repro.resilience import ResilienceConfig
from repro.resilience.durable import DurableCheckpointStore

#: the round (pass) at which the interrupted run stops
STOP = 7

#: sliced-mp fleet telemetry: how the work was spread over processes,
#: not how much work the run did
FLEET_STATS = ("worker_stats", "recoveries", "max_inflight")

ENGINES = [
    ("functional", {}, "max_rounds"),
    ("sliced", {"num_slices": 2}, "max_passes"),
    ("sliced-mp", {"num_slices": 2, "num_workers": 2}, "max_passes"),
    ("parallel-sliced", {"num_slices": 2}, "max_passes"),
]


@pytest.fixture(scope="module")
def workload():
    # a loose threshold keeps the durable sliced runs short (~15 passes)
    graph, _ = prepare_workload("WG", "pagerank", scale=0.03)
    return graph, algorithms.get_algorithm("pagerank", graph, threshold=1e-3)


def durable(run_dir, options, resume=False):
    return ResilienceConfig(
        checkpoint_interval=3,
        checkpoint_dir=str(run_dir),
        run_meta={
            "workload": {
                "algorithm": "pagerank",
                "dataset": "WG",
                "scale": 0.03,
            },
            "engine_options": options,
        },
        resume=resume,
    )


def stop(tmp_path, engine, workload, options, budget):
    """Run to the ``STOP`` budget: ``(run_dir, newest checkpoint)``."""
    run_dir = tmp_path / "victim"
    with pytest.raises(NonConvergenceError):
        build_engine(
            engine,
            workload,
            {**options, budget: STOP},
            resilience=durable(run_dir, options),
        ).run()
    store = DurableCheckpointStore(run_dir)
    store.open()
    restored = store.load_latest()
    assert restored is not None
    return run_dir, restored


def resume(run_dir, engine, workload, options, restored):
    """Restore ``restored`` into a freshly built engine and run it out."""
    handle = build_engine(
        engine, workload, options, resilience=durable(run_dir, options, True)
    )
    handle.restore(restored)
    return handle.run()


def counters(result):
    def exact(value):
        return struct.pack("<d", value) if isinstance(value, float) else value

    stats = {
        key: exact(value)
        for key, value in result.stats.items()
        if key not in FLEET_STATS
    }
    return result.rounds, result.passes, stats


@pytest.mark.parametrize(
    "engine,options,budget", ENGINES, ids=[e[0] for e in ENGINES]
)
def test_resumed_counters_equal_the_uninterrupted_run(
    tmp_path, workload, engine, options, budget
):
    reference = build_engine(
        engine,
        workload,
        options,
        resilience=durable(tmp_path / "ref", options),
    ).run()
    run_dir, restored = stop(tmp_path, engine, workload, options, budget)
    resumed = resume(run_dir, engine, workload, options, restored)
    assert 0 < restored.round_index < (reference.passes or reference.rounds)
    assert resumed.values.tobytes() == reference.values.tobytes()
    assert counters(resumed) == counters(reference)


def test_cycle_resume_continues_event_and_traffic_totals(tmp_path, workload):
    reference = build_engine(
        "cycle", workload, {}, resilience=durable(tmp_path / "ref", {})
    ).run()
    run_dir, restored = stop(tmp_path, "cycle", workload, {}, "max_rounds")
    resumed = resume(run_dir, "cycle", workload, {}, restored)
    assert resumed.values.tobytes() == reference.values.tobytes()
    assert resumed.rounds == reference.rounds
    for key in ("events_processed", "events_produced"):
        assert resumed.stats[key] == reference.stats[key], key
    assert restored.totals["offchip_bytes"] > 0
    assert resumed.stats["offchip_bytes"] >= restored.totals["offchip_bytes"]
    assert resumed.raw.useful_bytes >= restored.totals["useful_bytes"] > 0


@pytest.mark.parametrize(
    "engine,options,budget",
    [ENGINES[1], ("cycle", {}, "max_rounds")],
    ids=["sliced", "cycle"],
)
def test_checkpoint_without_totals_still_restores(
    tmp_path, workload, engine, options, budget
):
    """A checkpoint whose header lacks the totals (as older ones do)
    restores with every counter at 0 and still converges bitwise."""
    reference = build_engine(
        engine,
        workload,
        options,
        resilience=durable(tmp_path / "ref", options),
    ).run()
    run_dir, restored = stop(tmp_path, engine, workload, options, budget)
    restored.totals = {}
    resumed = resume(run_dir, engine, workload, options, restored)
    assert resumed.values.tobytes() == reference.values.tobytes()
    # the header's round index, not the totals, places the run
    position = "rounds" if engine == "cycle" else "passes"
    assert getattr(resumed, position) == getattr(reference, position)
    # without totals the counters cover only the resumed part
    processed = resumed.stats["events_processed"]
    assert 0 < processed < reference.stats["events_processed"]
