"""Tests for the multi-process sliced runtime (leases, crash recovery).

The load-bearing property is *bit-identity with the sequential sliced
engine* — with and without a worker being SIGKILLed mid-pass, and for
every worker count.  Under the default barrier dispatch all workers
drain their slices concurrently within a pass and the supervisor merges
the buffered outbound spills in deterministic (slice, emission) order,
so every float64 of the final state (and the pass/round/spill
accounting) must match the sequential engine exactly.
"""

import os

import numpy as np
import pytest

from repro import algorithms
from repro.core import build_engine
from repro.core.mpsliced import (
    KILL_WORKER_ENV,
    MultiprocessSlicedGraphPulse,
    _parse_kill_spec,
)
from repro.core.slicing import resolve_partition
from repro.errors import LeaseHeldError, NonConvergenceError, ReproError
from repro.graph import chain_graph, contiguous_partition, random_weights, rmat_graph
from repro.resilience import FaultPlan, ResilienceConfig
from repro.resilience.lease import SliceLease, lease_path

WORKLOAD = {"num_slices": 3, "num_workers": 2}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(300, 1800, seed=41)


def _run_sequential(graph, spec):
    return build_engine("sliced", (graph, spec), {"num_slices": 3}).run()


class TestBitIdentity:
    def test_pagerank_matches_sequential_exactly(self, graph):
        spec = algorithms.make_pagerank_delta()
        sequential = _run_sequential(graph, spec)
        mp = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        assert mp.values.tobytes() == sequential.values.tobytes()
        assert mp.passes == sequential.passes
        assert mp.rounds == sequential.rounds
        assert mp.stats["spill_bytes"] == sequential.stats["spill_bytes"]
        assert mp.stats["workers"] == 2
        assert mp.stats["recoveries"] == 0

    def test_sssp_matches_sequential_exactly(self, graph):
        g = random_weights(graph, seed=7)
        root = int(np.argmax(g.out_degrees()))
        spec = algorithms.make_sssp(root=root)
        sequential = _run_sequential(g, spec)
        mp = build_engine("sliced-mp", (g, spec), dict(WORKLOAD)).run()
        assert mp.values.tobytes() == sequential.values.tobytes()

    def test_more_workers_than_slices_is_rejected(self, graph):
        # a typed error, never a silent clamp: every worker must own at
        # least one slice or the extras idle while costing spawn time
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="exceeds the slice count"):
            build_engine(
                "sliced-mp",
                (graph, spec),
                {"num_slices": 2, "num_workers": 16},
            )


class TestConcurrentDispatch:
    """The tentpole oracle: concurrency must never show in the bits."""

    ALGORITHM_SET = ("pagerank", "bfs", "cc", "sssp", "adsorption")

    @pytest.fixture(scope="class")
    def workloads(self):
        from repro.analysis import prepare_workload

        return {
            name: prepare_workload("WG", name, scale=0.03)
            for name in self.ALGORITHM_SET
        }

    @pytest.mark.parametrize("algorithm", ALGORITHM_SET)
    def test_worker_matrix_bit_identical(self, workloads, algorithm):
        # both executors under both schedules: full drain per activation
        # (a cap no activation reaches; the default drains only exact
        # reduces) and one round per activation (the parallel-sliced
        # preset); a loop, not a parameter, so the test ids stay put
        graph, spec = workloads[algorithm]
        for rounds_per_activation in (10**6, 1):
            options = {
                "num_slices": 4,
                "rounds_per_activation": rounds_per_activation,
            }
            sequential = build_engine("sliced", (graph, spec), options).run()
            for workers in (1, 2, 4):
                mp = build_engine(
                    "sliced-mp",
                    (graph, spec),
                    {**options, "num_workers": workers},
                ).run()
                label = (algorithm, rounds_per_activation, workers)
                assert (
                    mp.values.tobytes() == sequential.values.tobytes()
                ), label
                assert mp.raw.num_passes == sequential.raw.num_passes, label
                assert (
                    mp.raw.total_rounds == sequential.raw.total_rounds
                ), label
                assert mp.raw.activations == sequential.raw.activations, label
                assert (
                    mp.stats["spill_bytes"] == sequential.stats["spill_bytes"]
                ), label
                assert 1 <= mp.stats["max_inflight"] <= workers, label

    def test_workers_overlap_within_a_pass(self, workloads):
        # the concurrency proof: the supervisor saw every worker holding
        # an outstanding activation at once during some committed pass
        # (the first pagerank pass activates all four seeded slices)
        graph, spec = workloads["pagerank"]
        mp = build_engine(
            "sliced-mp",
            (graph, spec),
            {"num_slices": 4, "num_workers": 4},
        ).run()
        assert mp.stats["max_inflight"] == 4


class TestKillRecovery:
    def test_worker_sigkill_recovers_bit_identically(
        self, graph, monkeypatch
    ):
        spec = algorithms.make_pagerank_delta()
        sequential = _run_sequential(graph, spec)
        # kill the worker owning slice 1 while it drains pass 2
        monkeypatch.setenv(KILL_WORKER_ENV, "1:2")
        mp = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        assert mp.stats["recoveries"] == 1
        assert mp.values.tobytes() == sequential.values.tobytes()
        assert mp.passes == sequential.passes
        assert mp.rounds == sequential.rounds
        assert mp.stats["spill_bytes"] == sequential.stats["spill_bytes"]

    def test_concurrent_pass_sigkill_recovers_bit_identically(
        self, graph, monkeypatch
    ):
        # kill one of THREE live workers mid-pass: the supervisor must
        # drain the survivors' stale results (straggler drain), roll
        # back the pass snapshot, respawn, and still finish bit-equal
        spec = algorithms.make_pagerank_delta()
        sequential = _run_sequential(graph, spec)
        monkeypatch.setenv(KILL_WORKER_ENV, "1:2")
        mp = build_engine(
            "sliced-mp",
            (graph, spec),
            {"num_slices": 3, "num_workers": 3},
        ).run()
        assert mp.stats["recoveries"] == 1
        assert mp.stats["max_inflight"] >= 2
        assert mp.raw.worker_stats[1]["lease_recoveries"] == 1
        assert mp.values.tobytes() == sequential.values.tobytes()
        assert mp.passes == sequential.passes
        assert mp.rounds == sequential.rounds

    def test_kill_at_first_pass_first_slice(self, graph, monkeypatch):
        spec = algorithms.make_pagerank_delta()
        sequential = _run_sequential(graph, spec)
        monkeypatch.setenv(KILL_WORKER_ENV, "0:0")
        mp = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        assert mp.stats["recoveries"] == 1
        assert mp.values.tobytes() == sequential.values.tobytes()

    def test_kill_during_durable_run_replays_journal(
        self, graph, monkeypatch, tmp_path
    ):
        # NOTE: resilience mode changes the sliced trajectory (journal
        # coalescing and watchdog accounting), so the bit-identity
        # reference is a *durable* sequential run, not a plain one.
        spec = algorithms.make_pagerank_delta()

        def _config(run_dir, options):
            return ResilienceConfig(
                checkpoint_interval=2,
                checkpoint_dir=str(run_dir),
                run_meta={
                    "workload": {
                        "algorithm": "pagerank",
                        "dataset": "x",
                        "scale": 1.0,
                    },
                    "engine_options": options,
                },
            )

        sequential = build_engine(
            "sliced",
            (graph, spec),
            {"num_slices": 3},
            resilience=_config(tmp_path / "seq", {"num_slices": 3}),
        ).run()
        run_dir = tmp_path / "run"
        monkeypatch.setenv(KILL_WORKER_ENV, "2:3")
        mp = build_engine(
            "sliced-mp",
            (graph, spec),
            dict(WORKLOAD),
            resilience=_config(run_dir, dict(WORKLOAD)),
        ).run()
        assert mp.stats["recoveries"] == 1
        assert mp.values.tobytes() == sequential.values.tobytes()
        assert mp.passes == sequential.passes
        # the journal survived the kill and stayed replayable
        assert (run_dir / "journal.bin").exists()

    def test_durable_kill_writes_the_sequential_journal_and_checkpoints(
        self, monkeypatch, tmp_path
    ):
        # the one pass driver's update phase is shared: a recovered
        # worker-pool run leaves the exact durable artifacts of an
        # in-process run, and only the checkpoints' engine name differs
        from repro.analysis import prepare_workload
        from repro.resilience.durable import DurableCheckpointStore

        graph, spec = prepare_workload("WG", "pagerank", scale=0.05)
        monkeypatch.setenv(KILL_WORKER_ENV, "1:2")
        run_dirs = {}
        for engine, options in (
            ("sliced", {"num_slices": 3}),
            ("sliced-mp", {"num_slices": 3, "num_workers": 3}),
        ):
            run_dirs[engine] = tmp_path / engine
            config = ResilienceConfig(
                checkpoint_interval=3,
                checkpoint_dir=str(run_dirs[engine]),
                run_meta={
                    "workload": {
                        "algorithm": "pagerank",
                        "dataset": "WG",
                        "scale": 0.05,
                    },
                    "engine_options": options,
                },
            )
            result = build_engine(
                engine, (graph, spec), options, resilience=config
            ).run()
        assert result.stats["recoveries"] == 1
        seq_dir, mp_dir = run_dirs["sliced"], run_dirs["sliced-mp"]
        assert (seq_dir / "journal.bin").read_bytes() == (
            mp_dir / "journal.bin"
        ).read_bytes()

        def spill_bits(snapshot):
            return [
                {
                    vertex: (np.float64(event.delta).tobytes(), event.generation)
                    for vertex, event in bucket.items()
                }
                for bucket in snapshot
            ]

        stores = [DurableCheckpointStore(d) for d in (seq_dir, mp_dir)]
        seqs = [
            [int(entry["seq"]) for entry in store.open()["checkpoints"]]
            for store in stores
        ]
        assert seqs[0] == seqs[1] and seqs[0]
        for seq in seqs[0]:
            ours, theirs = (store.load(seq) for store in stores)
            assert (ours.engine, theirs.engine) == ("sliced", "sliced-mp")
            assert ours.state.tobytes() == theirs.state.tobytes(), seq
            assert ours.round_index == theirs.round_index, seq
            assert ours.journal_commit == theirs.journal_commit, seq
            assert spill_bits(ours.queue_snapshot) == spill_bits(
                theirs.queue_snapshot
            ), seq

    def test_kill_spec_parsing(self):
        assert _parse_kill_spec("1:2") == (1, 2)
        assert _parse_kill_spec(None) is None
        assert _parse_kill_spec("") is None
        # a typo must not silently run without the kill
        with pytest.raises(ReproError, match=KILL_WORKER_ENV):
            _parse_kill_spec("nonsense")


class TestLeaseProtocol:
    def test_run_writes_and_releases_leases(self, graph, tmp_path):
        spec = algorithms.make_pagerank_delta()
        mp = build_engine(
            "sliced-mp",
            (graph, spec),
            {**WORKLOAD, "lease_dir": str(tmp_path)},
        ).run()
        assert mp.converged
        # all leases released on clean shutdown
        for slice_index in range(3):
            assert not lease_path(tmp_path, slice_index).exists()

    def test_live_foreign_lease_rejects_the_run(self, graph, tmp_path):
        spec = algorithms.make_pagerank_delta()
        SliceLease.acquire(tmp_path, 1, owner="another-live-run")
        with pytest.raises(LeaseHeldError):
            build_engine(
                "sliced-mp",
                (graph, spec),
                {**WORKLOAD, "lease_dir": str(tmp_path)},
            ).run()

    def test_stale_leftover_leases_are_swept(self, graph, tmp_path):
        spec = algorithms.make_pagerank_delta()
        # a dead pid's leftover lease (prior SIGKILLed run)
        SliceLease.acquire(tmp_path, 0, owner="dead-run", pid=2**22 + 12345)
        mp = build_engine(
            "sliced-mp",
            (graph, spec),
            {**WORKLOAD, "lease_dir": str(tmp_path)},
        ).run()
        assert mp.converged


class TestGuards:
    def test_fault_plans_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        config = ResilienceConfig(
            fault_plan=FaultPlan.uniform(0.01, seed=0, kinds=("drop",))
        )
        with pytest.raises(ReproError, match="fault injection"):
            build_engine(
                "sliced-mp", (graph, spec), dict(WORKLOAD), resilience=config
            )

    def test_round_limit_abort_names_the_engine(self):
        # an unfinished chain trips the pass limit; the diagnostic must
        # name sliced-mp, not the sequential engine it inherits from
        partition = contiguous_partition(chain_graph(40), 4)
        with pytest.raises(NonConvergenceError, match="did not converge") as info:
            MultiprocessSlicedGraphPulse(
                partition,
                algorithms.make_bfs(root=0),
                num_workers=2,
                max_passes=1,
                rounds_per_activation=1,
            ).run()
        diagnostic = info.value.diagnostic
        assert diagnostic["engine"] == "sliced-mp"
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["queue_occupancy"] > 0

    def test_zero_workers_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        partition = resolve_partition(graph, num_slices=2)
        with pytest.raises(ReproError, match="num_workers"):
            MultiprocessSlicedGraphPulse(partition, spec, num_workers=0)

    def test_resilience_without_faults_is_accepted(self, graph):
        spec = algorithms.make_pagerank_delta()
        config = ResilienceConfig()
        mp = build_engine(
            "sliced-mp", (graph, spec), dict(WORKLOAD), resilience=config
        ).run()
        assert mp.converged
        assert mp.resilience is not None


class TestWorkerTelemetry:
    def test_fault_free_telemetry_accounts_for_all_work(self, graph):
        spec = algorithms.make_pagerank_delta()
        result = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD))
        mp = result.run()
        raw = mp.raw
        assert len(raw.worker_stats) == 2
        assert [w["worker"] for w in raw.worker_stats] == [0, 1]
        # every activation/event/round is attributed to exactly one worker
        assert sum(w["activations"] for w in raw.worker_stats) == len(
            raw.activations
        )
        assert sum(w["events_drained"] for w in raw.worker_stats) == sum(
            a.events_processed for a in raw.activations
        )
        assert sum(w["rounds"] for w in raw.worker_stats) == raw.total_rounds
        # at the pass barrier each worker waits out the others' rounds:
        # summed over workers, waits equal (workers-1) x total rounds
        assert sum(
            w["barrier_wait_rounds"] for w in raw.worker_stats
        ) == raw.total_rounds * (len(raw.worker_stats) - 1)
        assert all(w["lease_recoveries"] == 0 for w in raw.worker_stats)
        assert all(w["journal_replays"] == 0 for w in raw.worker_stats)

    def test_kill_rollback_keeps_committed_telemetry_identical(
        self, graph, monkeypatch
    ):
        spec = algorithms.make_pagerank_delta()
        clean = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        monkeypatch.setenv(KILL_WORKER_ENV, "1:2")
        killed = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        # recovery counters record the death on the owning worker...
        assert killed.raw.worker_stats[1]["lease_recoveries"] == 1
        # (non-durable run: nothing to replay from a journal)
        assert killed.raw.worker_stats[1]["journal_replays"] == 0
        assert killed.raw.worker_stats[0]["lease_recoveries"] == 0
        # ...while the committed work counters match the clean run exactly:
        # the aborted pass's partial telemetry was rolled back with the state
        for kw, cw in zip(killed.raw.worker_stats, clean.raw.worker_stats):
            for key in ("activations", "events_drained", "rounds",
                        "barrier_wait_rounds"):
                assert kw[key] == cw[key]

    def test_durable_kill_counts_journal_replay(
        self, graph, monkeypatch, tmp_path
    ):
        spec = algorithms.make_pagerank_delta()
        config = ResilienceConfig(
            checkpoint_interval=2,
            checkpoint_dir=str(tmp_path / "run"),
            run_meta={
                "workload": {
                    "algorithm": "pagerank", "dataset": "x", "scale": 1.0,
                },
                "engine_options": dict(WORKLOAD),
            },
        )
        monkeypatch.setenv(KILL_WORKER_ENV, "2:3")
        mp = build_engine(
            "sliced-mp", (graph, spec), dict(WORKLOAD), resilience=config
        ).run()
        assert mp.stats["recoveries"] == 1
        dead_worker = 2 % 2  # slice 2 is owned by worker 0
        assert mp.stats["worker_stats"][dead_worker]["lease_recoveries"] == 1
        assert mp.stats["worker_stats"][dead_worker]["journal_replays"] == 1

    def test_worker_stats_survive_run_result_validation(self, graph):
        from repro.core import validate_run_result

        spec = algorithms.make_pagerank_delta()
        mp = build_engine("sliced-mp", (graph, spec), dict(WORKLOAD)).run()
        payload = mp.to_json()
        validate_run_result(payload)
        assert payload["stats"]["worker_stats"] == mp.raw.worker_stats
