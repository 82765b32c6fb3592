"""Durable execution: checkpoint/journal serialization and resume.

The crash-injection subprocess tests live in ``test_crash_resume.py``;
this file proves the layer's building blocks in-process: exact binary
round trips (including NaN payloads, ±inf, empty queues and zero-vertex
slices), typed corruption failures, the write-ahead spill journal's
replay semantics, manifest validation, and in-process restore equality
for every engine.
"""

import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.analysis import ALGORITHMS, prepare_workload
from repro.core import (
    Event,
    FunctionalGraphPulse,
    GraphPulseAccelerator,
    build_engine,
    build_sliced,
)
from repro.errors import CheckpointCorruptError, ManifestMismatchError
from repro.graph import erdos_renyi_graph
from repro.graph.io import graph_fingerprint
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    SpillJournal,
    deserialize_checkpoint,
    resume_run,
    serialize_checkpoint,
)
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.durable import DurableCheckpointStore


def make_checkpoint(state, queue_snapshot, *, index=0, round_index=4, at=4.0):
    return Checkpoint(
        index=index,
        round_index=round_index,
        at=at,
        state=np.asarray(state, dtype=np.float64),
        queue_snapshot=queue_snapshot,
        pending_events=sum(len(g) for g in queue_snapshot),
    )


def roundtrip(checkpoint, *, queue_kind="bins", **overrides):
    kwargs = {
        "engine": "functional",
        "algorithm": "pagerank",
        "queue_kind": queue_kind,
        "totals": {"events_processed": 17, "events_produced": 23},
        "fault_cursor": {"opportunities": 5, "draws": {"drop": 2}},
        "journal_commit": None,
    }
    kwargs.update(overrides)
    blob = serialize_checkpoint(checkpoint, **kwargs)
    return blob, deserialize_checkpoint(blob, source="<test>")


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_real_run_snapshot_roundtrips(self, algorithm):
        """Capture a mid-run checkpoint for each algorithm and round-trip."""
        graph, spec = prepare_workload("WG", algorithm, scale=0.05)
        config = ResilienceConfig(checkpoint_interval=3)
        engine = FunctionalGraphPulse(graph, spec, resilience=config)
        engine.run()
        captured = engine.resilience.checkpoints.latest
        assert captured is not None, "run too short to capture a checkpoint"
        blob, restored = roundtrip(captured, algorithm=algorithm)
        np.testing.assert_array_equal(restored.state, captured.state)
        assert restored.round_index == captured.round_index
        assert restored.algorithm == algorithm
        flat = lambda snap: [
            (e.vertex, struct.pack("<d", e.delta), e.generation, e.ready)
            for group in snap
            for e in group
        ]
        assert flat(restored.queue_snapshot) == flat(captured.queue_snapshot)

    def test_nan_and_inf_deltas_survive_bitwise(self):
        nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
        snapshot = [
            [Event(vertex=0, delta=nan_payload), Event(vertex=1, delta=math.inf)],
            [Event(vertex=2, delta=-math.inf)],
        ]
        state = np.array([math.nan, math.inf, -0.0])
        _, restored = roundtrip(make_checkpoint(state, snapshot))
        # bitwise, not just value-wise: the NaN payload must survive
        assert struct.pack("<d", restored.queue_snapshot[0][0].delta) == struct.pack(
            "<d", nan_payload
        )
        assert restored.queue_snapshot[0][1].delta == math.inf
        assert restored.queue_snapshot[1][0].delta == -math.inf
        assert state.tobytes() == restored.state.tobytes()

    def test_empty_queue_and_zero_vertices(self):
        _, restored = roundtrip(make_checkpoint(np.zeros(0), []))
        assert restored.state.shape == (0,)
        assert restored.queue_snapshot == []

    def test_zero_vertex_slices_in_spill_snapshot(self):
        # middle slice has no pending spills; order must survive
        snapshot = [
            {3: Event(vertex=3, delta=0.5), 1: Event(vertex=1, delta=0.25)},
            {},
            {2: Event(vertex=2, delta=1.5, generation=4)},
        ]
        _, restored = roundtrip(
            make_checkpoint(np.ones(5), snapshot),
            queue_kind="spill",
            engine="sliced",
            journal_commit=7,
        )
        assert [list(b.keys()) for b in restored.queue_snapshot] == [[3, 1], [], [2]]
        assert restored.queue_snapshot[2][2].generation == 4
        assert restored.journal_commit == 7

    def test_parity_tag_survives(self):
        event = Event(vertex=0, delta=1.0)
        event._parity_bad = True
        _, restored = roundtrip(make_checkpoint(np.zeros(1), [[event]]))
        assert getattr(restored.queue_snapshot[0][0], "_parity_bad", False)

    def test_totals_and_cursor_roundtrip(self):
        _, restored = roundtrip(make_checkpoint(np.zeros(2), [[]]))
        assert restored.totals == {"events_processed": 17, "events_produced": 23}
        assert restored.fault_cursor["draws"] == {"drop": 2}

    @settings(max_examples=40, deadline=None)
    @given(
        state=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            max_size=12,
        ),
        groups=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2**31),
                    st.floats(allow_nan=True, allow_infinity=True, width=64),
                    st.integers(min_value=0, max_value=2**31),
                ),
                max_size=5,
            ),
            max_size=5,
        ),
    )
    def test_property_roundtrip_is_bit_exact(self, state, groups):
        snapshot = [
            [Event(vertex=v, delta=d, generation=g) for v, d, g in group]
            for group in groups
        ]
        checkpoint = make_checkpoint(np.asarray(state, dtype=np.float64), snapshot)
        _, restored = roundtrip(checkpoint)
        assert restored.state.tobytes() == checkpoint.state.tobytes()
        original = [
            (e.vertex, struct.pack("<d", e.delta), e.generation)
            for group in snapshot
            for e in group
        ]
        recovered = [
            (e.vertex, struct.pack("<d", e.delta), e.generation)
            for group in restored.queue_snapshot
            for e in group
        ]
        assert original == recovered


class TestCheckpointCorruption:
    def blob(self):
        snapshot = [[Event(vertex=0, delta=1.0), Event(vertex=1, delta=2.0)]]
        blob, _ = roundtrip(make_checkpoint(np.arange(4.0), snapshot))
        return blob

    def test_flipped_byte_raises_typed_error(self):
        blob = bytearray(self.blob())
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            deserialize_checkpoint(bytes(blob), source="<corrupt>")

    def test_every_single_byte_flip_is_caught(self):
        # CRC32 catches any single-bit error; sweep a byte flip across
        # the whole file to prove there is no unprotected region
        blob = self.blob()
        for position in range(len(blob)):
            broken = bytearray(blob)
            broken[position] ^= 0x01
            with pytest.raises(CheckpointCorruptError):
                deserialize_checkpoint(bytes(broken), source="<sweep>")

    def test_truncation(self):
        blob = self.blob()
        with pytest.raises(CheckpointCorruptError):
            deserialize_checkpoint(blob[: len(blob) // 2], source="<trunc>")
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            deserialize_checkpoint(blob[:3], source="<trunc>")

    def test_bad_magic(self):
        blob = b"NOPE" + self.blob()[4:]
        with pytest.raises(CheckpointCorruptError, match="magic"):
            deserialize_checkpoint(blob, source="<magic>")

    def test_version_mismatch(self):
        blob = bytearray(self.blob())
        struct.pack_into("<H", blob, 4, 999)
        body = bytes(blob[:-4])
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(CheckpointCorruptError, match="version"):
            deserialize_checkpoint(blob, source="<version>")


def identity_reduce(a, b):
    return a + b


class TestSpillJournal:
    def test_replay_applies_reduce_and_generation_max(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=2)
        journal.spill(0, vertex=3, generation=1, delta=0.5)
        journal.spill(0, vertex=3, generation=4, delta=0.25)
        journal.spill(1, vertex=7, generation=0, delta=-1.0)
        journal.commit(0)
        journal.close()
        buffers, offset = SpillJournal.replay(path, 2, 0, identity_reduce)
        assert buffers[0][3] == (0.75, 4)
        assert buffers[1][7] == (-1.0, 0)
        assert offset == path.stat().st_size

    def test_consume_clears_a_slice(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=2)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.consume(0)
        journal.spill(1, vertex=2, generation=0, delta=2.0)
        journal.commit(1)
        journal.close()
        buffers, _ = SpillJournal.replay(path, 2, 1, identity_reduce)
        assert buffers[0] == {}
        assert buffers[1] == {2: (2.0, 0)}

    def test_torn_tail_after_target_commit_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.close()
        offset_at_commit = path.stat().st_size
        # simulate a crash mid-append: garbage after the commit point
        with open(path, "ab") as handle:
            handle.write(b"\x01garbage-torn-write")
        buffers, offset = SpillJournal.replay(path, 1, 0, identity_reduce)
        assert buffers[0] == {1: (1.0, 0)}
        assert offset == offset_at_commit
        SpillJournal.truncate(path, offset)
        assert path.stat().st_size == offset_at_commit

    def test_corruption_before_target_commit_raises(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.close()
        data = bytearray(path.read_bytes())
        data[-6] ^= 0xFF  # inside the commit record's CRC-covered bytes
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            SpillJournal.replay(path, 1, 0, identity_reduce)

    def test_unreached_commit_raises(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.commit(0)
        journal.close()
        with pytest.raises(CheckpointCorruptError, match="commit"):
            SpillJournal.replay(path, 1, 5, identity_reduce)

    def test_header_slice_count_mismatch(self, tmp_path):
        path = tmp_path / "journal.bin"
        SpillJournal.create(path, num_slices=2).close()
        with pytest.raises(CheckpointCorruptError):
            SpillJournal.open_append(path, num_slices=3)

    def test_empty_journal_replays_empty(self, tmp_path):
        path = tmp_path / "journal.bin"
        SpillJournal.create(path, num_slices=3).close()
        buffers, _ = SpillJournal.replay(path, 3, None, identity_reduce)
        assert buffers == [{}, {}, {}]


class TestStoreAndManifest:
    def run_durable(self, tmp_path, engine="functional"):
        graph, spec = prepare_workload("WG", "pagerank", scale=0.05)
        run_dir = tmp_path / "run"
        config = ResilienceConfig(
            checkpoint_interval=5,
            checkpoint_dir=str(run_dir),
            run_meta={
                "workload": {
                    "algorithm": "pagerank",
                    "dataset": "WG",
                    "scale": 0.05,
                },
                "engine_options": {},
            },
        )
        result = FunctionalGraphPulse(graph, spec, resilience=config).run()
        return run_dir, result

    def test_manifest_indexes_only_live_checkpoints(self, tmp_path):
        run_dir, _ = self.run_durable(tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        entries = manifest["checkpoints"]
        assert 0 < len(entries) <= 2  # pruned to checkpoint_keep
        on_disk = sorted(p.name for p in run_dir.glob("*.ckpt"))
        assert sorted(e["file"] for e in entries) == on_disk
        graph, _ = prepare_workload("WG", "pagerank", scale=0.05)
        assert manifest["graph"]["fingerprint"] == graph_fingerprint(graph)

    def test_create_refuses_existing_run(self, tmp_path):
        run_dir, _ = self.run_durable(tmp_path)
        store = DurableCheckpointStore(run_dir)
        with pytest.raises(ManifestMismatchError, match="resume"):
            store.create({"format_version": 1})

    def test_load_latest_seq_crosscheck(self, tmp_path):
        run_dir, _ = self.run_durable(tmp_path)
        store = DurableCheckpointStore(run_dir)
        manifest = store.open()
        last = manifest["checkpoints"][-1]
        wrong = run_dir / "checkpoint-000099.ckpt"
        wrong.write_bytes((run_dir / last["file"]).read_bytes())
        with pytest.raises(CheckpointCorruptError, match="sequence"):
            store.load(99)

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        run_dir, _ = self.run_durable(tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["graph"]["fingerprint"] = "0" * 64
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestMismatchError, match="fingerprint"):
            resume_run(run_dir)

    def test_resume_rejects_manifest_version_skew(self, tmp_path):
        run_dir, _ = self.run_durable(tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["format_version"] = 999
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptError, match="version"):
            resume_run(run_dir)

    def test_resume_rejects_retired_chained_dispatch(self, tmp_path):
        # a run directory whose manifest records the retired schedule
        # is refused before resume reads a checkpoint or the journal
        graph, spec = prepare_workload("WG", "bfs", scale=0.05)
        run_dir = tmp_path / "run"
        config = ResilienceConfig(
            checkpoint_interval=1,
            checkpoint_dir=str(run_dir),
            run_meta={
                "workload": {
                    "algorithm": "bfs",
                    "dataset": "WG",
                    "scale": 0.05,
                },
                "engine_options": {"num_slices": 2, "dispatch": "chained"},
            },
        )
        build_sliced(graph, spec, num_slices=2, resilience=config).run()
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        with pytest.raises(ManifestMismatchError, match="'chained'"):
            resume_run(run_dir)
        after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert after == before

    def test_resume_rejects_missing_dir(self, tmp_path):
        with pytest.raises(ManifestMismatchError, match="manifest"):
            resume_run(tmp_path / "never-created")


class TestInProcessRestore:
    """Restore from a real mid-run checkpoint and finish identically."""

    @pytest.fixture(scope="class")
    def workload(self):
        return prepare_workload("WG", "sssp", scale=0.05)

    def durable_config(self, run_dir, engine_options=None, resume=False):
        return ResilienceConfig(
            checkpoint_interval=4,
            checkpoint_dir=str(run_dir),
            run_meta={
                "workload": {
                    "algorithm": "sssp",
                    "dataset": "WG",
                    "scale": 0.05,
                },
                "engine_options": engine_options or {},
            },
            resume=resume,
        )

    def test_functional_restore_is_bit_identical(self, tmp_path, workload):
        graph, spec = workload
        reference = FunctionalGraphPulse(graph, spec).run()
        run_dir = tmp_path / "func"
        FunctionalGraphPulse(
            graph, spec, resilience=self.durable_config(run_dir)
        ).run()
        store = DurableCheckpointStore(run_dir)
        store.open()
        restored = store.load_latest()
        assert restored is not None
        engine = FunctionalGraphPulse(
            graph, spec, resilience=self.durable_config(run_dir, resume=True)
        )
        engine.restore(restored)
        result = engine.run()
        assert result.values.tobytes() == reference.values.tobytes()
        final_round = (
            result.rounds[-1].round_index + 1
            if result.rounds
            else restored.round_index + 1
        )
        assert final_round == reference.num_rounds
        assert (
            result.total_events_processed == reference.total_events_processed
        )

    def test_cycle_restore_is_bit_identical(self, tmp_path, workload):
        graph, spec = workload
        reference = GraphPulseAccelerator(graph, spec).run()
        run_dir = tmp_path / "cycle"
        GraphPulseAccelerator(
            graph, spec, resilience=self.durable_config(run_dir)
        ).run()
        store = DurableCheckpointStore(run_dir)
        store.open()
        restored = store.load_latest()
        assert restored is not None
        engine = GraphPulseAccelerator(
            graph, spec, resilience=self.durable_config(run_dir, resume=True)
        )
        engine.restore(restored)
        result = engine.run()
        assert result.values.tobytes() == reference.values.tobytes()
        assert result.num_rounds == reference.num_rounds

    def test_sliced_restore_is_bit_identical(self, tmp_path, workload):
        graph, spec = workload
        options = {"num_slices": 2, "queue_capacity": None, "auto_slice": True}
        reference = build_sliced(graph, spec, num_slices=2).run()
        run_dir = tmp_path / "sliced"
        build_sliced(
            graph,
            spec,
            num_slices=2,
            resilience=self.durable_config(run_dir, options),
        ).run()
        store = DurableCheckpointStore(run_dir)
        store.open()
        restored = store.load_latest()
        assert restored is not None
        engine = build_sliced(
            graph,
            spec,
            num_slices=2,
            resilience=self.durable_config(run_dir, options, resume=True),
        )
        engine.restore(restored)
        result = engine.run()
        assert result.values.tobytes() == reference.values.tobytes()
        final_pass = (
            result.activations[-1].pass_index + 1
            if result.activations
            else restored.round_index
        )
        assert final_pass == reference.activations[-1].pass_index + 1

    def test_parallel_sliced_checkpoints_spill_and_keeps_journal(
        self, tmp_path, workload
    ):
        """The multi-accelerator preset is the sliced runner, so its
        durable runs keep the spill journal and checkpoint the spill
        buffers; resume rebuilds it from the recorded options alone."""
        graph, spec = workload
        options = {"num_slices": 2}
        reference = build_engine(
            "parallel-sliced", (graph, spec), options
        ).run()
        run_dir = tmp_path / "parallel"
        build_engine(
            "parallel-sliced",
            (graph, spec),
            options,
            resilience=self.durable_config(run_dir, options),
        ).run()
        store = DurableCheckpointStore(run_dir)
        manifest = store.open()
        assert manifest["engine"] == "parallel-sliced"
        assert manifest["journal"] == "journal.bin"
        assert manifest["engine_options"] == options
        assert (run_dir / "journal.bin").exists()
        restored = store.load_latest()
        assert restored is not None
        assert restored.queue_kind == "spill"
        assert restored.engine == "parallel-sliced"
        assert len(restored.queue_snapshot) == 2
        outcome = resume_run(run_dir)
        assert outcome.result.values.tobytes() == reference.values.tobytes()
        assert outcome.result.passes == reference.passes

    def test_restore_with_faults_replays_same_plan(self, tmp_path, workload):
        """The fault-injector cursor restores: the resumed run draws the
        same fault decisions the uninterrupted faulty run draws."""
        graph, spec = workload
        plan = FaultPlan.uniform(5e-3, seed=3, kinds=("drop",))

        def config(run_dir=None, resume=False):
            return ResilienceConfig(
                fault_plan=plan,
                checkpoint_interval=4,
                checkpoint_dir=str(run_dir) if run_dir else None,
                run_meta={
                    "workload": {
                        "algorithm": "sssp",
                        "dataset": "WG",
                        "scale": 0.05,
                    },
                    "engine_options": {},
                },
                resume=resume,
            )

        reference = FunctionalGraphPulse(
            graph, spec, resilience=ResilienceConfig(fault_plan=plan)
        ).run()
        run_dir = tmp_path / "faulty"
        FunctionalGraphPulse(graph, spec, resilience=config(run_dir)).run()
        store = DurableCheckpointStore(run_dir)
        store.open()
        restored = store.load_latest()
        assert restored is not None
        assert sum(restored.fault_cursor["draws"].values()) > 0
        engine = FunctionalGraphPulse(
            graph, spec, resilience=config(run_dir, resume=True)
        )
        engine.restore(restored)
        result = engine.run()
        assert result.values.tobytes() == reference.values.tobytes()
        assert (
            result.resilience["faults"]["total"]
            == reference.resilience["faults"]["total"]
        )


class TestZeroOverheadOff:
    def test_plain_runs_unchanged_by_durability_code(self):
        """No --checkpoint-dir: resilience summary has no durable section
        and results match a pre-durability plain run bit for bit."""
        graph, spec = prepare_workload("WG", "pagerank", scale=0.05)
        plain = FunctionalGraphPulse(graph, spec).run()
        resilient = FunctionalGraphPulse(
            graph, spec, resilience=ResilienceConfig()
        ).run()
        assert plain.values.tobytes() == resilient.values.tobytes()
        assert plain.num_rounds == resilient.num_rounds
        assert "durable" not in resilient.resilience
