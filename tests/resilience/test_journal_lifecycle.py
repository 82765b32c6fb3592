"""Journal lifecycle: torn-tail edge cases and compaction semantics.

The base replay semantics live in ``test_durable.py``; this file pins
down the corner cases the storage-fault chaos layer exposed — an empty
(zero-byte) journal file, truncation landing *exactly* on a record
boundary, duplicate commit markers — and the compaction machinery:
re-baselining must leave replay to any retained commit bit-identical,
and the engine-driven compaction at checkpoint boundaries must never
strand a retained generation.

The protocol cases call ``SpillJournal`` directly and damage the
journal file through raw bytes; the engine-driven test at the bottom
resumes a real run directory.
"""

import json

import pytest

from repro.analysis import prepare_workload
from repro.core import build_sliced
from repro.errors import CheckpointCorruptError
from repro.resilience import ResilienceConfig, SpillJournal, resume_run

_CRC_SIZE = 4
_RECORD_SIZES = {
    "spill": 1 + 4 + 8 + 8 + 8 + _CRC_SIZE,
    "consume": 1 + 4 + _CRC_SIZE,
    "commit": 1 + 8 + _CRC_SIZE,
}


def add(a, b):
    return a + b


class Log:
    """One journal plus raw-byte access to its file.

    The tests damage the log the way a crash or bitrot would — partial
    writes, flipped bytes — through the file; every protocol operation
    is a ``SpillJournal`` call on ``path``.
    """

    def __init__(self, path):
        self.path = path

    def read(self):
        return self.path.read_bytes()

    def write(self, data):
        self.path.write_bytes(data)

    def size(self):
        return len(self.read())


# the "fs" id keeps every test's name stable across the removal of the
# in-memory backend
@pytest.fixture(params=["fs"])
def log(tmp_path):
    return Log(tmp_path / "journal.bin")


class TestTornTailEdgeCases:
    def test_zero_byte_journal_is_a_typed_failure(self, log):
        """An empty log is not 'an empty journal': the header is gone,
        so trusting it would mean trusting an unknown slice count."""
        log.write(b"")
        with pytest.raises(CheckpointCorruptError, match="magic"):
            SpillJournal.replay(log.path, 2, None, add)

    def test_header_only_journal_replays_empty(self, log):
        SpillJournal.create(log.path, 2).close()
        scan = SpillJournal.scan(log.path, 2, None, add)
        assert scan.buffers == [{}, {}]
        assert scan.records_applied == 0
        assert scan.tail_bytes == 0
        assert scan.last_commit is None

    def test_truncation_exactly_at_a_record_boundary(self, log):
        """The tail ends on a whole-record edge — no partial bytes.
        Replay must treat the complete-but-uncommitted record as tail,
        reproducing the committed state bit for bit."""
        journal = SpillJournal.create(log.path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        journal.commit(1)
        journal.close()
        # drop commit 1's marker exactly: the log now ends at the
        # uncommitted spill record's boundary
        SpillJournal.truncate(log.path, log.size() - _RECORD_SIZES["commit"])
        scan = SpillJournal.scan(log.path, 1, 0, add)
        assert scan.buffers[0] == {1: (1.0, 0)}
        assert scan.last_commit == 0
        assert scan.tail_records == 1  # the whole, valid, orphaned spill
        assert scan.tail_bytes == _RECORD_SIZES["spill"]
        # truncating at the scan offset then replaying is idempotent
        SpillJournal.truncate(log.path, scan.offset)
        again, offset = SpillJournal.replay(log.path, 1, 0, add)
        assert again == scan.buffers
        assert offset == log.size()

    def test_duplicate_commit_markers_are_deterministic(self, log):
        """Two COMMIT(1) markers (a retried flush that actually landed
        twice): replay-to-1 adopts the first, replay-to-latest adopts
        the second — identical buffers either way."""
        journal = SpillJournal.create(log.path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(1)
        journal.commit(1)  # duplicate marker, no records in between
        journal.close()
        first = SpillJournal.scan(log.path, 1, 1, add)
        latest = SpillJournal.scan(log.path, 1, None, add)
        assert first.buffers == latest.buffers == [{1: (1.0, 0)}]
        assert first.last_commit == latest.last_commit == 1
        # the first scan stops at the first marker; the duplicate is a
        # valid (discardable) tail record behind it
        assert latest.offset - first.offset == _RECORD_SIZES["commit"]
        assert first.tail_records == 1

    def test_corruption_in_tail_only_stops_the_tail_count(self, log):
        journal = SpillJournal.create(log.path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        journal.commit(1)
        journal.close()
        data = bytearray(log.read())
        data[-2] ^= 0xFF  # inside commit 1's CRC: corrupt, but post-target
        log.write(bytes(data))
        scan = SpillJournal.scan(log.path, 1, 0, add)
        assert scan.buffers[0] == {1: (1.0, 0)}
        assert scan.tail_records == 1  # the spill counts, commit 1 doesn't
        with pytest.raises(CheckpointCorruptError):
            SpillJournal.scan(log.path, 1, 1, add)


class TestCompaction:
    def build_journal(self, log):
        journal = SpillJournal.create(log.path, 2)
        for commit in range(4):
            for vertex in range(6):
                journal.spill(
                    vertex % 2, vertex=vertex, generation=commit,
                    delta=0.5 * (commit + 1),
                )
            if commit == 2:
                journal.consume(0)
            journal.commit(commit)
        journal.close()

    def test_replay_after_compaction_is_bit_identical(self, log):
        self.build_journal(log)
        before = {
            upto: SpillJournal.replay(log.path, 2, upto, add)[0]
            for upto in (1, 2, 3)
        }
        stats = SpillJournal.compact_file(log.path, 2, 1, add)
        assert stats["upto"] == 1
        assert stats["bytes_after"] < stats["bytes_before"]
        assert stats["records_dropped"] > 0
        for upto in (1, 2, 3):
            after, _ = SpillJournal.replay(log.path, 2, upto, add)
            assert after == before[upto]

    def test_commits_below_the_boundary_resolve_to_the_baseline(self, log):
        """``upto`` means "replay to at least this commit": after
        compaction the oldest reachable state is the baseline, so a
        request for an older commit deterministically adopts it rather
        than failing — gc retention guarantees no live checkpoint ever
        references a commit below the boundary."""
        self.build_journal(log)
        baseline, _ = SpillJournal.replay(log.path, 2, 2, add)
        SpillJournal.compact_file(log.path, 2, 2, add)
        scan = SpillJournal.scan(log.path, 2, 0, add)
        assert scan.last_commit == 2
        assert scan.buffers == baseline

    def test_compaction_is_idempotent_at_the_same_boundary(self, log):
        self.build_journal(log)
        SpillJournal.compact_file(log.path, 2, 2, add)
        first = log.read()
        stats = SpillJournal.compact_file(log.path, 2, 2, add)
        assert log.read() == first
        assert stats["records_dropped"] == 0

    def test_live_compact_requires_a_committed_boundary(self, log):
        journal = SpillJournal.create(log.path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.spill(0, vertex=2, generation=0, delta=2.0)  # uncommitted
        with pytest.raises(ValueError, match="uncommitted"):
            journal.compact(0, add)
        journal.close()

    def test_live_compact_keeps_appending(self, log):
        journal = SpillJournal.create(log.path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.compact(0, add)
        assert journal.compactions == 1
        assert journal.compacted_upto == 0
        journal.spill(0, vertex=2, generation=1, delta=2.0)
        journal.commit(1)
        journal.close()
        buffers, _ = SpillJournal.replay(log.path, 1, 1, add)
        assert buffers[0] == {1: (1.0, 0), 2: (2.0, 1)}


class TestEngineDrivenCompaction:
    def test_sliced_run_compacts_at_checkpoint_boundaries(self, tmp_path):
        """The harness compacts to the oldest *retained* generation's
        commit as the run rolls forward, and the run dir still resumes
        bit-identically afterwards — compaction never eats a record a
        retained checkpoint could need."""
        graph, spec = prepare_workload("WG", "pagerank", scale=0.05)
        reference = build_sliced(graph, spec, num_slices=2).run()
        run_dir = tmp_path / "run"
        config = ResilienceConfig(
            checkpoint_interval=2,
            checkpoint_dir=str(run_dir),
            run_meta={
                "workload": {
                    "algorithm": "pagerank",
                    "dataset": "WG",
                    "scale": 0.05,
                },
                "engine_options": {
                    "num_slices": 2,
                    "queue_capacity": None,
                    "auto_slice": True,
                },
            },
        )
        result = build_sliced(
            graph, spec, num_slices=2, resilience=config
        ).run()
        durable = result.resilience["durable"]
        assert durable["journal_compactions"] >= 1
        assert durable["journal_records_dropped"] > 0
        # every retained generation still replays from its own commit
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for entry in manifest["checkpoints"]:
            SpillJournal.replay(
                run_dir / "journal.bin",
                2,
                entry["journal_commit"],
                spec.reduce,
            )
        outcome = resume_run(run_dir)
        assert outcome.result.values.tobytes() == reference.values.tobytes()
