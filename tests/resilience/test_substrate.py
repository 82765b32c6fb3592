"""The durable protocol through the three durable primitives.

Drives the surface every engine calls: epoch-fenced lease ownership
with monotonic heartbeat counters (``SliceLease`` and the lease-file
functions), GPJL write-ahead spill logging with torn-tail tolerance
(``SpillJournal``), and the GPCK checkpoint generation ladder
(``DurableCheckpointStore``).

File-level behavior (layout, mtime fallback, fsync discipline) stays in
``test_lease.py`` / ``test_durable.py``.
"""

import os
import time

import numpy as np
import pytest

from repro.errors import (
    CheckpointCorruptError,
    LeaseHeldError,
    ManifestMismatchError,
)
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.durable import DurableCheckpointStore
from repro.resilience.journal import SpillJournal
from repro.resilience.lease import (
    SliceLease,
    break_stale,
    is_stale,
    lease_path,
    read_lease,
)
from repro.resilience.storagefaults import (
    StorageFaultOp,
    StorageFaultPlan,
    injecting,
)

# a pid that cannot exist on Linux (default pid_max is 2**22)
DEAD_PID = 2**22 + 12345


def add(a, b):
    return a + b


# the filesystem is the one medium; the "fs" id keeps every test's name
# stable across the removal of the in-memory backend
@pytest.fixture(params=["fs"])
def root(request, tmp_path):
    return tmp_path


@pytest.fixture
def lease_dir(root):
    path = root / "leases"
    path.mkdir()
    return path


@pytest.fixture
def slot(lease_dir):
    """Slice 0's lease file."""
    return lease_path(lease_dir, 0)


@pytest.fixture
def log_path(root):
    return root / "journal.bin"


@pytest.fixture
def checkpoints(root):
    return DurableCheckpointStore(root / "run")


# ----------------------------------------------------------------------
# Leases: ownership, heartbeat counters, fencing
# ----------------------------------------------------------------------


class TestLeaseConformance:
    def test_acquire_read_release(self, lease_dir):
        held = SliceLease.acquire(lease_dir, 3, owner="host-a", epoch=2)
        info = read_lease(lease_path(lease_dir, 3))
        assert (info.slice_index, info.owner, info.pid, info.epoch) == (
            3,
            "host-a",
            os.getpid(),
            2,
        )
        assert info.heartbeat == 0
        held.release()
        assert read_lease(lease_path(lease_dir, 3)) is None

    def test_double_acquire_names_the_holder(self, lease_dir):
        SliceLease.acquire(lease_dir, 0, owner="first")
        with pytest.raises(LeaseHeldError, match="first"):
            SliceLease.acquire(lease_dir, 0, owner="second")

    def test_release_is_idempotent(self, lease_dir):
        held = SliceLease.acquire(lease_dir, 1, owner="w")
        held.release()
        held.release()  # second release must not raise

    def test_heartbeat_counter_is_monotonic(self, lease_dir, slot):
        """Satellite invariant: every refresh bumps the published
        counter by exactly one — the signal observation-based staleness
        keys on when mtime granularity is useless."""
        held = SliceLease.acquire(lease_dir, 0, owner="w")
        for expected in (1, 2, 3):
            held.refresh()
            assert read_lease(slot).heartbeat == expected
        assert held.info.heartbeat == 3

    def test_missing_lease_is_not_stale(self, lease_dir, slot):
        assert not is_stale(slot, timeout=0.01)
        assert not break_stale(slot, timeout=0.01)

    def test_live_heartbeating_holder_is_protected(self, lease_dir, slot):
        SliceLease.acquire(lease_dir, 0, owner="alive")
        assert not is_stale(slot, timeout=3600.0)
        with pytest.raises(LeaseHeldError, match="alive"):
            break_stale(slot, timeout=3600.0)

    def test_dead_pid_is_fenced_and_epoch_advances(self, lease_dir, slot):
        SliceLease.acquire(lease_dir, 0, owner="dead", pid=DEAD_PID, epoch=4)
        assert is_stale(slot, timeout=3600.0)
        assert break_stale(slot, timeout=3600.0)
        assert read_lease(slot) is None
        SliceLease.acquire(lease_dir, 0, owner="successor", epoch=5)
        info = read_lease(slot)
        assert info.owner == "successor"
        assert info.epoch == 5

    def test_heartbeat_silence_is_stale_under_observation(
        self, lease_dir, slot
    ):
        """A live-pid holder that stops refreshing gets fenced: the
        observations cache sees the counter frozen past the timeout."""
        SliceLease.acquire(lease_dir, 0, owner="silent")  # never refreshes
        obs = {}
        # first sighting only records the counter; silence starts now
        assert not is_stale(slot, timeout=0.05, observations=obs)
        time.sleep(0.12)
        assert is_stale(slot, timeout=0.05, observations=obs)
        assert break_stale(slot, timeout=0.05, observations=obs)
        assert read_lease(slot) is None

    def test_refresh_resets_the_observation_clock(self, lease_dir, slot):
        held = SliceLease.acquire(lease_dir, 0, owner="w")
        obs = {}
        assert not is_stale(slot, timeout=0.08, observations=obs)
        time.sleep(0.05)
        held.refresh()
        time.sleep(0.05)
        # more wall time than the timeout has passed since the first
        # sighting, but the counter moved in between: not stale
        assert not is_stale(slot, timeout=0.08, observations=obs)

    def test_refresh_never_resurrects_a_fenced_lease(self, lease_dir, slot):
        """The fencing guarantee: once broken, the old holder's
        heartbeat must not re-create the slot (the successor would be
        sharing the slice with a zombie)."""
        held = SliceLease.acquire(lease_dir, 0, owner="zombie", pid=DEAD_PID)
        assert break_stale(slot, timeout=3600.0)
        held.refresh()  # silent no-op, not an error
        assert read_lease(slot) is None


# ----------------------------------------------------------------------
# Spill journal: WAL semantics, torn tails, compaction
# ----------------------------------------------------------------------


class TestTransportConformance:
    def test_exists_tracks_creation(self, log_path):
        assert not log_path.exists()
        SpillJournal.create(log_path, 2).close()
        assert log_path.exists()

    def test_replay_coalesces_like_the_live_buffers(self, log_path):
        journal = SpillJournal.create(log_path, 2)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.spill(0, vertex=1, generation=1, delta=0.25)
        journal.spill(1, vertex=5, generation=0, delta=2.0)
        journal.commit(1)
        journal.close()
        buffers, _ = SpillJournal.replay(log_path, 2, None, add)
        # same-vertex records coalesce through reduce_fn, newest generation
        assert buffers == [{1: (1.25, 1)}, {5: (2.0, 0)}]

    def test_uncommitted_records_never_reach_the_log(self, log_path):
        """The WAL contract: records buffer in memory until commit, so a
        crash (or a fencing abort) between spill and commit leaves no
        trace for replay to double-apply."""
        journal = SpillJournal.create(log_path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.close()  # no commit
        buffers, _ = SpillJournal.replay(log_path, 1, None, add)
        assert buffers == [{}]

    def test_consume_clears_a_slice_and_upto_rewinds_it(self, log_path):
        journal = SpillJournal.create(log_path, 2)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.spill(1, vertex=2, generation=0, delta=2.0)
        journal.commit(1)
        journal.consume(0)
        journal.commit(2)
        journal.close()
        assert SpillJournal.replay(log_path, 2, None, add)[0] == [
            {},
            {2: (2.0, 0)},
        ]
        assert SpillJournal.replay(log_path, 2, 1, add)[0] == [
            {1: (1.0, 0)},
            {2: (2.0, 0)},
        ]

    def test_torn_tail_is_tolerated_then_truncated(self, log_path):
        """A crash mid-append leaves a partial record; scan must adopt
        the last complete commit, report the stray bytes as tail, and
        truncating at the scan offset must leave a clean log."""
        journal = SpillJournal.create(log_path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(1)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        journal.commit(2)
        journal.close()
        committed = SpillJournal.scan(log_path, 1, 1, add)
        # tear 3 bytes into whatever followed commit 1
        SpillJournal.truncate(log_path, committed.offset + 3)
        scan = SpillJournal.scan(log_path, 1, None, add)
        assert scan.buffers == committed.buffers == [{1: (1.0, 0)}]
        assert scan.last_commit == 1
        assert scan.offset == committed.offset
        assert scan.tail_bytes == 3
        assert scan.tail_records == 0  # partial bytes, no whole record
        SpillJournal.truncate(log_path, scan.offset)
        clean = SpillJournal.scan(log_path, 1, None, add)
        assert clean.buffers == committed.buffers
        assert clean.tail_bytes == 0

    def test_open_append_continues_the_log(self, log_path):
        journal = SpillJournal.create(log_path, 1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(1)
        journal.close()
        resumed = SpillJournal.open_append(log_path, 1)
        resumed.spill(0, vertex=2, generation=1, delta=2.0)
        resumed.commit(2)
        resumed.close()
        buffers, _ = SpillJournal.replay(log_path, 1, None, add)
        assert buffers == [{1: (1.0, 0), 2: (2.0, 1)}]

    def test_open_append_validates_the_slice_count(self, log_path):
        SpillJournal.create(log_path, 2).close()
        with pytest.raises(CheckpointCorruptError):
            SpillJournal.open_append(log_path, 3)

    def test_compaction_preserves_replay_to_retained_commits(self, log_path):
        journal = SpillJournal.create(log_path, 2)
        for commit in range(1, 4):
            for vertex in range(4):
                journal.spill(
                    vertex % 2,
                    vertex=vertex,
                    generation=commit,
                    delta=0.5 * commit,
                )
            journal.commit(commit)
        journal.close()
        before = {
            upto: SpillJournal.replay(log_path, 2, upto, add)[0]
            for upto in (2, 3)
        }
        stats = SpillJournal.compact_file(log_path, 2, 2, add)
        assert stats["records_dropped"] > 0
        assert stats["bytes_after"] < stats["bytes_before"]
        for upto in (2, 3):
            replayed = SpillJournal.replay(log_path, 2, upto, add)[0]
            assert replayed == before[upto]

    def test_transient_append_fault_is_retried(self, log_path):
        """One injected EIO on the journal commit must be absorbed by
        the bounded retry."""
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="eio", path_glob="journal.bin"),)
        )
        with injecting(plan) as injector:
            journal = SpillJournal.create(log_path, 1)
            journal.spill(0, vertex=1, generation=0, delta=1.0)
            journal.commit(1)
            journal.close()
            assert injector.injected, "fault never fired"
            assert injector.injected[0]["kind"] == "eio"
        buffers, _ = SpillJournal.replay(log_path, 1, None, add)
        assert buffers == [{1: (1.0, 0)}]


# ----------------------------------------------------------------------
# Checkpoints: the generation ladder
# ----------------------------------------------------------------------


def fresh_manifest():
    return {"format_version": 1, "checkpoints": []}


def make_checkpoint(seq, value):
    state = np.full(4, value, dtype=np.float64)
    return Checkpoint(
        index=seq,
        round_index=seq * 10,
        at=float(seq),
        state=state,
        queue_snapshot=[],
        pending_events=0,
    )


WRITE_KW = dict(
    engine="sliced",
    algorithm="pagerank",
    queue_kind="bins",
    totals={"events_processed": 1},
    fault_cursor={},
    journal_commit=None,
)


class TestCheckpointConformance:
    def test_create_refuses_to_clobber(self, checkpoints):
        checkpoints.create(fresh_manifest())
        with pytest.raises(ManifestMismatchError, match="already contains"):
            checkpoints.create(fresh_manifest())

    def test_sequences_and_latest(self, checkpoints):
        checkpoints.create(fresh_manifest())
        for seq in range(3):
            assert checkpoints.next_seq() == seq
            checkpoints.write(
                make_checkpoint(seq, float(seq)), keep=10, **WRITE_KW
            )
        latest = checkpoints.load_latest()
        assert latest.seq == 2
        assert latest.state.tobytes() == make_checkpoint(2, 2.0).state.tobytes()

    def test_generation_ladder_demotes_and_overwrites(self, checkpoints):
        """``drop_newer_than`` is the resume fallback: the manifest is
        demoted first, newer files become unreachable, and the next
        write overwrites the corrupt range instead of appending."""
        checkpoints.create(fresh_manifest())
        for seq in range(3):
            checkpoints.write(
                make_checkpoint(seq, float(seq)), keep=10, **WRITE_KW
            )
        dropped = checkpoints.drop_newer_than(0)
        assert [entry["seq"] for entry in dropped] == [1, 2]
        assert checkpoints.load_latest().seq == 0
        assert checkpoints.next_seq() == 1
        with pytest.raises(CheckpointCorruptError):
            checkpoints.load(2)  # demoted generations are gone

    def test_drop_to_none_empties_the_run(self, checkpoints):
        checkpoints.create(fresh_manifest())
        checkpoints.write(make_checkpoint(0, 1.0), keep=10, **WRITE_KW)
        dropped = checkpoints.drop_newer_than(None)
        assert [entry["seq"] for entry in dropped] == [0]
        assert checkpoints.load_latest() is None
        assert checkpoints.next_seq() == 0

    def test_keep_prunes_old_generations(self, checkpoints):
        checkpoints.create(fresh_manifest())
        for seq in range(4):
            checkpoints.write(
                make_checkpoint(seq, float(seq)), keep=2, **WRITE_KW
            )
        entries = checkpoints.manifest["checkpoints"]
        assert [entry["seq"] for entry in entries] == [2, 3]
        assert checkpoints.next_seq() == 4
        with pytest.raises(CheckpointCorruptError):
            checkpoints.load(0)

    def test_reopen_sees_the_published_manifest(self, root):
        store = DurableCheckpointStore(root / "run")
        store.create(fresh_manifest())
        store.write(make_checkpoint(0, 3.5), keep=5, **WRITE_KW)
        # a fresh store over the same directory: open() re-parses the
        # published bytes, which is the cross-process contract
        reopened = DurableCheckpointStore(root / "run")
        manifest = reopened.open()
        assert [entry["seq"] for entry in manifest["checkpoints"]] == [0]
        restored = reopened.load_latest()
        assert restored.state.tobytes() == make_checkpoint(0, 3.5).state.tobytes()
