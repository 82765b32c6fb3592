"""The durable protocol through the substrate's store factories.

Drives only what :func:`repro.resilience.substrate.build_substrate`
hands out — the surface every engine uses: epoch-fenced lease
ownership with monotonic heartbeat counters, GPJL write-ahead spill
logging with torn-tail tolerance, and the GPCK checkpoint generation
ladder.

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
from repro.resilience.storagefaults import (
    StorageFaultOp,
    StorageFaultPlan,
    injecting,
)
from repro.resilience.substrate import build_substrate

# a pid that cannot exist on Linux (default pid_max is 2**22)
DEAD_PID = 2**22 + 12345


def add(a, b):
    return a + b


# the filesystem is the one medium; the "fs" id keeps every test's name
# stable across the removal of the in-memory backend
@pytest.fixture(params=["fs"])
def substrate(request):
    return build_substrate()


@pytest.fixture
def leases(substrate, tmp_path):
    return substrate.lease_store(tmp_path / "leases")


@pytest.fixture
def transport(substrate, tmp_path):
    return substrate.spill_transport(tmp_path / "journal.bin")


@pytest.fixture
def checkpoints(substrate, tmp_path):
    return substrate.checkpoint_store(tmp_path / "run")


# ----------------------------------------------------------------------
# Leases: ownership, heartbeat counters, fencing
# ----------------------------------------------------------------------


class TestLeaseConformance:
    def test_acquire_read_release(self, leases):
        held = leases.acquire(3, owner="host-a", epoch=2)
        info = leases.read(3)
        assert (info.slice_index, info.owner, info.pid, info.epoch) == (
            3,
            "host-a",
            os.getpid(),
            2,
        )
        assert info.heartbeat == 0
        held.release()
        assert leases.read(3) is None

    def test_double_acquire_names_the_holder(self, leases):
        leases.acquire(0, owner="first")
        with pytest.raises(LeaseHeldError, match="first"):
            leases.acquire(0, owner="second")

    def test_release_is_idempotent(self, leases):
        held = leases.acquire(1, owner="w")
        held.release()
        held.release()  # second release must not raise

    def test_heartbeat_counter_is_monotonic(self, leases):
        """Satellite invariant: every refresh bumps the published
        counter by exactly one — the signal observation-based staleness
        keys on when mtime granularity is useless."""
        held = leases.acquire(0, owner="w")
        for expected in (1, 2, 3):
            held.refresh()
            assert leases.read(0).heartbeat == expected
        assert held.info.heartbeat == 3

    def test_missing_lease_is_not_stale(self, leases):
        assert not leases.is_stale(0, timeout=0.01)
        assert not leases.break_stale(0, timeout=0.01)

    def test_live_heartbeating_holder_is_protected(self, leases):
        leases.acquire(0, owner="alive")
        assert not leases.is_stale(0, timeout=3600.0)
        with pytest.raises(LeaseHeldError, match="alive"):
            leases.break_stale(0, timeout=3600.0)

    def test_dead_pid_is_fenced_and_epoch_advances(self, leases):
        leases.acquire(0, owner="dead", pid=DEAD_PID, epoch=4)
        assert leases.is_stale(0, timeout=3600.0)
        assert leases.break_stale(0, timeout=3600.0)
        assert leases.read(0) is None
        leases.acquire(0, owner="successor", epoch=5)
        info = leases.read(0)
        assert info.owner == "successor"
        assert info.epoch == 5

    def test_heartbeat_silence_is_stale_under_observation(self, leases):
        """A live-pid holder that stops refreshing gets fenced: the
        observations cache sees the counter frozen past the timeout."""
        leases.acquire(0, owner="silent")  # never refreshes
        obs = {}
        # first sighting only records the counter; silence starts now
        assert not leases.is_stale(0, timeout=0.05, observations=obs)
        time.sleep(0.12)
        assert leases.is_stale(0, timeout=0.05, observations=obs)
        assert leases.break_stale(0, timeout=0.05, observations=obs)
        assert leases.read(0) is None

    def test_refresh_resets_the_observation_clock(self, leases):
        held = leases.acquire(0, owner="w")
        obs = {}
        assert not leases.is_stale(0, timeout=0.08, observations=obs)
        time.sleep(0.05)
        held.refresh()
        time.sleep(0.05)
        # more wall time than the timeout has passed since the first
        # sighting, but the counter moved in between: not stale
        assert not leases.is_stale(0, timeout=0.08, observations=obs)

    def test_refresh_never_resurrects_a_fenced_lease(self, leases):
        """The fencing guarantee: once broken, the old holder's
        heartbeat must not re-create the slot (the successor would be
        sharing the slice with a zombie)."""
        held = leases.acquire(0, owner="zombie", pid=DEAD_PID)
        assert leases.break_stale(0, timeout=3600.0)
        held.refresh()  # silent no-op, not an error
        assert leases.read(0) is None


# ----------------------------------------------------------------------
# Spill transport: WAL semantics, torn tails, compaction
# ----------------------------------------------------------------------


class TestTransportConformance:
    def test_exists_tracks_creation(self, transport):
        assert not transport.exists()
        transport.create(2).close()
        assert transport.exists()

    def test_replay_coalesces_like_the_live_buffers(self, transport):
        journal = transport.create(2)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.spill(0, vertex=1, generation=1, delta=0.25)
        journal.spill(1, vertex=5, generation=0, delta=2.0)
        journal.commit(1)
        journal.close()
        buffers, _ = transport.replay(2, None, add)
        # same-vertex records coalesce through reduce_fn, newest generation
        assert buffers == [{1: (1.25, 1)}, {5: (2.0, 0)}]

    def test_uncommitted_records_never_reach_the_log(self, transport):
        """The WAL contract: records buffer in memory until commit, so a
        crash (or a fencing abort) between spill and commit leaves no
        trace for replay to double-apply."""
        journal = transport.create(1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.close()  # no commit
        buffers, _ = transport.replay(1, None, add)
        assert buffers == [{}]

    def test_consume_clears_a_slice_and_upto_rewinds_it(self, transport):
        journal = transport.create(2)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.spill(1, vertex=2, generation=0, delta=2.0)
        journal.commit(1)
        journal.consume(0)
        journal.commit(2)
        journal.close()
        assert transport.replay(2, None, add)[0] == [{}, {2: (2.0, 0)}]
        assert transport.replay(2, 1, add)[0] == [
            {1: (1.0, 0)},
            {2: (2.0, 0)},
        ]

    def test_torn_tail_is_tolerated_then_truncated(self, transport):
        """A crash mid-append leaves a partial record; scan must adopt
        the last complete commit, report the stray bytes as tail, and
        truncating at the scan offset must leave a clean log."""
        journal = transport.create(1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(1)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        journal.commit(2)
        journal.close()
        committed = transport.scan(1, 1, add)
        # tear 3 bytes into whatever followed commit 1
        transport.truncate(committed.offset + 3)
        scan = transport.scan(1, None, add)
        assert scan.buffers == committed.buffers == [{1: (1.0, 0)}]
        assert scan.last_commit == 1
        assert scan.offset == committed.offset
        assert scan.tail_bytes == 3
        assert scan.tail_records == 0  # partial bytes, no whole record
        transport.truncate(scan.offset)
        clean = transport.scan(1, None, add)
        assert clean.buffers == committed.buffers
        assert clean.tail_bytes == 0

    def test_open_append_continues_the_log(self, transport):
        journal = transport.create(1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(1)
        journal.close()
        resumed = transport.open_append(1)
        resumed.spill(0, vertex=2, generation=1, delta=2.0)
        resumed.commit(2)
        resumed.close()
        buffers, _ = transport.replay(1, None, add)
        assert buffers == [{1: (1.0, 0), 2: (2.0, 1)}]

    def test_open_append_validates_the_slice_count(self, transport):
        transport.create(2).close()
        with pytest.raises(CheckpointCorruptError):
            transport.open_append(3)

    def test_compaction_preserves_replay_to_retained_commits(self, transport):
        journal = transport.create(2)
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
            upto: transport.replay(2, upto, add)[0] for upto in (2, 3)
        }
        stats = transport.compact_file(2, 2, add)
        assert stats["records_dropped"] > 0
        assert stats["bytes_after"] < stats["bytes_before"]
        for upto in (2, 3):
            assert transport.replay(2, upto, add)[0] == before[upto]

    def test_transient_append_fault_is_retried(self, transport):
        """One injected EIO on the journal commit must be absorbed by
        the bounded retry."""
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="eio", path_glob="journal.bin"),)
        )
        with injecting(plan) as injector:
            journal = transport.create(1)
            journal.spill(0, vertex=1, generation=0, delta=1.0)
            journal.commit(1)
            journal.close()
            assert injector.injected, "fault never fired"
            assert injector.injected[0]["kind"] == "eio"
        buffers, _ = transport.replay(1, None, add)
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

    def test_reopen_sees_the_published_manifest(self, substrate, tmp_path):
        store = substrate.checkpoint_store(tmp_path / "run")
        store.create(fresh_manifest())
        store.write(make_checkpoint(0, 3.5), keep=5, **WRITE_KW)
        # a fresh store over the same directory: open() re-parses the
        # published bytes, which is the cross-process contract
        reopened = substrate.checkpoint_store(tmp_path / "run")
        manifest = reopened.open()
        assert [entry["seq"] for entry in manifest["checkpoints"]] == [0]
        restored = reopened.load_latest()
        assert restored.state.tobytes() == make_checkpoint(0, 3.5).state.tobytes()
