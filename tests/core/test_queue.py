"""Unit tests for the in-place coalescing event queue (Section IV-D)."""

import struct
from functools import reduce

import pytest

from repro.core import CoalescingQueue, Event, VertexBinMap


def sum_queue(n=1024, bins=4, block=8):
    return CoalescingQueue(
        n, lambda a, b: a + b, num_bins=bins, block_size=block
    )


class TestVertexBinMap:
    def test_blocks_stay_together(self):
        m = VertexBinMap(1024, num_bins=4, block_size=8)
        # vertices 0..7 share block 0 -> bin 0
        assert {m.bin_of(v) for v in range(8)} == {0}
        # next block goes to the next bin
        assert m.bin_of(8) == 1

    def test_blocks_spread_over_bins(self):
        m = VertexBinMap(1024, num_bins=4, block_size=8)
        bins = {m.bin_of(block * 8) for block in range(4)}
        assert bins == {0, 1, 2, 3}

    def test_slots_unique_within_bin(self):
        m = VertexBinMap(512, num_bins=4, block_size=8)
        for b in range(4):
            vertices = list(m.vertices_of_bin(b))
            slots = [m.slot_of(v) for v in vertices]
            assert len(set(slots)) == len(slots)

    def test_vertices_of_bin_partitions_vertex_space(self):
        m = VertexBinMap(100, num_bins=3, block_size=7)
        seen = []
        for b in range(3):
            seen.extend(m.vertices_of_bin(b))
        assert sorted(seen) == list(range(100))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            VertexBinMap(10, num_bins=0, block_size=1)
        with pytest.raises(ValueError):
            VertexBinMap(10, num_bins=1, block_size=0)


class TestInsertAndCoalesce:
    def test_insert_claims_slot(self):
        q = sum_queue()
        assert q.insert(1, 1.0) is False
        assert len(q) == 1

    def test_coalesce_does_not_grow(self):
        q = sum_queue()
        q.insert(1, 1.0)
        assert q.insert(1, 2.0) is True
        assert len(q) == 1
        assert q.stats.coalesced == 1

    def test_coalesced_payload_uses_reduce(self):
        q = sum_queue()
        q.insert(1, 1.0)
        q.insert(1, 2.0)
        [event] = q.drain_bin(q.mapping.bin_of(1))
        assert event.delta == 3.0

    def test_min_reduce_coalescing(self):
        q = CoalescingQueue(64, min, num_bins=2, block_size=4)
        q.insert(5, 9.0)
        q.insert(5, 4.0)
        [event] = q.drain_bin(q.mapping.bin_of(5))
        assert event.delta == 4.0

    def test_peak_occupancy(self):
        q = sum_queue()
        for v in range(10):
            q.insert(v, 1.0)
        q.drain_all()
        assert q.stats.peak_occupancy == 10

    def test_coalesce_rate(self):
        q = sum_queue()
        for _ in range(4):
            q.insert(0, 1.0)
        assert q.stats.coalesce_rate == 0.75

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="slices"):
            CoalescingQueue(100, min, capacity_vertices=50)


class TestDrain:
    def test_drain_in_sweep_order(self):
        q = sum_queue(bins=2, block=4)
        # vertices 0..3 in bin 0; insert out of order
        for v in [3, 0, 2, 1]:
            q.insert(v, 1.0)
        drained = q.drain_bin(0)
        assert [e.vertex for e in drained] == [0, 1, 2, 3]

    def test_drain_empties_bin(self):
        q = sum_queue()
        q.insert(0, 1.0)
        q.drain_bin(0)
        assert q.is_empty
        assert q.drain_bin(0) == []

    def test_one_event_per_vertex_per_drain(self):
        q = sum_queue()
        for _ in range(5):
            q.insert(7, 1.0)
        drained = q.drain_bin(q.mapping.bin_of(7))
        assert len(drained) == 1
        assert drained[0].delta == 5.0

    def test_drain_all_covers_every_bin(self):
        q = sum_queue(bins=4, block=4)
        for v in range(64):
            q.insert(v, 1.0)
        assert len(q.drain_all()) == 64
        assert q.is_empty

    def test_iteration_does_not_remove(self):
        q = sum_queue()
        q.insert(0, 1.0)
        assert len(list(q)) == 1
        assert len(q) == 1

    def test_unconditional_drain_takes_everything(self):
        q = sum_queue()
        q.insert(0, 1.0, ready=1000)
        assert len(q.drain_bin(0)) == 1

    def test_bin_occupancy(self):
        q = sum_queue(bins=2, block=4)
        q.insert(0, 1.0)
        q.insert(4, 1.0)  # block 1 -> bin 1
        assert q.bin_occupancy(0) == 1
        assert q.bin_occupancy(1) == 1


def bits(value):
    return struct.pack("<d", value)


class TestEagerFold:
    """Arrivals fold into the slot at insert time."""

    def test_fold_keeps_max_generation_and_ready(self):
        q = sum_queue()
        q.insert(0, 1.0, generation=4, ready=3)
        q.insert(0, 2.0, generation=2, ready=7)
        [event] = q.drain_bin(0)
        assert event.delta == 3.0
        assert event.generation == 4
        assert event.ready == 7

    def test_insert_event_never_mutates_the_callers_event(self):
        # the sliced engine's inbound events are spill-bucket entries:
        # folding later arrivals into them would corrupt the buckets
        q = sum_queue()
        held = Event(vertex=3, delta=1.0, generation=1, ready=2)
        assert q.insert_event(held) is False
        q.insert(3, 5.0, generation=9, ready=9)
        q.insert_event(Event(vertex=3, delta=0.5))
        assert held == Event(vertex=3, delta=1.0, generation=1, ready=2)
        [event] = q.drain_bin(q.mapping.bin_of(3))
        assert event is not held
        assert (event.delta, event.generation, event.ready) == (6.5, 9, 9)

    def test_peeked_events_are_copies(self):
        q = sum_queue()
        q.insert(2, 1.0)
        [peeked] = list(q)
        q.insert(2, 4.0)
        assert peeked.delta == 1.0
        assert [e.delta for e in q] == [5.0]

    def test_restore_folds_a_multi_entry_snapshot_left_in_order(self):
        # a parity-path snapshot keeps every raw entry; a folding queue
        # restores it as the same left fold the drain would have done
        deltas = [0.1, 0.2, 1e16, 0.3, -1e16]
        snapshot = [
            [
                Event(vertex=5, delta=d, generation=g, ready=10 - g)
                for g, d in enumerate(deltas)
            ]
        ]
        q = sum_queue()
        q.restore(snapshot)
        assert len(q) == 1
        q.insert(5, 0.7, generation=2, ready=1)
        [event] = q.drain_bin(q.mapping.bin_of(5))
        list_fold = reduce(
            lambda a, b: a.coalesced_with(b, q.reduce_fn),
            snapshot[0] + [Event(vertex=5, delta=0.7, generation=2, ready=1)],
        )
        assert bits(event.delta) == bits(list_fold.delta)
        assert event.generation == list_fold.generation == 4
        assert event.ready == list_fold.ready == 10
        # the snapshot itself is untouched and can be restored again
        assert [e.delta for e in snapshot[0]] == deltas

    def test_snapshot_holds_one_folded_entry_per_slot(self):
        q = sum_queue()
        for delta in (1.0, 2.0, 3.0):
            q.insert(1, delta)
        q.insert(9, 1.0)
        assert [[e.delta for e in group] for group in q.snapshot()] == [
            [6.0],
            [1.0],
        ]


class TestParitySlots:
    """With a payload check installed, slots keep their raw entries."""

    def test_snapshot_keeps_raw_entries_and_parity_tags(self):
        q = sum_queue()
        q.payload_check = lambda event: True
        bad = Event(vertex=1, delta=8.0)
        bad._parity_bad = True
        q.insert(1, 1.0)
        q.insert_event(bad)
        [group] = q.snapshot()
        assert [e.delta for e in group] == [1.0, 8.0]
        assert getattr(group[1], "_parity_bad", False)

    def test_check_runs_per_entry_before_coalescing(self):
        q = sum_queue()
        q.payload_check = lambda event: not getattr(event, "_parity_bad", False)
        bad = Event(vertex=1, delta=8.0)
        bad._parity_bad = True
        q.insert(1, 1.0)
        q.insert_event(bad)
        q.insert(1, 2.0)
        [event] = q.drain_bin(q.mapping.bin_of(1))
        assert event.delta == 3.0
        assert q.stats.discarded == 1
        assert q.is_empty
