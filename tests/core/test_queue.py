"""Unit tests for the in-place coalescing event queue (Section IV-D)."""

import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CoalescingQueue, Event, VertexBinMap
from repro.core.queue import first_arrival_scratch, first_arrivals


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

    @pytest.mark.parametrize("n,bins,block", [(100, 3, 7), (0, 4, 8), (9, 64, 128)])
    def test_sweep_order_is_the_block_walk(self, n, bins, block):
        m = VertexBinMap(n, num_bins=bins, block_size=block)
        for b in range(bins):
            walk = []
            start = b * block
            while start < n:
                walk.extend(range(start, min(start + block, n)))
                start += bins * block
            assert m.sweep(b).tolist() == walk
            assert list(m.vertices_of_bin(b)) == walk
            assert all(m.bin_of(v) == b for v in walk)

    def test_sweep_order_is_read_only(self):
        m = VertexBinMap(64, num_bins=2, block_size=4)
        with pytest.raises(ValueError):
            m.sweep(0)[0] = 5

    def test_queues_share_a_prebuilt_map(self):
        m = VertexBinMap(64, num_bins=4, block_size=8)
        q = CoalescingQueue(64, min, num_bins=4, block_size=8, mapping=m)
        assert q.mapping is m
        with pytest.raises(ValueError, match="geometry"):
            CoalescingQueue(64, min, num_bins=2, block_size=8, mapping=m)

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


class TestColumnDrain:
    def test_drain_columns_in_sweep_order(self):
        q = sum_queue(bins=2, block=4)
        for v, d, g in [(9, 1.0, 3), (1, 2.0, 1), (8, 0.5, 2), (1, 4.0, 0)]:
            q.insert(v, d, g)
        drained = q.drain_bin_arrays(0)
        assert drained.vertices.tolist() == [1, 8, 9]
        assert drained.deltas.tolist() == [6.0, 0.5, 1.0]
        assert drained.generations.tolist() == [1, 2, 3]
        assert drained.ready.tolist() == [0, 0, 0]
        assert q.is_empty and q.stats.drained == 3
        assert len(q.drain_bin_arrays(0).vertices) == 0

    def test_drained_columns_are_copies(self):
        q = sum_queue()
        q.insert(3, 1.0)
        drained = q.drain_bin_arrays(q.mapping.bin_of(3))
        q.insert(3, 7.0)
        assert drained.deltas.tolist() == [1.0]


class TestFirstArrivals:
    """``first_arrivals`` finds what ``np.unique(..., return_index=True)``
    finds, in position order, and leaves its scratch column empty."""

    SIZE = 16

    @staticmethod
    def reference(keys):
        return np.sort(np.unique(keys, return_index=True)[1])

    def check(self, keys, scratch=None):
        keys = np.asarray(keys, dtype=np.int64)
        empty = first_arrival_scratch(self.SIZE)
        if scratch is None:
            scratch = empty.copy()
        firsts = first_arrivals(keys, scratch)
        assert firsts.dtype == np.int64
        assert firsts.tolist() == self.reference(keys).tolist()
        assert np.array_equal(scratch, empty)
        return firsts

    def test_empty(self):
        assert self.check([]).tolist() == []

    def test_all_distinct(self):
        assert self.check([5, 0, 15, 3]).tolist() == [0, 1, 2, 3]

    def test_all_equal(self):
        assert self.check([7] * 9).tolist() == [0]

    def test_interleaved_repeats(self):
        keys = [3, 1, 3, 2, 1, 1, 4, 2, 3]
        assert self.check(keys).tolist() == [0, 1, 3, 6]

    def test_a_subset_of_positions(self):
        """The queue and the spill buffers look only at the fresh
        messages of a batch: positions map back through the subset."""
        keys = np.array([4, 9, 4, 2, 9, 9, 2, 11, 4], dtype=np.int64)
        subset = np.array([1, 2, 4, 6, 7, 8], dtype=np.int64)
        firsts = subset[self.check(keys[subset])]
        assert firsts.tolist() == [1, 2, 6, 7]
        expected = subset[np.unique(keys[subset], return_index=True)[1]]
        assert firsts.tolist() == sorted(expected.tolist())

    def test_one_scratch_serves_back_to_back_batches(self):
        scratch = first_arrival_scratch(self.SIZE)
        assert self.check([1, 1, 2, 1], scratch).tolist() == [0, 2]
        assert self.check([2, 1, 2, 0], scratch).tolist() == [0, 1, 3]

    @given(
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=15), max_size=40),
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_np_unique(self, batches):
        scratch = first_arrival_scratch(self.SIZE)
        for keys in batches:
            self.check(keys, scratch)


def _batch(messages):
    return (
        np.array([v for v, _, _ in messages], dtype=np.int64),
        np.array([d for _, d, _ in messages], dtype=np.float64),
        np.array([g for _, _, g in messages], dtype=np.int64),
    )


messages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.floats(allow_nan=False, width=64).map(lambda x: x + 0.0),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=60,
)

#: duplicate-heavy batches: many messages on four vertices
crowded = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.floats(allow_nan=False, width=64).map(lambda x: x + 0.0),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=8,
    max_size=60,
)

#: two back-to-back batches on the same vertices, one vertex repeated
#: throughout and the others interleaved; between them bin 1 (vertices
#: 2, 3, 8, 9, ...) is drained, so vertex 2 arrives fresh again
_BACK_TO_BACK = [
    ([(2, 1.0, 0), (2, 0.5, 3), (1, 4.0, 1), (2, 0.25, 2), (1, 2.0, 0)] * 3,
     1),
    ([(1, 8.0, 2), (2, 1.0, 1), (1, 3.0, 5), (0, 6.0, 0), (2, 7.0, 4)] * 2,
     -1),
]


def _drained(events):
    return [
        (e.vertex, struct.pack("<d", e.delta), e.generation, e.ready)
        for e in events
    ]


@given(
    held=messages,
    batches=st.lists(
        st.tuples(
            st.one_of(messages, crowded),
            st.integers(min_value=-1, max_value=2),
        ),
        max_size=4,
    ),
)
@example(held=[], batches=_BACK_TO_BACK)
@example(held=[(2, 9.0, 1)], batches=_BACK_TO_BACK)
@settings(max_examples=80, deadline=None)
@pytest.mark.parametrize(
    "reduce_fn,ufunc",
    [(lambda a, b: a + b, np.add), (min, np.minimum), (max, np.maximum)],
)
def test_insert_many_equals_inserting_one_by_one(held, batches, reduce_fn, ufunc):
    """The batch fold gives every slot the scalar left fold, bit for bit,
    including claims of empty slots and folds into held ones.  Batches
    may repeat a vertex many times, and a drain between batches (bin
    index >= 0) makes its vertices fresh again, so a later batch finds
    the first-arrival scratch empty for them."""
    scalar = CoalescingQueue(24, reduce_fn, num_bins=3, block_size=2)
    batched = CoalescingQueue(
        24, reduce_fn, num_bins=3, block_size=2, reduce_ufunc=ufunc
    )
    for vertex, delta, generation in held:
        scalar.insert(vertex, delta, generation, ready=generation)
        batched.insert(vertex, delta, generation, ready=generation)
    for batch, drain in batches:
        for vertex, delta, generation in batch:
            scalar.insert(vertex, delta, generation)
        batched.insert_many(*_batch(batch))
        assert len(batched) == len(scalar)
        assert [batched.bin_occupancy(b) for b in range(3)] == [
            scalar.bin_occupancy(b) for b in range(3)
        ]
        if drain >= 0:
            assert _drained(batched.drain_bin(drain)) == _drained(
                scalar.drain_bin(drain)
            )

    assert _drained(batched.drain_all()) == _drained(scalar.drain_all())
    assert batched.stats == scalar.stats


timed_messages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.floats(allow_nan=False, width=64).map(lambda x: x + 0.0),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=60,
)


def _timed_batch(messages):
    columns = list(zip(*messages)) or [(), (), (), ()]
    return (
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.float64),
        np.array(columns[2], dtype=np.int64),
        np.array(columns[3], dtype=np.int64),
    )


def _assert_same_queue(batched, scalar, bins=3):
    assert len(batched) == len(scalar)
    assert [batched.bin_occupancy(b) for b in range(bins)] == [
        scalar.bin_occupancy(b) for b in range(bins)
    ]

    def drained(queue):
        return [
            (e.vertex, struct.pack("<d", e.delta), e.generation, e.ready)
            for e in queue.drain_all()
        ]

    assert drained(batched) == drained(scalar)
    assert batched.stats == scalar.stats


@given(held=timed_messages, batches=st.lists(timed_messages, max_size=4))
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("checked", [False, True], ids=["columns", "parity"])
@pytest.mark.parametrize(
    "reduce_fn,ufunc",
    [(lambda a, b: a + b, np.add), (min, np.minimum), (max, np.maximum)],
)
def test_insert_many_with_readies_equals_timed_inserts(
    held, batches, checked, reduce_fn, ufunc
):
    """``readies`` folds like the scalar ``ready`` argument: claims take
    it, folds keep the max; under a payload check the batch falls back
    to scalar inserts and the raw entries keep their own readies."""
    scalar = CoalescingQueue(24, reduce_fn, num_bins=3, block_size=2)
    batched = CoalescingQueue(
        24, reduce_fn, num_bins=3, block_size=2, reduce_ufunc=ufunc
    )
    if checked:
        scalar.payload_check = batched.payload_check = lambda event: True
    for vertex, delta, generation, ready in held:
        scalar.insert(vertex, delta, generation, ready)
        batched.insert(vertex, delta, generation, ready)
    for batch in batches:
        for vertex, delta, generation, ready in batch:
            scalar.insert(vertex, delta, generation, ready)
        batched.insert_many(*_timed_batch(batch))
    _assert_same_queue(batched, scalar)


def test_insert_many_readies_raise_and_keep_held_slots():
    # slot 0 is held at ready 10, slot 1 at ready 30; the batch claims
    # slot 2 twice (ready 5 then 2), raises slot 0 and leaves slot 1
    messages = [(0, 1.0, 1, 10), (1, 2.0, 1, 30)]
    batch = [(2, 1.0, 2, 5), (0, 3.0, 2, 40), (1, 4.0, 2, 20), (2, 1.5, 3, 2)]
    scalar = CoalescingQueue(8, lambda a, b: a + b, num_bins=1, block_size=4)
    batched = CoalescingQueue(
        8, lambda a, b: a + b, num_bins=1, block_size=4, reduce_ufunc=np.add
    )
    for queue in (scalar, batched):
        for vertex, delta, generation, ready in messages:
            queue.insert(vertex, delta, generation, ready)
    for vertex, delta, generation, ready in batch:
        scalar.insert(vertex, delta, generation, ready)
    batched.insert_many(*_timed_batch(batch))
    assert [(e.vertex, e.ready) for e in batched.peek_bin(0)] == [
        (0, 40),
        (1, 30),
        (2, 5),
    ]
    _assert_same_queue(batched, scalar, bins=1)
