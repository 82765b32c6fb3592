"""The sliced engines' spill buffers as one column store.

``SpillBuffers.absorb_many`` must give every slice's buffer what the
per-slice ``Dict[int, Event]`` buckets gave before it, message by
message: the same folded delta bits, the same generation and the same
first-arrival order (the order ``take`` hands an activation its
inbound).  The checkpoint format stays the dict snapshot, and a
snapshot must survive serialization with its order intact.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Event
from repro.core.spill import SpillBuffers, SpillColumns
from repro.errors import CheckpointCorruptError
from repro.resilience import deserialize_checkpoint, serialize_checkpoint
from repro.resilience.checkpoint import Checkpoint

NUM_VERTICES = 12

REDUCES = [
    pytest.param(lambda a, b: a + b, np.add, id="add"),
    pytest.param(min, np.minimum, id="min"),
    pytest.param(max, np.maximum, id="max"),
    pytest.param(lambda a, b: a + b, None, id="add-without-ufunc"),
    pytest.param(min, None, id="min-without-ufunc"),
]


def bits(value):
    return struct.pack("<d", value)


def columns(messages):
    return (
        np.array([v for v, _, _ in messages], dtype=np.int64),
        np.array([d for _, d, _ in messages], dtype=np.float64),
        np.array([g for _, _, g in messages], dtype=np.int64),
    )


class DictBuckets:
    """The per-slice dict buckets the column store replaced."""

    def __init__(self, owner, num_slices, reduce_fn):
        self.owner = owner
        self.reduce_fn = reduce_fn
        self.buckets = [{} for _ in range(num_slices)]

    def absorb(self, vertex, delta, generation):
        bucket = self.buckets[int(self.owner[vertex])]
        event = Event(vertex, delta, generation)
        existing = bucket.get(vertex)
        bucket[vertex] = (
            existing.coalesced_with(event, self.reduce_fn)
            if existing is not None
            else event
        )

    def take(self, slice_index):
        bucket = self.buckets[slice_index]
        self.buckets[slice_index] = {}
        return [(e.vertex, bits(e.delta), e.generation) for e in bucket.values()]


def taken(spill, slice_index):
    batch = spill.take(slice_index)
    return [(e.vertex, bits(e.delta), e.generation) for e in batch.events()]


messages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_VERTICES - 1),
        # finite and infinite doubles; no NaN and no -0.0 (see
        # tests/algorithms/test_array_hooks.py)
        st.floats(allow_nan=False, width=64).map(lambda x: x + 0.0),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(
    num_slices=st.integers(min_value=1, max_value=4),
    owner_draw=st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=NUM_VERTICES,
        max_size=NUM_VERTICES,
    ),
    steps=st.lists(
        st.tuples(messages, st.integers(min_value=-1, max_value=3)),
        max_size=5,
    ),
)
@pytest.mark.parametrize("reduce_fn,ufunc", REDUCES)
def test_absorb_many_equals_a_sequential_dict_fold(
    num_slices, owner_draw, steps, reduce_fn, ufunc
):
    """Batches with repeated vertices, to every slice, interleaved with
    takes: delta bits, generations and arrival order match the dicts."""
    owner = np.array([s % num_slices for s in owner_draw], dtype=np.int64)
    spill = SpillBuffers(owner, num_slices, reduce_fn, ufunc)
    reference = DictBuckets(owner, num_slices, reduce_fn)
    for batch, take_slice in steps:
        spill.absorb_many(*columns(batch))
        for message in batch:
            reference.absorb(*message)
        assert [spill.size(s) for s in range(num_slices)] == [
            len(b) for b in reference.buckets
        ]
        if 0 <= take_slice < num_slices:
            assert taken(spill, take_slice) == reference.take(take_slice)
    assert spill.occupancy == sum(len(b) for b in reference.buckets)
    for slice_index in range(num_slices):
        assert taken(spill, slice_index) == reference.take(slice_index)
    assert spill.is_empty


def test_take_hands_back_first_arrival_order():
    owner = np.array([0, 1, 0, 1, 0], dtype=np.int64)
    spill = SpillBuffers(owner, 2, min, np.minimum)
    spill.absorb_many(*columns([(4, 3.0, 1), (2, 5.0, 0), (4, 1.0, 7)]))
    spill.absorb_many(*columns([(0, 2.0, 2), (2, 4.0, 1), (3, 9.0, 0)]))
    inbound = spill.take(0)
    assert inbound.vertices.tolist() == [4, 2, 0]
    assert inbound.deltas.tolist() == [1.0, 4.0, 2.0]
    assert inbound.generations.tolist() == [7, 1, 2]
    assert len(inbound) == 3
    assert spill.size(0) == 0 and spill.size(1) == 1
    # the diagnostic view lists a slice's events by vertex id
    spill.absorb_many(*columns([(2, 6.0, 0), (0, 8.0, 0)]))
    assert [e.vertex for e in spill.peek_bin(0)] == [0, 2]
    assert spill.num_bins == 2 and spill.occupancy == 3


def test_snapshot_round_trips_through_a_checkpoint():
    owner = np.array([0, 0, 1, 1, 2, 2, 0], dtype=np.int64)
    spill = SpillBuffers(owner, 3, lambda a, b: a + b, np.add)
    spill.absorb_many(
        *columns(
            [(6, 0.5, 1), (1, 0.25, 0), (3, -1.5, 4), (6, 0.125, 3), (0, 2.0, 0)]
        )
    )
    spill.absorb_many(*columns([(2, 1.0, 2), (1, 1e300, 9)]))
    snapshot = spill.snapshot()
    assert [list(bucket) for bucket in snapshot] == [[6, 1, 0], [3, 2], []]

    checkpoint = Checkpoint(
        index=0,
        round_index=5,
        at=5.0,
        state=np.zeros(len(owner)),
        queue_snapshot=snapshot,
        pending_events=spill.occupancy,
    )
    blob = serialize_checkpoint(
        checkpoint,
        engine="sliced",
        algorithm="pagerank",
        queue_kind="spill",
        totals={},
        fault_cursor={},
        journal_commit=5,
    )
    restored_snapshot = deserialize_checkpoint(blob).queue_snapshot
    restored = SpillBuffers(owner, 3, lambda a, b: a + b, np.add)
    restored.restore(restored_snapshot)
    for slice_index in range(3):
        assert taken(restored, slice_index) == taken(spill, slice_index)


def test_restore_refuses_a_vertex_its_slice_does_not_own():
    spill = SpillBuffers(np.array([0, 1], dtype=np.int64), 2, min, np.minimum)
    with pytest.raises(CheckpointCorruptError, match="does not own"):
        spill.restore([{1: Event(1, 1.0)}, {}])


def test_columns_concatenate_in_order():
    first = SpillColumns(*columns([(1, 1.0, 0), (2, 2.0, 1)]))
    second = SpillColumns(*columns([(1, 3.0, 2)]))
    merged = SpillColumns.concat([first, second])
    assert merged.vertices.tolist() == [1, 2, 1]
    assert merged.deltas.tolist() == [1.0, 2.0, 3.0]
    assert len(SpillColumns.concat([])) == 0
