"""The array hooks of every registered algorithm equal its scalar forms.

The batched event kernel computes a drain's messages with
``spec.propagate_array`` and the queue folds them with
``spec.reduce_ufunc.at``; both must give the exact bits of the scalar
``propagate`` and of the left fold of ``reduce`` in insertion order.

Two inputs are deliberately left out:

- ``-0.0`` never enters the queue.  For ``+`` it equals the identity
  ``0.0`` and the kernel drops it before the insert.  For ``min`` and
  ``max`` no fault-free run produces it (distances and levels grow from
  a ``+0.0`` root, labels are vertex ids), and there the two forms
  break a ``0.0``/``-0.0`` tie differently: ``ufunc.at`` keeps the
  arrival, Python's ``min``/``max`` keep the held value.
- NaN only comes from injected faults, and messages under a resilience
  harness stay on the per-message path (``filter_insert`` and the
  scalar ``insert``), which the hooks never see.

A spec without the hooks runs the same kernel through the scalar
functions and the per-message insert path.

The scalar ``spec.apply`` every engine calls once per event returns an
``ApplyResult`` for every input, NaN and -0.0 included.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ApplyResult, algorithm_names, get_algorithm
from repro.core import CoalescingQueue, FunctionalGraphPulse
from repro.graph import CSRGraph

_GRAPH = CSRGraph.from_edges(
    4, [(0, 1), (1, 2), (2, 0), (2, 3)], weights=[0.5, 0.25, 0.5, 0.125]
)


def _spec(name):
    if name == "linear-solver":
        return get_algorithm(name, _GRAPH, constants=np.ones(4))
    return get_algorithm(name, _GRAPH)


SPECS = {name: _spec(name) for name in algorithm_names()}


def bits(value):
    return struct.pack("<d", float(value))


# finite, infinite and subnormal doubles; no NaN (see the module docs)
doubles = st.floats(allow_nan=False, allow_subnormal=True, width=64)
# the same without -0.0 (``x + 0.0`` maps -0.0 to 0.0 and nothing else)
queued = doubles.map(lambda x: x + 0.0)


def test_every_registered_algorithm_has_both_hooks():
    for name, spec in SPECS.items():
        assert spec.propagate_array is not None, name
        assert isinstance(spec.reduce_ufunc, np.ufunc), name


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_propagate_array_is_bit_equal_to_propagate(name, data):
    spec = SPECS[name]
    size = data.draw(st.integers(min_value=1, max_value=24))
    column = lambda strategy: data.draw(  # noqa: E731
        st.lists(strategy, min_size=size, max_size=size)
    )
    deltas = column(doubles)
    srcs = column(st.integers(min_value=0, max_value=2**40))
    dsts = column(st.integers(min_value=0, max_value=2**40))
    degrees = column(st.integers(min_value=1, max_value=2**40))
    if spec.uses_weights:
        weights = column(doubles)
        weight_arg = np.array(weights, dtype=np.float64)
    else:
        # the kernel passes the scalar 1.0 for unweighted specs
        weights = [1.0] * size
        weight_arg = 1.0
    # the kernel calls the hook with numpy's float warnings off, as
    # Python float arithmetic overflows to inf silently
    with np.errstate(all="ignore"):
        out = spec.propagate_array(
            np.array(deltas, dtype=np.float64),
            np.array(srcs, dtype=np.int64),
            np.array(dsts, dtype=np.int64),
            weight_arg,
            np.array(degrees, dtype=np.int64),
        )
    assert out.shape == (size,)
    for i in range(size):
        expected = spec.propagate(deltas[i], srcs[i], dsts[i], weights[i], degrees[i])
        assert bits(out[i]) == bits(expected), (i, deltas[i], weights[i])


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_ufunc_at_is_the_left_fold_in_insertion_order(name, data):
    spec = SPECS[name]
    held = data.draw(st.lists(queued, min_size=1, max_size=6))
    arrivals = data.draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(held) - 1), queued),
            max_size=40,
        )
    )
    expected = list(held)
    for slot, delta in arrivals:
        expected[slot] = spec.reduce(expected[slot], delta)
    slots = np.array(held, dtype=np.float64)
    with np.errstate(all="ignore"):  # as the queue's batch fold
        spec.reduce_ufunc.at(
            slots,
            np.array([slot for slot, _ in arrivals], dtype=np.int64),
            np.array([delta for _, delta in arrivals], dtype=np.float64),
        )
    assert [bits(v) for v in slots] == [bits(v) for v in expected]


#: finite, infinite, NaN, signed-zero and subnormal operands of ``apply``
_APPLY_OPERANDS = (
    0.0,
    -0.0,
    1.0,
    -2.5,
    1e300,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
    -2.0e-310,
)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_apply_returns_an_apply_result(name):
    """``apply`` builds its result without the named tuple's ``__new__``;
    it must still be an ``ApplyResult`` equal to the one the fields
    make (the benchmark's traced run reads ``.changed``)."""
    spec = SPECS[name]
    for state, delta in itertools.product(_APPLY_OPERANDS, repeat=2):
        result = spec.apply(state, delta)
        assert isinstance(result, ApplyResult)
        assert result._fields == ("state", "change", "changed")
        assert type(result.changed) is bool
        new_state = spec.reduce(state, delta)
        changed = not new_state == state
        change = 0.0
        if changed:
            change = new_state - state if spec.additive else new_state
        assert result.changed is changed
        assert bits(result.state) == bits(new_state)
        assert bits(result.change) == bits(change)
        assert result == ApplyResult(*result)
        if not (math.isnan(result.state) or math.isnan(result.change)):
            assert result == ApplyResult(new_state, change, changed)


@pytest.mark.parametrize("name", ["pagerank", "sssp", "cc"])
def test_a_spec_without_hooks_runs_on_the_per_message_path(name, monkeypatch):
    graph = CSRGraph.from_edges(
        6,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 1)],
        weights=[1.0, 2.0, 0.5, 1.5, 1.0, 0.25, 3.0, 1.0],
    )
    spec = get_algorithm(name, graph)
    bare = dataclasses.replace(spec, propagate_array=None, reduce_ufunc=None)
    calls = {"insert": 0}
    scalar_insert = CoalescingQueue.insert

    def counting_insert(self, *args, **kwargs):
        calls["insert"] += 1
        return scalar_insert(self, *args, **kwargs)

    monkeypatch.setattr(CoalescingQueue, "insert", counting_insert)
    batched = FunctionalGraphPulse(graph, spec).run()
    seeded = len(spec.initial_events(graph))
    assert calls["insert"] == seeded

    calls["insert"] = 0
    scalar = FunctionalGraphPulse(graph, bare).run()
    assert calls["insert"] == scalar.total_events_produced
    assert scalar.values.tobytes() == batched.values.tobytes()
    assert scalar.total_events_produced == batched.total_events_produced
    assert scalar.traffic == batched.traffic
