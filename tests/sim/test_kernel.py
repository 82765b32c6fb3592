"""Unit tests for the simulation kernel primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.sim import BandwidthResource, PipelinedResource, Resource, Simulator
from repro.sim.kernel import next_free_chain


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(5, lambda: order.append("b"))
        sim.at(2, lambda: order.append("a"))
        sim.at(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 9

    def test_same_cycle_fifo(self):
        sim = Simulator()
        order = []
        sim.at(3, lambda: order.append(1))
        sim.at(3, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_after_is_relative(self):
        sim = Simulator()
        fired = []
        sim.at(10, lambda: sim.after(5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [15]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5, lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1, lambda: None)

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_run_respects_max_cycles(self):
        sim = Simulator()
        fired = []
        sim.at(5, lambda: fired.append(5))
        sim.at(100, lambda: fired.append(100))
        sim.run(max_cycles=50)
        assert fired == [5]
        assert sim.now == 50
        assert sim.pending == 1

    def test_event_counter(self):
        sim = Simulator()
        for c in range(4):
            sim.at(c, lambda: None)
        sim.run()
        assert sim.stats.get("events_executed") == 4

    def test_cascading_events(self):
        sim = Simulator()
        hits = []

        def chain(depth):
            hits.append(sim.now)
            if depth:
                sim.after(2, lambda: chain(depth - 1))

        sim.at(0, lambda: chain(3))
        sim.run()
        assert hits == [0, 2, 4, 6]


class TestResource:
    def test_idle_resource_starts_immediately(self):
        r = Resource("r")
        assert r.acquire(10, 5) == 10
        assert r.next_free == 15

    def test_busy_resource_queues(self):
        r = Resource("r")
        r.acquire(0, 10)
        assert r.acquire(3, 2) == 10
        assert r.stats.get("wait_cycles") == 7

    def test_zero_occupancy(self):
        r = Resource("r")
        assert r.acquire(4, 0) == 4
        assert r.next_free == 4

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            Resource("r").acquire(0, -1)

    def test_utilization(self):
        r = Resource("r")
        r.acquire(0, 25)
        assert r.utilization(100) == 0.25
        assert r.utilization(0) == 0.0

    def test_utilization_reports_true_ratio_over_one(self):
        # a too-short horizon must not be hidden by clamping
        r = Resource("r")
        r.acquire(0, 30)
        assert r.utilization(10) == 3.0

    def test_oversubscription_recorded(self):
        r = Resource("r")
        r.acquire(0, 30)
        r.utilization(10)
        assert r.stats.get("oversubscribed") == 3.0
        # the stat keeps the peak ratio and merges as a gauge
        r.utilization(20)
        assert r.stats.get("oversubscribed") == 3.0
        assert r.stats.is_gauge("oversubscribed")

    def test_no_oversubscription_stat_when_within_horizon(self):
        r = Resource("r")
        r.acquire(0, 25)
        r.utilization(100)
        assert "oversubscribed" not in r.stats

    def test_reset(self):
        r = Resource("r")
        r.acquire(0, 10)
        r.reset()
        assert r.next_free == 0
        assert r.stats.get("busy_cycles") == 0


class TestPipelinedResource:
    def test_back_to_back_issues(self):
        p = PipelinedResource("p", 1, 4)
        assert p.issue(0) == (0, 4)
        assert p.issue(0) == (1, 5)
        assert p.issue(0) == (2, 6)

    def test_initiation_interval(self):
        p = PipelinedResource("p", 3, 6)
        assert p.issue(0) == (0, 6)
        assert p.issue(1) == (3, 9)

    def test_idle_gap_resets_issue(self):
        p = PipelinedResource("p", 1, 4)
        p.issue(0)
        assert p.issue(50) == (50, 54)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PipelinedResource("p", 0, 4)
        with pytest.raises(ValueError):
            PipelinedResource("p", 4, 2)


class TestBandwidthResource:
    def test_transfer_duration(self):
        b = BandwidthResource("b", 16.0)
        start, done = b.transfer(0, 64)
        assert (start, done) == (0, 4)

    def test_transfers_serialize(self):
        b = BandwidthResource("b", 16.0)
        b.transfer(0, 64)
        start, done = b.transfer(0, 64)
        assert (start, done) == (4, 8)

    def test_fractional_rate_rounds(self):
        b = BandwidthResource("b", 17.0)
        __, done = b.transfer(0, 64)
        assert done == 4  # 64/17 = 3.76 -> 4

    def test_minimum_one_cycle(self):
        b = BandwidthResource("b", 1000.0)
        __, done = b.transfer(0, 8)
        assert done == 1

    def test_zero_bytes_is_free(self):
        b = BandwidthResource("b", 8.0)
        assert b.transfer(5, 0) == (5, 5)

    def test_byte_accounting(self):
        b = BandwidthResource("b", 8.0)
        b.transfer(0, 32)
        b.transfer(0, 32)
        assert b.stats.get("bytes") == 64

    def test_invalid(self):
        with pytest.raises(ValueError):
            BandwidthResource("b", 0)
        with pytest.raises(ValueError):
            BandwidthResource("b", 8.0).transfer(0, -1)

    def test_utilization_true_ratio_and_oversubscription(self):
        b = BandwidthResource("b", 8.0)
        b.transfer(0, 64)  # 8 busy cycles
        assert b.utilization(16) == 0.5
        assert b.utilization(4) == 2.0
        assert b.stats.get("oversubscribed") == 2.0
        assert b.stats.is_gauge("oversubscribed")


#: cycles reach 2**40: the lift that keeps units apart in the chain's
#: running max spans the batch's whole range, times the unit count
_CYCLES = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**40),
)


@st.composite
def request_batches(draw):
    """Units with seeded next-free cycles and a batch of requests to
    them in call order: random keys, arrivals in any order (not sorted,
    repeats allowed), the empty and the single-unit case included, and
    up to 70 units and ~700 requests (the cycle model's 64 coalescer
    pipelines take ~575 events a bin)."""
    units = draw(st.integers(min_value=1, max_value=70))
    count = draw(st.integers(min_value=0, max_value=700))
    keys = draw(npst.arrays(np.int64, count, elements=st.integers(0, units - 1)))
    arrivals = draw(npst.arrays(np.int64, count, elements=_CYCLES))
    seeds = draw(st.lists(_CYCLES, min_size=units, max_size=units))
    return units, keys, arrivals, seeds


def _unit_state(unit, cursor):
    return (
        getattr(unit, cursor),
        unit.stats.get("wait_cycles"),
        list(unit.stats.snapshot().items()),
    )


@given(batch=request_batches(), occupancy=st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_acquire_many_is_the_scalar_acquire_chain(batch, occupancy):
    units, keys, arrivals, seeds = batch
    scalar = [Resource(f"s{i}") for i in range(units)]
    batched = [Resource(f"b{i}") for i in range(units)]
    for unit_list in (scalar, batched):
        for unit, seed in zip(unit_list, seeds):
            unit.next_free = seed
    starts = [
        scalar[k].acquire(a, occupancy)
        for k, a in zip(keys.tolist(), arrivals.tolist())
    ]
    assert Resource.acquire_many(batched, keys, arrivals, occupancy).tolist() == starts
    assert [_unit_state(u, "next_free") for u in batched] == [
        _unit_state(u, "next_free") for u in scalar
    ]


@given(
    batch=request_batches(),
    intervals=st.one_of(
        st.integers(min_value=1, max_value=5).map(lambda i: [i] * 70),
        st.lists(st.integers(min_value=1, max_value=5), min_size=70, max_size=70),
    ),
    extra_latency=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_issue_many_is_the_scalar_issue_chain(batch, intervals, extra_latency):
    units, keys, arrivals, seeds = batch

    def pipelines():
        made = [
            PipelinedResource(f"p{i}", intervals[i], intervals[i] + extra_latency)
            for i in range(units)
        ]
        for unit, seed in zip(made, seeds):
            unit.next_issue = seed
        return made

    scalar, batched = pipelines(), pipelines()
    pairs = [scalar[k].issue(a) for k, a in zip(keys.tolist(), arrivals.tolist())]
    starts, done = PipelinedResource.issue_many(batched, keys, arrivals)
    assert list(zip(starts.tolist(), done.tolist())) == pairs
    assert [_unit_state(u, "next_issue") for u in batched] == [
        _unit_state(u, "next_issue") for u in scalar
    ]


@given(
    batch=request_batches(),
    service=st.one_of(
        st.integers(min_value=0, max_value=7),
        npst.arrays(np.int64, 700, elements=st.integers(min_value=0, max_value=7)),
    ),
)
@settings(max_examples=150, deadline=None)
def test_next_free_chain_takes_a_service_per_request(batch, service):
    units, keys, arrivals, seeds = batch
    if isinstance(service, np.ndarray):
        service = service[: len(keys)]
        cycles_of = service.tolist()
    else:
        cycles_of = [service] * len(keys)
    free = list(seeds)
    expected = []
    requests, waits, ends = {}, {}, {}
    for key, arrival, cycles in zip(keys.tolist(), arrivals.tolist(), cycles_of):
        start = max(arrival, free[key])
        free[key] = start + cycles
        expected.append(start)
        requests[key] = requests.get(key, 0) + 1
        waits[key] = waits.get(key, 0) + start - arrival
        ends[key] = start + cycles
    starts, touched, counts, wait, end = next_free_chain(
        keys, arrivals, np.array(seeds, dtype=np.int64), service
    )
    assert starts.dtype == np.int64
    assert starts.tolist() == expected
    assert touched.tolist() == sorted(requests)
    assert counts.tolist() == [requests[k] for k in sorted(requests)]
    assert wait.tolist() == [waits[k] for k in sorted(requests)]
    assert end.tolist() == [ends[k] for k in sorted(requests)]


@pytest.mark.parametrize("units", [256, 257])
def test_next_free_chain_sorts_wide_unit_ranges(units):
    # the narrow-dtype sort serves up to 256 units
    rng = np.random.default_rng(units)
    keys = rng.integers(0, units, 2000).astype(np.int64)
    keys[:2] = (0, units - 1)
    arrivals = rng.integers(0, 500, 2000).astype(np.int64)
    seeds = rng.integers(0, 500, units).astype(np.int64)
    free = seeds.tolist()
    expected = []
    for key, arrival in zip(keys.tolist(), arrivals.tolist()):
        start = max(arrival, free[key])
        free[key] = start + 3
        expected.append(start)
    starts, touched, *_ = next_free_chain(keys, arrivals, seeds, 3)
    assert starts.tolist() == expected
    assert touched.tolist() == sorted(set(keys.tolist()))
