"""Unit tests for the DDR3-style DRAM model."""

from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import DRAMConfig, DRAMSystem, MemoryRequest
from repro.obs import probe
from repro.obs import trace as obs_trace


@pytest.fixture
def dram():
    return DRAMSystem(DRAMConfig())


class TestRequestValidation:
    def test_negative_address(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=-1, size=8)

    def test_zero_size(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=0, size=0)

    @pytest.mark.parametrize(
        "field", ["row_hit_cycles", "row_miss_cycles", "column_gap_cycles"]
    )
    def test_negative_bank_latency(self, field):
        with pytest.raises(ValueError, match=field):
            DRAMConfig(**{field: -1})

    def test_zero_bank_latency_is_allowed(self):
        dram = DRAMSystem(
            DRAMConfig(row_hit_cycles=0, row_miss_cycles=0, column_gap_cycles=0)
        )
        result = dram.access(MemoryRequest(0, 64), 10)
        assert (result.start_cycle, result.done_cycle) == (10, 14)


class TestSingleAccess:
    def test_first_access_is_row_miss(self, dram):
        result = dram.access(MemoryRequest(0, 8), 0)
        assert not result.row_hit
        assert result.latency >= dram.config.row_miss_cycles

    def test_second_access_same_row_hits(self, dram):
        dram.access(MemoryRequest(0, 8), 0)
        done = dram.channels[0].bus.next_free
        result = dram.access(MemoryRequest(8, 8), done)
        assert result.row_hit

    def test_row_hit_is_faster(self, dram):
        miss = dram.access(MemoryRequest(0, 8), 0)
        hit = dram.access(MemoryRequest(8, 8), miss.done_cycle)
        assert hit.latency < miss.latency

    def test_different_row_same_bank_misses_again(self, dram):
        cfg = dram.config
        stride = (
            cfg.num_channels
            * cfg.banks_per_channel
            * cfg.row_bytes
        )
        first = dram.access(MemoryRequest(0, 8), 0)
        second = dram.access(MemoryRequest(stride, 8), first.done_cycle)
        assert not second.row_hit


class TestMultiLine:
    def test_large_request_spans_lines(self, dram):
        request = MemoryRequest(0, 256)
        assert len(list(dram.lines_of(request))) == 4
        dram.access(request, 0)
        assert dram.stats.get("bytes") == 256

    def test_unaligned_request_rounds_to_lines(self, dram):
        # 8 bytes straddling a line boundary costs two lines
        dram.access(MemoryRequest(60, 8), 0)
        assert dram.stats.get("bytes") == 128

    def test_lines_interleave_channels(self, dram):
        dram.access(MemoryRequest(0, 64 * dram.config.num_channels), 0)
        for channel in dram.channels:
            assert channel.stats.get("bursts") == 1


class TestBandwidth:
    def test_sequential_stream_saturates(self, dram):
        # issue a long stream and verify throughput approaches the
        # configured bytes/cycle
        total = 64 * 1024
        done = dram.access(MemoryRequest(0, total), 0).done_cycle
        achieved = total / done
        assert achieved > 0.5 * dram.config.total_bandwidth

    def test_bandwidth_utilization_bounded(self, dram):
        dram.access(MemoryRequest(0, 4096), 0)
        horizon = dram.busy_horizon()
        assert 0.0 < dram.bandwidth_utilization(horizon) <= 1.0
        assert dram.bandwidth_utilization(0) == 0.0


class TestStats:
    def test_kind_accounting(self, dram):
        dram.access(MemoryRequest(0, 64, kind="vertex"), 0)
        dram.access(MemoryRequest(4096, 64, kind="edge"), 0)
        assert dram.stats.get("vertex_bytes") == 64
        assert dram.stats.get("edge_bytes") == 64

    def test_read_write_split(self, dram):
        dram.access(MemoryRequest(0, 64), 0)
        dram.access(MemoryRequest(0, 64, is_write=True), 0)
        assert dram.stats.get("read_bytes") == 64
        assert dram.stats.get("write_bytes") == 64

    def test_row_hit_rate(self, dram):
        assert dram.row_hit_rate() == 0.0
        dram.access(MemoryRequest(0, 8), 0)
        dram.access(MemoryRequest(8, 8), 200)
        assert 0.0 < dram.row_hit_rate() < 1.0

    def test_sequential_hits_dominate(self, dram):
        # a long stream within rows should mostly row-hit
        cursor = 0
        for i in range(64):
            cursor = dram.access(MemoryRequest(i * 64, 64), cursor).done_cycle
        assert dram.row_hit_rate() > 0.7


# -- the flat line path against the channel -> bank -> bus chain --------
#
# ``DRAMSystem.access`` times each line in one function.  Before that,
# a line went through ``DRAMChannel.access_line``, ``DRAMBank.access``,
# ``Resource.acquire`` and ``BandwidthResource.transfer``; the copies
# below keep that chain, driven through the same primitives, as the
# oracle for results, probes and every StatSet.


def _chain_bank_access(bank, row, at):
    config = bank.config
    if row == bank.open_row:
        bank.stats.add("row_hits")
        start = bank.resource.acquire(at, config.column_gap_cycles)
        return start + config.row_hit_cycles, True
    bank.open_row = row
    bank.stats.add("row_misses")
    start = bank.resource.acquire(at, config.row_miss_cycles)
    return start + config.row_miss_cycles, False


def _chain_access_line(channel, channel_line, at, is_write):
    config = channel.config
    row_line = channel_line // config.lines_per_row
    ready, hit = _chain_bank_access(
        channel.banks[row_line % config.banks_per_channel],
        row_line // config.banks_per_channel,
        at,
    )
    start, done = channel.bus.transfer(ready, config.line_bytes)
    channel.stats.add("bursts")
    channel.stats.add("bytes", config.line_bytes)
    channel.stats.add("write_bursts" if is_write else "read_bursts")
    first = start if start < at else at
    if obs_trace.ACTIVE is not None:
        probe.dram_burst(
            channel.index,
            first,
            done,
            row_hit=hit,
            write=is_write,
            nbytes=config.line_bytes,
        )
    return first, done, hit


def _chain_access(dram, request, at):
    address, size, is_write, kind = request
    config = dram.config
    first = address // config.line_bytes
    stop = (address + size - 1) // config.line_bytes + 1
    start, done, all_hit = None, at, True
    for line in range(first, stop):
        line_start, line_done, hit = _chain_access_line(
            dram.channels[line % config.num_channels],
            line // config.num_channels,
            at,
            is_write,
        )
        start = line_start if start is None else min(start, line_start)
        done = max(done, line_done)
        all_hit = all_hit and hit
    nbytes = (stop - first) * config.line_bytes
    dram.stats.add("accesses")
    dram.stats.add(f"{kind}_accesses")
    dram.stats.add("bytes", nbytes)
    dram.stats.add(f"{kind}_bytes", nbytes)
    dram.stats.add("write_bytes" if is_write else "read_bytes", nbytes)
    start = at if start is None else start
    if obs_trace.ACTIVE is not None:
        probe.dram_txn(
            start, done, kind=kind, nbytes=nbytes, write=is_write, lines=stop - first
        )
    return (start, done, all_hit)


def _dram_state(dram):
    return [
        list(dram.stats.snapshot().items()),
        [
            (
                list(ch.stats.snapshot().items()),
                ch.bus.next_free,
                list(ch.bus.stats.snapshot().items()),
                [
                    (b.open_row, b.resource.next_free, list(b.stats.snapshot().items()))
                    for b in ch.banks
                ],
            )
            for ch in dram.channels
        ],
    ]


_ROW_SPAN = DRAMConfig().num_channels * DRAMConfig().row_bytes


@st.composite
def request_streams(draw):
    """Requests in any order of time: multi-line and unaligned ones,
    reads and writes, mixed kinds, and addresses that fall in a few
    rows so banks see row hits and conflicts."""
    rows = draw(st.lists(st.integers(0, 80), min_size=1, max_size=4))
    requests = draw(
        st.lists(
            st.tuples(
                st.sampled_from(rows),
                st.integers(0, _ROW_SPAN - 1),
                st.sampled_from([1, 8, 60, 64, 65, 128, 300, 1024]),
                st.booleans(),
                st.sampled_from(["vertex", "edge", "data"]),
                st.integers(0, 5000),
            ),
            max_size=40,
        )
    )
    return [
        (MemoryRequest(row * _ROW_SPAN + offset, size, write, kind), at)
        for row, offset, size, write, kind, at in requests
    ]


@given(stream=request_streams(), traced=st.booleans())
@settings(max_examples=200, deadline=None)
@example(
    stream=[
        (MemoryRequest(0, 8), 0),
        (MemoryRequest(8, 8), 0),
        (MemoryRequest(60, 8, True, "edge"), 3),
        (MemoryRequest(0, 4096), 1),
        (MemoryRequest(_ROW_SPAN * 8, 64, False, "vertex"), 0),
    ],
    traced=True,
)
def test_flat_access_matches_the_channel_bank_bus_chain(stream, traced):
    flat, chain = DRAMSystem(), DRAMSystem()

    def replay(access, dram):
        with obs_trace.tracing() if traced else nullcontext() as tracer:
            results = [tuple(access(dram, request, at)) for request, at in stream]
        # repr tells 1 from 1.0 and True from 1
        events = repr(tracer.events) if traced else None
        return repr(results), events, repr(_dram_state(dram))

    assert replay(DRAMSystem.access, flat) == replay(_chain_access, chain)
