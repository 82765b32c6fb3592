"""Unit tests for the DDR3-style DRAM model."""

import pytest

from repro.memory import DRAMConfig, DRAMSystem, MemoryRequest


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
