"""DDR3-style DRAM timing model (stand-in for DRAMSim2).

Models the memory subsystem of Table III: 4 DDR3 channels at 17 GB/s
each.  Each channel has a set of banks with open-row (row-buffer) state
and a shared data bus.  An access decomposes into cache-line bursts; a
burst pays row-hit or row-miss latency at its bank, then serializes on
the channel's data bus.  All times are in accelerator clock cycles
(1 GHz, Table III), so 17 GB/s is 17 bytes/cycle.

Address mapping (low bits to high): byte-in-line, channel, column,
bank, row — the standard interleave that spreads consecutive lines over
channels and keeps a sequential stream inside one row per bank, so
streaming accesses enjoy row hits and random accesses mostly miss, the
asymmetry the paper's locality optimizations exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..obs import probe
from ..obs import trace as obs_trace
from ..sim.kernel import BandwidthResource, Resource
from ..sim.stats import StatSet, merge_stats
from .request import AccessResult, MemoryRequest

__all__ = ["DRAMConfig", "DRAMBank", "DRAMChannel", "DRAMSystem"]


@dataclass(frozen=True)
class DRAMConfig:
    """Timing/geometry knobs for the DRAM system (Table III defaults)."""

    num_channels: int = 4
    banks_per_channel: int = 8
    row_bytes: int = 2048
    line_bytes: int = 64
    #: cycles from column command to data for an open row (CAS)
    row_hit_cycles: int = 22
    #: cycles for precharge + activate + CAS on a row-buffer miss
    row_miss_cycles: int = 48
    #: minimum gap between column commands to the same bank
    column_gap_cycles: int = 4
    #: per-channel data-bus bandwidth (17 GB/s at 1 GHz)
    bytes_per_cycle: float = 17.0

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def total_bandwidth(self) -> float:
        return self.num_channels * self.bytes_per_cycle


class DRAMBank:
    """One bank: open-row state plus a command-occupancy resource."""

    def __init__(self, name: str, config: DRAMConfig):
        self.config = config
        self.open_row: int = -1
        self.resource = Resource(name)
        self.stats = self.resource.stats
        self._counters = self.stats.counters

    def access(self, row: int, at: int) -> Tuple[int, bool]:
        """Issue one burst to ``row``; returns (data_ready_cycle, hit)."""
        config = self.config
        if row == self.open_row:
            self._counters["row_hits"] += 1.0
            start = self.resource.acquire(at, config.column_gap_cycles)
            return start + config.row_hit_cycles, True
        self.open_row = row
        self._counters["row_misses"] += 1.0
        start = self.resource.acquire(at, config.row_miss_cycles)
        return start + config.row_miss_cycles, False


class DRAMChannel:
    """One channel: banks plus the shared data bus."""

    def __init__(self, index: int, config: DRAMConfig):
        self.index = index
        self.config = config
        self.banks: List[DRAMBank] = [
            DRAMBank(f"ch{index}.bank{b}", config)
            for b in range(config.banks_per_channel)
        ]
        self.bus = BandwidthResource(f"ch{index}.bus", config.bytes_per_cycle)
        self.stats = StatSet(f"channel{index}")
        self._counters = self.stats.counters
        self._lines_per_row = config.lines_per_row

    def access_line(self, channel_line: int, at: int, is_write: bool) -> AccessResult:
        """One line-sized burst; ``channel_line`` is the line index local
        to this channel (already stripped of the channel interleave)."""
        cfg = self.config
        line_bytes = cfg.line_bytes
        row_line = channel_line // self._lines_per_row
        ready, hit = self.banks[row_line % cfg.banks_per_channel].access(
            row_line // cfg.banks_per_channel, at
        )
        start, done = self.bus.transfer(ready, line_bytes)
        counters = self._counters
        counters["bursts"] += 1.0
        counters["bytes"] += line_bytes
        if is_write:
            counters["write_bursts"] += 1.0
        else:
            counters["read_bursts"] += 1.0
        first = start if start < at else at
        if obs_trace.ACTIVE is not None:
            probe.dram_burst(
                self.index,
                first,
                done,
                row_hit=hit,
                write=is_write,
                nbytes=line_bytes,
            )
        return AccessResult(first, done, hit)


class DRAMSystem:
    """All channels behind a line-interleaved address map."""

    def __init__(self, config: DRAMConfig = DRAMConfig()):
        self.config = config
        self.channels: List[DRAMChannel] = [
            DRAMChannel(c, config) for c in range(config.num_channels)
        ]
        self.stats = StatSet("dram")
        self._counters = self.stats.counters
        #: kind -> (accesses key, bytes key)
        self._kind_keys: Dict[str, Tuple[str, str]] = {}

    def lines_of(self, request: MemoryRequest) -> range:
        """Global line indices covered by a request."""
        first = request.address // self.config.line_bytes
        last = (request.address + request.size - 1) // self.config.line_bytes
        return range(first, last + 1)

    def _new_kind(self, kind: str) -> Tuple[str, str]:
        keys = self._kind_keys[kind] = (f"{kind}_accesses", f"{kind}_bytes")
        return keys

    def access(self, request: MemoryRequest, at: int) -> AccessResult:
        """Perform a (possibly multi-line) access; returns overall timing."""
        address, size, is_write, kind = request
        line_bytes = self.config.line_bytes
        num_channels = self.config.num_channels
        channels = self.channels
        first = address // line_bytes
        stop = (address + size - 1) // line_bytes + 1
        start = None
        done = at
        all_hit = True
        for line in range(first, stop):
            line_start, line_done, hit = channels[line % num_channels].access_line(
                line // num_channels, at, is_write
            )
            if start is None or line_start < start:
                start = line_start
            if line_done > done:
                done = line_done
            if not hit:
                all_hit = False
        accesses_key, bytes_key = (
            self._kind_keys.get(kind) or self._new_kind(kind)
        )
        nbytes = (stop - first) * line_bytes
        counters = self._counters
        counters["accesses"] += 1.0
        counters[accesses_key] += 1.0
        counters["bytes"] += nbytes
        counters[bytes_key] += nbytes
        if is_write:
            counters["write_bytes"] += nbytes
        else:
            counters["read_bytes"] += nbytes
        if start is None:
            start = at
        if obs_trace.ACTIVE is not None:
            probe.dram_txn(
                start,
                done,
                kind=kind,
                nbytes=nbytes,
                write=is_write,
                lines=stop - first,
            )
        return AccessResult(start, done, all_hit)

    def row_hit_rate(self) -> float:
        """Row-buffer hit fraction across all banks."""
        merged = merge_stats(
            (bank.stats for ch in self.channels for bank in ch.banks), "banks"
        )
        total = merged.get("row_hits") + merged.get("row_misses")
        return merged.get("row_hits") / total if total else 0.0

    def busy_horizon(self) -> int:
        """Cycle when the last scheduled burst completes."""
        return max((ch.bus.next_free for ch in self.channels), default=0)

    def bandwidth_utilization(self, horizon: int) -> float:
        """Aggregate data-bus utilization over ``horizon`` cycles."""
        if horizon <= 0:
            return 0.0
        busy = sum(ch.bus.stats.get("busy_cycles") for ch in self.channels)
        return min(busy / (horizon * self.config.num_channels), 1.0)

    def total_bytes(self) -> float:
        return self.stats.get("bytes")
