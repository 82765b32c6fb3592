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

    def __post_init__(self) -> None:
        # DRAMSystem.access times bursts on the premise that no bank
        # latency is negative (its docstring)
        for name in ("row_hit_cycles", "row_miss_cycles", "column_gap_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def total_bandwidth(self) -> float:
        return self.num_channels * self.bytes_per_cycle


class DRAMBank:
    """One bank: open-row state plus a command-occupancy resource.

    :meth:`DRAMSystem.access` times its bursts; ``stats`` is the
    resource's, so the row-hit counters sit beside the occupancy ones.
    """

    def __init__(self, name: str, config: DRAMConfig):
        self.config = config
        self.open_row: int = -1
        self.resource = Resource(name)
        self.stats = self.resource.stats


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
        line_bytes = config.line_bytes
        #: what :meth:`access` reads of the config, unpacked once: the
        #: global lines of one (channel-interleaved) row and the bus
        #: cycles of one line (:meth:`BandwidthResource.transfer`)
        self._timing = (
            line_bytes,
            config.num_channels,
            config.num_channels * config.lines_per_row,
            config.banks_per_channel,
            max(1, int(round(line_bytes / config.bytes_per_cycle)))
            if line_bytes
            else 0,
            config.column_gap_cycles,
            config.row_hit_cycles,
            config.row_miss_cycles,
        )

    def lines_of(self, request: MemoryRequest) -> range:
        """Global line indices covered by a request."""
        first = request.address // self.config.line_bytes
        last = (request.address + request.size - 1) // self.config.line_bytes
        return range(first, last + 1)

    def _new_kind(self, kind: str) -> Tuple[str, str]:
        keys = self._kind_keys[kind] = (f"{kind}_accesses", f"{kind}_bytes")
        return keys

    def access(self, request: MemoryRequest, at: int) -> AccessResult:
        """Perform a (possibly multi-line) access; returns overall timing.

        Each line is one burst, timed here in one pass: the bank's
        open-row check and command occupancy (:meth:`Resource.acquire`
        inlined), then the line's transfer on the channel's data bus
        (:meth:`BandwidthResource.transfer` inlined), then the channel's
        burst counters.  Every counter and probe is the one those calls
        would write, in their order.  A burst's bus start is never
        before ``at`` (:class:`DRAMConfig` rejects negative bank
        latencies), so each burst and the access start at ``at``.
        """
        address, size, is_write, kind = request
        (
            line_bytes,
            num_channels,
            lines_per_row,
            banks_per_channel,
            line_cycles,
            gap_cycles,
            hit_cycles,
            miss_cycles,
        ) = self._timing
        channels = self.channels
        tracing = obs_trace.ACTIVE is not None
        first = address // line_bytes
        stop = (address + size - 1) // line_bytes + 1
        done = at
        all_hit = True
        for line in range(first, stop):
            channel = channels[line % num_channels]
            row_line = line // lines_per_row
            bank = channel.banks[row_line % banks_per_channel]
            row = row_line // banks_per_channel
            resource = bank.resource
            counters = resource._counters
            hit = row == bank.open_row
            if hit:
                counters["row_hits"] += 1.0
                occupancy = gap_cycles
                latency = hit_cycles
            else:
                bank.open_row = row
                counters["row_misses"] += 1.0
                occupancy = latency = miss_cycles
                all_hit = False
            next_free = resource.next_free
            start = next_free if next_free > at else at
            resource.next_free = start + occupancy
            counters["requests"] += 1.0
            counters["busy_cycles"] += occupancy
            counters["wait_cycles"] += start - at
            if tracing:
                probe.resource_busy(resource.name, "busy", start, occupancy)
            ready = start + latency
            bus = channel.bus
            next_free = bus.next_free
            start = next_free if next_free > ready else ready
            line_done = start + line_cycles
            bus.next_free = line_done
            counters = bus._counters
            counters["transfers"] += 1.0
            counters["bytes"] += line_bytes
            counters["busy_cycles"] += line_cycles
            counters["wait_cycles"] += start - ready
            if tracing:
                probe.resource_busy(
                    bus.name, "xfer", start, line_cycles, bytes=line_bytes
                )
            counters = channel.stats.counters
            counters["bursts"] += 1.0
            counters["bytes"] += line_bytes
            if is_write:
                counters["write_bursts"] += 1.0
            else:
                counters["read_bursts"] += 1.0
            if tracing:
                probe.dram_burst(
                    channel.index,
                    at,
                    line_done,
                    row_hit=hit,
                    write=is_write,
                    nbytes=line_bytes,
                )
            if line_done > done:
                done = line_done
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
        if tracing:
            probe.dram_txn(
                at,
                done,
                kind=kind,
                nbytes=nbytes,
                write=is_write,
                lines=stop - first,
            )
        return tuple.__new__(AccessResult, (at, done, all_hit))

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
