"""Set-associative cache model with LRU replacement.

Used for the edge-reader caching buffer ("We include a small caching
buffer with the edge memory reader to enhance the throughput",
Section V) and for the CPU cache hierarchy in the software-baseline cost
model.  Misses are filled from a backing :class:`DRAMSystem`; dirty
evictions write back.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..obs import probe
from ..obs import trace as obs_trace
from ..sim.stats import StatSet
from .dram import DRAMSystem
from .request import AccessResult, MemoryRequest

__all__ = ["Cache", "CacheConfig"]


class CacheConfig:
    """Geometry of a cache (capacity must be line*assoc aligned)."""

    def __init__(
        self,
        capacity_bytes: int,
        *,
        line_bytes: int = 64,
        associativity: int = 4,
        hit_cycles: int = 2,
    ):
        if capacity_bytes % (line_bytes * associativity):
            raise ValueError("capacity must be a multiple of line*assoc")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.hit_cycles = hit_cycles
        self.num_sets = capacity_bytes // (line_bytes * associativity)
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity")


class Cache:
    """LRU set-associative cache in front of a DRAM system."""

    def __init__(self, name: str, config: CacheConfig, backing: DRAMSystem):
        self.name = name
        self.config = config
        self.backing = backing
        # set index -> OrderedDict {tag: dirty}; LRU at the front
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.stats = StatSet(name)
        self._counters = self.stats.counters
        #: kind -> (hits key, misses key, write-back request kind)
        self._kind_keys: Dict[str, Tuple[str, str, str]] = {}
        #: the geometry :meth:`access` reads, unpacked once
        self._geometry = (
            config.line_bytes,
            config.num_sets,
            config.associativity,
            config.hit_cycles,
        )

    def _new_kind(self, kind: str) -> Tuple[str, str, str]:
        keys = self._kind_keys[kind] = (
            f"{kind}_hits",
            f"{kind}_misses",
            f"{kind}_writeback",
        )
        return keys

    def access(
        self,
        address: int,
        at: int,
        *,
        is_write: bool = False,
        kind: str = "data",
    ) -> AccessResult:
        """Access one address (within a single line); returns timing.

        The DRAM requests of a miss are built with ``tuple.__new__``, as
        :class:`AccessResult` is: a victim's line is one the cache
        filled, and a fill checks its address here, as
        :class:`MemoryRequest` would.
        """
        line_bytes, num_sets, associativity, hit_cycles = self._geometry
        line = address // line_bytes
        set_index = line % num_sets
        tag = line // num_sets
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = OrderedDict()
        hits_key, misses_key, writeback_kind = (
            self._kind_keys.get(kind) or self._new_kind(kind)
        )
        counters = self._counters
        if tag in ways:
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            counters["hits"] += 1.0
            counters[hits_key] += 1.0
            if obs_trace.ACTIVE is not None:
                probe.cache_access(self.name, at, hit=True, kind=kind)
            return tuple.__new__(AccessResult, (at, at + hit_cycles, True))

        counters["misses"] += 1.0
        counters[misses_key] += 1.0
        if obs_trace.ACTIVE is not None:
            probe.cache_access(self.name, at, hit=False, kind=kind)
        if len(ways) >= associativity:
            victim_tag, victim_dirty = ways.popitem(last=False)
            if victim_dirty:
                victim_line = victim_tag * num_sets + set_index
                self.backing.access(
                    tuple.__new__(
                        MemoryRequest,
                        (victim_line * line_bytes, line_bytes, True, writeback_kind),
                    ),
                    at,
                )
                counters["writebacks"] += 1.0
        if line < 0:
            raise ValueError("address must be non-negative")
        fill = self.backing.access(
            tuple.__new__(MemoryRequest, (line * line_bytes, line_bytes, False, kind)),
            at,
        )
        ways[tag] = is_write
        return tuple.__new__(
            AccessResult, (at, fill.done_cycle + hit_cycles, False)
        )

    def hit_rate(self) -> float:
        total = self.stats.get("hits") + self.stats.get("misses")
        return self.stats.get("hits") / total if total else 0.0

    def flush(self, at: int = 0) -> int:
        """Write back all dirty lines; returns number written."""
        written = 0
        for set_index, ways in self._sets.items():
            for tag, dirty in ways.items():
                if dirty:
                    line = tag * self.config.num_sets + set_index
                    self.backing.access(
                        MemoryRequest(
                            address=line * self.config.line_bytes,
                            size=self.config.line_bytes,
                            is_write=True,
                            kind="flush",
                        ),
                        at,
                    )
                    written += 1
        self._sets.clear()
        return written
