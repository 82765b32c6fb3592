"""Memory request descriptor shared by the DRAM model and caches.

Both types are immutable named tuples: the cycle model builds one
request and one or two results per edge line, and a tuple subclass
costs about half what a frozen dataclass does to construct.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["MemoryRequest", "AccessResult"]


class MemoryRequest(
    namedtuple("MemoryRequest", ("address", "size", "is_write", "kind"))
):
    """A single off-chip access of ``size`` bytes at ``address``.

    ``kind`` is a free-form tag recorded into stats (e.g. "vertex",
    "edge", "spill").
    """

    __slots__ = ()

    def __new__(
        cls,
        address: int,
        size: int,
        is_write: bool = False,
        kind: str = "data",
    ) -> "MemoryRequest":
        if address < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        return tuple.__new__(cls, (address, size, is_write, kind))


class AccessResult(
    namedtuple(
        "AccessResult", ("start_cycle", "done_cycle", "row_hit"), defaults=(False,)
    )
):
    """Timing outcome of a memory access.

    :class:`~repro.memory.cache.Cache` and
    :class:`~repro.memory.dram.DRAMSystem` build it with
    ``tuple.__new__``, as ``MemoryRequest`` does, so every field is given.
    """

    __slots__ = ()

    @property
    def latency(self) -> int:
        return self.done_cycle - self.start_cycle
