"""Statistics registry for simulator components.

Every modelled component (DRAM channel, crossbar port, processor, queue)
owns a :class:`StatSet`.  Benchmarks and figures read *only* these stats;
they never reach into component internals, which keeps the measurement
surface explicit and stable.

Per-access writers on the cycle model's hot path (cache, DRAM, resource
timing) skip the :meth:`StatSet.add` call and write ``counters[key] +=
n`` into :attr:`StatSet.counters` directly: the same float sums in the
same order, with keys created in the same first-use order, so every
:meth:`StatSet.snapshot` is unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Optional, Set

__all__ = ["StatSet", "merge_stats"]


class StatSet:
    """A named bag of counters with a few convenience operations.

    Keys are *counters* by default (summed when StatSets merge).  Keys
    written through :meth:`max` — peak occupancies, high-water marks —
    are tagged as *gauges* and merge with ``max`` instead, so combining
    per-slice or per-channel stats never sums a peak.
    """

    def __init__(self, name: str = "stats"):
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)
        self._gauges: Set[str] = set()

    @property
    def counters(self) -> Dict[str, float]:
        """The live counter mapping (missing keys read as 0.0).

        Writing ``counters[key] += n`` is :meth:`add` without the call;
        the mapping stays the same object for the StatSet's lifetime
        (:meth:`clear` empties it in place), so a hot writer may keep it.
        """
        return self._counters

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment a counter (created on first use)."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite a counter (for gauges like peak occupancy)."""
        self._counters[key] = value

    def max(self, key: str, value: float) -> None:
        """Keep the running maximum of a gauge (tags the key as one)."""
        self._gauges.add(key)
        if value > self._counters.get(key, float("-inf")):
            self._counters[key] = value

    def mark_gauge(self, key: str) -> None:
        """Tag a key as a gauge without writing it."""
        self._gauges.add(key)

    def is_gauge(self, key: str) -> bool:
        return key in self._gauges

    def get(self, key: str, default: float = 0.0) -> float:
        return self._counters.get(key, default)

    def __getitem__(self, key: str) -> float:
        return self._counters[key]

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def keys(self) -> Iterable[str]:
        return self._counters.keys()

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe counter ratio (0 when the denominator is 0)."""
        denom = self._counters.get(denominator, 0.0)
        return self._counters.get(numerator, 0.0) / denom if denom else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, suitable for reports and assertions."""
        return dict(self._counters)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{k}={v:g}" for k, v in sorted(self._counters.items())
        )
        return f"StatSet({self.name}: {inner})"


def merge_stats(
    stat_sets: Iterable[StatSet], name: str = "merged"
) -> StatSet:
    """Combine several StatSets (e.g. all DRAM channels).

    Counters sum; gauge-tagged keys (written via :meth:`StatSet.max`,
    e.g. ``peak_occupancy``) take the maximum — summing a peak across
    slices or channels would fabricate an occupancy no component ever
    saw.
    """
    merged = StatSet(name)
    for stats in stat_sets:
        for key, value in stats.snapshot().items():
            if stats.is_gauge(key):
                merged.max(key, value)
            else:
                merged.add(key, value)
    return merged
