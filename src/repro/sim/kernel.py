"""Cycle-level simulation kernel (stand-in for the Structural Simulation
Toolkit the paper's evaluation is built on).

Two complementary facilities:

1. A discrete-event :class:`Simulator` — a cycle-stamped callback heap.
   Components schedule work at future cycles; the kernel advances time to
   the next pending event.  Used by component-level tests and by models
   that genuinely need callbacks.

2. Resource-timing primitives (:class:`Resource`,
   :class:`PipelinedResource`, :class:`BandwidthResource`) implementing
   *next-free-cycle* semantics.  A hardware unit that serves one request
   at a time is fully described by when it next becomes free; a request
   arriving at cycle ``t`` starts at ``max(t, next_free)`` and occupies
   the unit for its service time.  All contention in the accelerator
   models (DRAM banks and buses, crossbar ports, coalescer pipelines,
   generation streams) is expressed with these primitives, which makes
   the cycle models deterministic and fast enough for Python while still
   capturing queueing, bandwidth saturation and pipelining — the effects
   the paper's figures measure.

A batch of requests whose arrivals are all known up front can be served
as arrays: :meth:`Resource.acquire_many` and
:meth:`PipelinedResource.issue_many` are the same next-free chains as
the scalar calls in call order (:func:`next_free_chain`, one stable
sort per batch), with each touched unit's statistics written once per
batch from the chain's per-unit summaries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import probe
from ..obs import trace as obs_trace
from .stats import StatSet

__all__ = [
    "Simulator",
    "Resource",
    "PipelinedResource",
    "BandwidthResource",
    "next_free_chain",
]


@dataclass(order=True)
class _ScheduledEvent:
    cycle: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)


class Simulator:
    """Minimal discrete-event kernel with integer cycle time."""

    def __init__(self):
        self.now: int = 0
        self._heap: List[_ScheduledEvent] = []
        self._sequence = 0
        self.stats = StatSet("simulator")

    def at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at an absolute cycle."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule at cycle {cycle}; now is {self.now}"
            )
        heapq.heappush(
            self._heap, _ScheduledEvent(cycle, self._sequence, callback)
        )
        self._sequence += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now + delay, callback)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Run all callbacks of the next pending cycle; False when idle."""
        if not self._heap:
            return False
        cycle = self._heap[0].cycle
        self.now = cycle
        while self._heap and self._heap[0].cycle == cycle:
            event = heapq.heappop(self._heap)
            event.callback()
            self.stats.add("events_executed")
        return True

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Drain the event heap; returns the final cycle.

        ``max_cycles`` bounds the simulated horizon (events beyond it
        stay pending), protecting tests from livelocked models.
        """
        while self._heap:
            if max_cycles is not None and self._heap[0].cycle > max_cycles:
                self.now = max_cycles
                break
            self.step()
        return self.now


def next_free_chain(
    keys: np.ndarray,
    arrivals: np.ndarray,
    seeds: np.ndarray,
    service,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Start cycles of requests served in call order by serial units.

    Request ``i`` arrives at cycle ``arrivals[i]`` at unit ``keys[i]``,
    which is free from cycle ``seeds[keys[i]]`` and then holds each
    request for its ``service`` cycles (a scalar or one value per
    request, >= 0).  Each unit is the scalar next-free recurrence

        s_k = max(a_k, s_{k-1} + c_{k-1}),  s_{-1} + c_{-1} = seed.

    With ``C_k`` the service of the unit's requests before ``k``,
    ``s_k - C_k = max(a_k - C_k, s_{k-1} - C_{k-1})``: a running max
    seeded with the unit's seed.  One stable sort by key lays each
    unit's requests out in call order, and one ``np.maximum.accumulate``
    runs every unit's max at once, each unit lifted by an offset wider
    than the whole batch's range so no max crosses into the next unit.
    ``C`` is one exclusive prefix over the whole sorted batch: a unit's
    prefix then also counts the units sorted before it, a constant
    ``G`` per unit.  Its seed is shifted by ``G`` too, and a running max
    of values all shifted by one constant is the shifted running max,
    so adding ``C`` back gives the same starts.

    Returns ``(starts, touched, requests, waits, ends)``: the start
    cycles in call order (int64), then the touched units in ascending
    order with each one's request count, summed wait (start - arrival)
    and last end (start + service of its last request), read off the
    sorted layout.
    """
    keys = np.asarray(keys, dtype=np.int64)
    count = len(keys)
    if not count:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty, empty
    # a stable sort of a narrow integer column is a radix sort
    if len(seeds) <= 256:
        order = np.argsort(keys.astype(np.uint8), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    unit = keys[order]
    head = np.empty(count, dtype=bool)
    head[0] = True
    np.not_equal(unit[1:], unit[:-1], out=head[1:])
    heads = head.nonzero()[0]
    tails = np.empty_like(heads)
    tails[:-1] = heads[1:] - 1
    tails[-1] = count - 1
    touched = unit[heads]
    arrived = np.asarray(arrivals, dtype=np.int64)[order]
    # service of the sorted batch's earlier requests (docstring)
    if isinstance(service, (int, np.integer)):
        before = np.arange(count, dtype=np.int64)
        if service != 1:
            before *= service
        last_service = int(service)
    else:
        served = np.asarray(service, dtype=np.int64)[order]
        before = served.cumsum()
        before -= served
        last_service = served[tails]
    level = arrived - before
    level[heads] = np.maximum(
        level[heads], np.asarray(seeds, dtype=np.int64)[touched] - before[heads]
    )
    lift = (head.cumsum() - 1) * (int(level.max()) - int(level.min()) + 1)
    level += lift
    np.maximum.accumulate(level, out=level)
    level -= lift
    level += before
    starts = np.empty(count, dtype=np.int64)
    starts[order] = level
    waits = np.add.reduceat(level - arrived, heads)
    return starts, touched, tails - heads + 1, waits, level[tails] + last_service


class Resource:
    """A unit that serves one request at a time (next-free-cycle model)."""

    def __init__(self, name: str):
        self.name = name
        self.next_free: int = 0
        self.stats = StatSet(name)
        self._counters = self.stats.counters

    def acquire(self, at: int, occupancy: int) -> int:
        """Reserve the unit for ``occupancy`` cycles; returns start cycle."""
        if occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        next_free = self.next_free
        start = next_free if next_free > at else at
        self.next_free = start + occupancy
        counters = self._counters
        counters["requests"] += 1.0
        counters["busy_cycles"] += occupancy
        counters["wait_cycles"] += start - at
        if obs_trace.ACTIVE is not None:
            probe.resource_busy(self.name, "busy", start, occupancy)
        return start

    @staticmethod
    def acquire_many(
        units: Sequence["Resource"],
        keys: np.ndarray,
        at: np.ndarray,
        occupancy: int,
    ) -> np.ndarray:
        """:meth:`acquire` of ``units[keys[i]]`` at ``at[i]``, in call order.

        ``keys`` and ``at`` are int64 columns.  Returns the start
        cycles.  Every touched unit ends with the ``next_free`` and the
        ``requests``/``busy_cycles``/``wait_cycles`` of the scalar
        calls.  No probes are emitted: a traced caller uses
        :meth:`acquire`.
        """
        if occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        seeds = np.array([u.next_free for u in units], dtype=np.int64)
        starts, touched, requests, waits, ends = next_free_chain(
            keys, at, seeds, occupancy
        )
        for i, n, wait, end in zip(
            touched.tolist(), requests.tolist(), waits.tolist(), ends.tolist()
        ):
            unit = units[i]
            unit.next_free = end
            counters = unit._counters
            counters["requests"] += n
            counters["busy_cycles"] += n * occupancy
            counters["wait_cycles"] += wait
        return starts

    def utilization(self, horizon: int) -> float:
        """Busy fraction of the first ``horizon`` cycles.

        Returns the *true* ratio — a value above 1.0 means the unit was
        reserved past the horizon (oversubscription), which is recorded
        in the ``oversubscribed`` stat rather than silently clamped.
        """
        if horizon <= 0:
            return 0.0
        ratio = self.stats.get("busy_cycles") / horizon
        if ratio > 1.0:
            self.stats.max("oversubscribed", ratio)
        return ratio

    def reset(self) -> None:
        self.next_free = 0
        self.stats.clear()


class PipelinedResource:
    """A pipelined unit: issues every ``initiation_interval`` cycles,
    results emerge ``latency`` cycles after issue.

    Models the 4-stage coalescer FPA pipeline ("insertion units are
    pipelined so that a bin can accept multiple events in consecutive
    cycles") and similar structures.
    """

    def __init__(self, name: str, initiation_interval: int, latency: int):
        if initiation_interval < 1:
            raise ValueError("initiation_interval must be >= 1")
        if latency < initiation_interval:
            raise ValueError("latency must be >= initiation_interval")
        self.name = name
        self.initiation_interval = initiation_interval
        self.latency = latency
        self.next_issue: int = 0
        self.stats = StatSet(name)
        self._counters = self.stats.counters

    def issue(self, at: int) -> Tuple[int, int]:
        """Issue one operation; returns ``(start_cycle, done_cycle)``."""
        start = max(at, self.next_issue)
        self.next_issue = start + self.initiation_interval
        self.stats.add("issued")
        self.stats.add("wait_cycles", start - at)
        if obs_trace.ACTIVE is not None:
            probe.resource_busy(self.name, "issue", start, self.latency)
        return start, start + self.latency

    @staticmethod
    def issue_many(
        units: Sequence["PipelinedResource"],
        keys: np.ndarray,
        at: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`issue` on ``units[keys[i]]`` at ``at[i]``, in call order.

        ``keys`` and ``at`` are int64 columns.  Returns ``(start_cycles,
        done_cycles)``.  Every touched unit ends with the ``next_issue``
        and the ``issued``/``wait_cycles`` of the scalar calls.  No
        probes are emitted: a traced caller uses :meth:`issue`.
        """
        interval = np.array(
            [u.initiation_interval for u in units], dtype=np.int64
        )[keys]
        latency = np.array([u.latency for u in units], dtype=np.int64)[keys]
        seeds = np.array([u.next_issue for u in units], dtype=np.int64)
        starts, touched, issued, waits, ends = next_free_chain(
            keys, at, seeds, interval
        )
        for i, n, wait, end in zip(
            touched.tolist(), issued.tolist(), waits.tolist(), ends.tolist()
        ):
            unit = units[i]
            unit.next_issue = end
            counters = unit._counters
            counters["issued"] += n
            counters["wait_cycles"] += wait
        return starts, starts + latency

    def reset(self) -> None:
        self.next_issue = 0
        self.stats.clear()


class BandwidthResource:
    """A bus/link moving ``bytes_per_cycle``; transfers serialize.

    Fractional rates are supported (a DDR3-1066 channel moves ~8.5 B per
    1 GHz accelerator cycle); time is still reported in whole cycles.
    """

    def __init__(self, name: str, bytes_per_cycle: float):
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.next_free: int = 0
        self.stats = StatSet(name)
        self._counters = self.stats.counters

    def transfer(self, at: int, num_bytes: int) -> Tuple[int, int]:
        """Move ``num_bytes``; returns ``(start_cycle, done_cycle)``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        next_free = self.next_free
        start = next_free if next_free > at else at
        duration = max(
            1, int(round(num_bytes / self.bytes_per_cycle))
        ) if num_bytes else 0
        self.next_free = start + duration
        counters = self._counters
        counters["transfers"] += 1.0
        counters["bytes"] += num_bytes
        counters["busy_cycles"] += duration
        counters["wait_cycles"] += start - at
        if obs_trace.ACTIVE is not None:
            probe.resource_busy(
                self.name, "xfer", start, duration, bytes=num_bytes
            )
        return start, start + duration

    def utilization(self, horizon: int) -> float:
        """True busy ratio over ``horizon``; see :meth:`Resource.utilization`."""
        if horizon <= 0:
            return 0.0
        ratio = self.stats.get("busy_cycles") / horizon
        if ratio > 1.0:
            self.stats.max("oversubscribed", ratio)
        return ratio

    def reset(self) -> None:
        self.next_free = 0
        self.stats.clear()
