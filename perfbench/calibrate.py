"""How fast the host is running right now, from a fixed kernel.

The benchmark's times are host times, and on a shared 2-CPU container
the same solve has been measured anywhere between 1.4 s and 2.8 s
within one minute, with the process never descheduled: neighbours
contending for caches and memory slow every instruction.  Medians
cannot remove a slow phase that lasts a whole run.

So each repetition is bracketed by one run of :func:`kernel`, a frozen
event loop written here and sharing no code with the program: numpy
state, dataclass events coalesced in per-vertex lists, sorted drains,
out-edge scans.  Its working set and allocation pattern are close to
the engines', so a slow phase slows both alike.  A time ``t`` measured
between two kernel runs of ``k1`` and ``k2`` seconds is reported as
``t * REFERENCE_S / ((k1 + k2) / 2)``: the time the same work would take
while the kernel runs in :data:`REFERENCE_S`.  A change to the program
moves ``t`` and not the kernel, so it shows in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = ["REFERENCE_S", "host_factor", "kernel", "kernel_seconds"]

#: the kernel's median time on the reference host (2-CPU x86 container,
#: Python 3.11, numpy 2.4) in a quiet period
REFERENCE_S = 0.15

_VERTICES = 3000
_DEGREE = 8
_ROUNDS = 6


@dataclass
class _Event:
    vertex: int
    delta: float
    generation: int = 0


def kernel() -> float:
    """Run the fixed event loop once; returns a checksum of its state."""
    out = [
        np.array([(v * k * 7919 + k) % _VERTICES for k in range(1, _DEGREE + 1)])
        for v in range(_VERTICES)
    ]
    state = np.zeros(_VERTICES)
    pending: Dict[int, List[_Event]] = {
        v: [_Event(v, 0.15)] for v in range(_VERTICES)
    }
    for generation in range(_ROUNDS):
        produced: Dict[int, List[_Event]] = {}
        for v in sorted(pending):
            events = pending[v]
            delta = events[0].delta
            for event in events[1:]:
                delta = delta + event.delta
            state[v] = float(state[v]) + delta
            share = 0.85 * delta / _DEGREE
            for w in out[v].tolist():
                produced.setdefault(w, []).append(
                    _Event(w, share, generation + 1)
                )
        pending = produced
    return float(state.sum())


def kernel_seconds() -> float:
    """Host seconds one :func:`kernel` run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """Factor turning a time measured between two kernel runs that took
    ``before`` and ``after`` seconds into reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2)
