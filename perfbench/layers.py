"""Layer attribution for the traced benchmark run, observed from outside.

Nothing under ``src/`` knows about this module.  For the duration of one
traced run, :class:`LayerTrace` replaces public class and module
attributes of each layer with timing wrappers, and puts the originals
back when the run ends, even if it raised.

Two kinds of boundary are wrapped:

- *hot* per-event boundaries (``CoalescingQueue.insert``,
  ``AlgorithmSpec.apply``, the spec's ``propagate``/``reduce`` …) add
  into a per-layer accumulator: calls, total seconds, self seconds and,
  where the layer can waste work, how many calls had the useful
  outcome.  They record no span: some see millions of calls per run;
- *coarse* boundaries (``load_dataset``, ``build_engine``, the engines'
  ``run``, slice activation) accumulate the same way and also keep a
  real span: name, start, end and parent.  Set-up and solve (from the
  benchmark's own code) and rounds keep a span only.

Self time is a call's duration minus the time spent in wrapped child
calls.  Rounds sit between ``run`` and the per-event calls; timing them
as children would move the per-event loop out of ``run.self_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import core
from repro.algorithms.base import AlgorithmSpec
from repro.core import accelerator, event, functional, queue, slicing
from repro.graph import csr, datasets
from repro.memory import cache, dram
from repro.network import arbiter, crossbar
from repro.obs import export
from repro.obs.trace import Tracer
from repro.sim import kernel

__all__ = ["Accumulator", "LayerTrace", "Span", "wrapped_attributes"]

_MISSING = object()


@dataclass
class Accumulator:
    """What one wrapped boundary saw over the traced run."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    #: calls whose outcome predicate held (coalesced insert, changed
    #: apply, identity propagate)
    hits: int = 0


@dataclass
class Span:
    """One coarse span; times are seconds since the trace started."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)


def _changed(result) -> bool:
    return result.changed


#: (owner, attribute, layer key, kind, outcome predicate).  ``kind`` is
#: ``hot`` (accumulate), ``coarse`` (accumulate and record a span) or
#: ``span`` (record a span, stay out of the self-time arithmetic).
_PATCHES: Tuple[Tuple[Any, str, str, str, Optional[Callable]], ...] = (
    (datasets, "load_dataset", "graph.load_dataset", "coarse", None),
    (csr.CSRGraph, "neighbors", "graph.csr.neighbors", "hot", None),
    (csr.CSRGraph, "edge_weights", "graph.csr.edge_weights", "hot", None),
    (csr.CSRGraph, "vertex_address", "graph.csr.vertex_address", "hot", None),
    (csr.CSRGraph, "edge_address", "graph.csr.edge_address", "hot", None),
    (core, "build_engine", "engines.build_engine", "coarse", None),
    (queue.CoalescingQueue, "insert", "queue.insert", "hot", bool),
    (queue.CoalescingQueue, "drain_bin", "queue.drain_bin", "hot", None),
    (queue.CoalescingQueue, "drain_all", "queue.drain_all", "hot", None),
    (event.Event, "coalesced_with", "event.coalesced_with", "hot", None),
    (AlgorithmSpec, "apply", "algorithms.apply", "hot", _changed),
    (functional.FunctionalGraphPulse, "run", "functional.run", "coarse", None),
    (functional.FunctionalGraphPulse, "_run_round", "functional.round", "span", None),
    (slicing, "run_slice_activation", "slicing.run_slice_activation", "coarse", None),
    (slicing.SlicedGraphPulse, "run", "slicing.run", "coarse", None),
    (accelerator.GraphPulseAccelerator, "run", "accelerator.run", "coarse", None),
    (accelerator.GraphPulseAccelerator, "_run_round", "accelerator.round", "span", None),
    (cache.Cache, "access", "memory.cache.access", "hot", None),
    (dram.DRAMSystem, "access", "memory.dram.access", "hot", None),
    (crossbar.Crossbar, "send", "network.crossbar.send", "hot", None),
    (arbiter.ArbiterTree, "request", "network.arbiter.request", "hot", None),
    (kernel.Resource, "acquire", "sim.resource.acquire", "hot", None),
    (kernel.PipelinedResource, "issue", "sim.pipelined_resource.issue", "hot", None),
)


def wrapped_attributes() -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, current value)`` for every patched attribute.

    Taken before and after a traced run, the two lists must match by
    identity: that is how the tests show every wrapper was removed.
    """
    return [
        (owner, name, vars(owner).get(name, _MISSING))
        for owner, name, *_ in _PATCHES + (
            (queue.CoalescingQueue, "__init__"),
        )
    ]


class LayerTrace:
    """Accumulators and spans of one traced run (module docs)."""

    def __init__(self) -> None:
        self.acc: Dict[str, Accumulator] = {
            key: Accumulator() for _, _, key, kind, _ in _PATCHES
            if kind != "span"
        }
        self.acc["algorithms.propagate"] = Accumulator()
        self.acc["algorithms.reduce"] = Accumulator()
        self.spans: List[Span] = []
        #: every queue built during the run (peak occupancy is per queue)
        self.queues: List[queue.CoalescingQueue] = []
        self._child_seconds: List[float] = [0.0]
        self._open: List[int] = []
        self._origin = time.perf_counter()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _open_span(self, name: str, **args: Any) -> Span:
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=time.perf_counter() - self._origin,
            parent=self._open[-1] if self._open else None,
            args=args,
        )
        self.spans.append(span)
        self._open.append(span.span_id)
        return span

    def _close_span(self, span: Span) -> None:
        span.end = time.perf_counter() - self._origin
        self._open.pop()

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        """A coarse span around benchmark code (set-up, solve)."""
        span = self._open_span(name, **args)
        try:
            yield span
        finally:
            self._close_span(span)

    # -- wrappers ------------------------------------------------------
    def _timed(self, key: str, fn: Callable, outcome, coarse: bool):
        acc = self.acc[key]
        stack = self._child_seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = self._open_span(key) if coarse else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                acc.calls += 1
                acc.seconds += elapsed
                acc.self_seconds += elapsed - child
                if span is not None:
                    self._close_span(span)
            if outcome is not None and outcome(result):
                acc.hits += 1
            return result

        return wrapper

    def _span_only(self, key: str, fn: Callable):
        def wrapper(*args, **kwargs):
            with self.span(key):
                return fn(*args, **kwargs)

        return wrapper

    def _register_queue(self, fn: Callable):
        queues = self.queues

        def wrapper(instance, *args, **kwargs):
            fn(instance, *args, **kwargs)
            queues.append(instance)

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every layer boundary for the block, then restore them."""
        try:
            for owner, name, key, kind, outcome in _PATCHES:
                original = getattr(owner, name)
                if kind == "span":
                    wrapper = self._span_only(key, original)
                else:
                    wrapper = self._timed(
                        key, original, outcome, coarse=kind == "coarse"
                    )
                self._patch(owner, name, wrapper)
            self._patch(
                queue.CoalescingQueue,
                "__init__",
                self._register_queue(queue.CoalescingQueue.__init__),
            )
            yield self
        finally:
            for owner, name, original in reversed(self._saved):
                if original is _MISSING:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)
            self._saved.clear()

    def wrap_spec(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        """The spec with ``propagate``/``reduce`` timed.

        Both are per-instance fields, not methods, so they are wrapped by
        handing the engine a copy of the spec.  A propagate that returns
        the reduce identity is wasted edge work; its count feeds
        ``algorithms.propagate.identity_ratio``.
        """
        identity = spec.identity
        return replace(
            spec,
            propagate=self._timed(
                "algorithms.propagate",
                spec.propagate,
                lambda delta: delta == identity,
                coarse=False,
            ),
            reduce=self._timed(
                "algorithms.reduce", spec.reduce, None, coarse=False
            ),
        )

    # -- output --------------------------------------------------------
    def write_chrome_trace(self, path: str) -> int:
        """Write the coarse spans as Chrome trace JSON (microseconds)."""
        tracer = Tracer()
        for span in self.spans:
            tracer.complete(
                span.name,
                "perfbench",
                span.start * 1e6,
                (span.end - span.start) * 1e6,
                "host",
                span_id=span.span_id,
                parent=span.parent,
                **span.args,
            )
        return export.write_chrome_trace(tracer, path)
