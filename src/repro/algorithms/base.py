"""Delta-accumulative algorithm abstraction (paper Section II-B, Table II).

GraphPulse targets algorithms expressible in the delta-accumulative form
of Zhang et al. (Maiter):

    v_j^k       = v_j^{k-1} (+) delta_v_j^k
    delta_v_j^{k+1} = SUM_(+) over incoming edges of g<i,j>(delta_v_i^k)

where ``(+)`` is the *reduce* operator (commutative + associative, with an
identity element) and ``g<i,j>`` is the *propagate* function (distributive
over the reduce operator).  These two properties are exactly what lets
the accelerator coalesce in-flight events and process vertices in any
order (the paper's *Reordering* and *Simplification* properties).

An :class:`AlgorithmSpec` bundles, per Table II:

- ``reduce(state, delta)`` — combine a delta into a vertex state (and,
  identically, coalesce two queued deltas);
- ``propagate(delta, src, dst, weight, out_degree)`` — the outgoing delta
  for one edge given the change at the source;
- ``identity`` — reduce's identity element, used both to initialize the
  vertex memory and as the "empty slot" marker in the coalescing queue;
- ``initial_delta(vertex, graph)`` — bootstrap events;
- ``should_propagate(change)`` — the local termination condition;
- optional array hooks for the batched event kernel:
  ``propagate_array`` (``propagate`` over equal-length arrays) and
  ``reduce_ufunc`` (the numpy ufunc equal to ``reduce``).  Both must be
  bit-equal to their scalar forms; a spec without them runs the same
  kernel through the scalar functions.

The engines (functional, cycle-level, baselines) all consume the same
spec, so correctness tests comparing them exercise a single algorithm
definition end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from ..graph import CSRGraph

__all__ = ["AlgorithmSpec", "register_algorithm", "get_algorithm", "algorithm_names"]


PropagateFn = Callable[[float, int, int, float, int], float]
ReduceFn = Callable[[float, float], float]
InitialDeltaFn = Callable[[int, CSRGraph], float]
ShouldPropagateFn = Callable[[float], bool]
LocalTargetFn = Callable[[CSRGraph, np.ndarray], np.ndarray]
#: (deltas, srcs, dsts, weights, out_degrees) -> deltas, elementwise;
#: ``weights`` is the scalar 1.0 when the spec or graph is unweighted
PropagateArrayFn = Callable[..., np.ndarray]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A delta-accumulative graph algorithm (one row of Table II)."""

    name: str
    #: reduce operator (+): combines state with delta, coalesces deltas
    reduce: ReduceFn
    #: propagate function g<i,j>(delta)
    propagate: PropagateFn
    #: identity element of reduce; also the initial vertex state
    identity: float
    #: initial event delta per vertex (Identity => no initial event)
    initial_delta: InitialDeltaFn
    #: local termination: propagate only when the state change passes this
    should_propagate: ShouldPropagateFn
    #: whether the algorithm consumes edge weights
    uses_weights: bool = False
    #: True when reduce is arithmetic addition — the propagated change is
    #: then the difference new-old; monotonic (min/max) algorithms instead
    #: propagate the new state itself
    additive: bool = False
    #: tolerance for comparing against golden outputs in tests
    comparison_tolerance: float = 1e-6
    #: quiescent local fixed-point invariant: ``local_target(graph,
    #: state)[v]`` is what ``state[v]`` must equal (monotonic reduce) or
    #: match within the fault-free residual band (additive reduce) once
    #: the event queue drains.  The resilience subsystem checks it at
    #: quiescence and re-injects the residual to repair faults; None
    #: means the algorithm publishes no invariant (no detection/repair).
    local_target: Optional[LocalTargetFn] = None
    #: fault-free residual the additive invariant may carry per in-edge
    #: at quiescence (local termination leaves sub-threshold deltas
    #: unpropagated); 0.0 for exact (monotonic) algorithms
    residual_tolerance: float = 0.0
    #: optional human description
    description: str = ""
    #: ``propagate`` over arrays, bit-equal element by element; None
    #: makes the batched kernel call ``propagate`` once per edge
    propagate_array: Optional[PropagateArrayFn] = None
    #: the numpy ufunc equal to ``reduce`` (``np.add``, ``np.minimum``,
    #: ``np.maximum``); the queue folds message batches with its
    #: ``.at``.  None keeps every insert on the per-message path
    reduce_ufunc: Optional[np.ufunc] = None

    def initial_state(self, graph: CSRGraph) -> np.ndarray:
        """Vertex property memory at t=0: the reduce identity everywhere."""
        return np.full(graph.num_vertices, self.identity, dtype=np.float64)

    def initial_events(self, graph: CSRGraph) -> Dict[int, float]:
        """Bootstrap event set: vertex -> delta, omitting identity deltas.

        The paper: "The initial events, that are set with the initial
        target value of the vertices, populate the event queue."  A delta
        equal to the identity would be a no-op, so it is skipped (the
        Simplification property).
        """
        events: Dict[int, float] = {}
        for v in range(graph.num_vertices):
            delta = self.initial_delta(v, graph)
            if delta != self.identity:
                events[v] = delta
        return events

    def apply(self, state: float, delta: float) -> "ApplyResult":
        """One vertex update: reduce the delta in, report the change.

        Returns the new state and the *change* ``Delta_u`` used by the
        propagate step (Algorithm 1 lines 5-7).  For ``+`` the change is
        the arithmetic difference; for ``min``/``max`` the change is the
        new state itself when it moved (monotonic algorithms re-propagate
        their new value).
        """
        new_state = self.reduce(state, delta)
        # ``tuple.__new__`` skips the named tuple's generated ``__new__``
        # (one call per event on every engine); the result is the same
        if new_state == state:
            return tuple.__new__(ApplyResult, (new_state, 0.0, False))
        change = new_state - state if self.additive else new_state
        return tuple.__new__(ApplyResult, (new_state, change, True))


class ApplyResult(NamedTuple):
    """Outcome of applying one delta to a vertex state (immutable)."""

    state: float
    change: float
    changed: bool


_REGISTRY: Dict[str, Callable[..., AlgorithmSpec]] = {}


def register_algorithm(name: str) -> Callable:
    """Class-/factory-decorator adding an algorithm to the registry."""

    def decorator(factory: Callable[..., AlgorithmSpec]):
        _REGISTRY[name] = factory
        return factory

    return decorator


def get_algorithm(name: str, graph: Optional[CSRGraph] = None, **kwargs) -> AlgorithmSpec:
    """Instantiate a registered algorithm by name.

    Some algorithms (PageRank) need graph-level constants such as
    out-degrees; factories accept the graph when provided.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(graph=graph, **kwargs)


def algorithm_names() -> tuple:
    """Names of all registered algorithms."""
    return tuple(sorted(_REGISTRY))
