"""The event abstraction (paper Section III-A).

An event is "a lightweight message that carries a delta as its payload",
addressed to a destination vertex.  Events are the *only* unit of
computation and communication in GraphPulse: the set of queued events is
the active set, and coalescing two events is the algorithm's reduce
operator applied to their payloads.

``generation`` tracks how many propagation steps are compounded into the
payload.  It exists purely for instrumentation: the paper's *lookahead*
metric (Figure 8) is the number of iterations an event's content is ahead
of the round that processes it, which is ``generation - round``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Event"]


@dataclass
class Event:
    """A delta-carrying update message addressed to ``vertex``."""

    vertex: int
    delta: float
    #: number of propagation generations compounded into the payload
    generation: int = 0
    #: cycle at which the event has fully landed in its queue slot (used
    #: by the cycle-level model: a drained event cannot be processed
    #: before its insertion completed)
    ready: int = 0

    def coalesced_with(self, other: "Event", reduce_fn) -> "Event":
        """Combine with another event for the same vertex.

        The payloads merge through the algorithm's reduce operator; the
        generation and readiness are the max of the two (the compounded
        payload is as "far ahead" as its most advanced contributor, and
        is fully in place only once both insertions completed).
        """
        if other.vertex != self.vertex:
            raise ValueError(
                f"cannot coalesce events for vertices {self.vertex} and "
                f"{other.vertex}"
            )
        return Event(
            vertex=self.vertex,
            delta=reduce_fn(self.delta, other.delta),
            generation=max(self.generation, other.generation),
            ready=max(self.ready, other.ready),
        )
