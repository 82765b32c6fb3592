"""Periodic checkpoints of vertex state + queue occupancy, with rollback.

A checkpoint captures everything needed to restart an event-driven run
mid-flight: a copy of the vertex state array and a snapshot of the
coalescing queue's pending events.  While the bin parity check is
installed those are the raw bin entries, *not* the merged view — an
un-merged corrupted payload must survive the round trip so the parity
check still sees it after a rollback; otherwise each slot is the one
entry its arrivals were folded into at insert time.

Checkpoints are cheap at simulation scale (one ``ndarray.copy`` plus a
list of event tuples), so the manager keeps the last ``keep`` of them
and rollback restores the newest one.  Rollback is the heavy hammer of
the recovery ladder — repair epochs fix localized corruption in place;
rollback is for when repair budgets are exhausted and the engine needs
a known-good restart point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from ..obs import probe
from ..obs import trace as obs_trace

__all__ = ["Checkpoint", "CheckpointManager"]


@dataclass
class Checkpoint:
    """One captured restart point."""

    index: int  #: monotone checkpoint sequence number
    round_index: int  #: engine round at capture time
    at: float  #: engine time (cycles or rounds) of the capture
    state: np.ndarray  #: private copy of the vertex state array
    queue_snapshot: Any  #: opaque queue snapshot (``CoalescingQueue.snapshot``)
    pending_events: int  #: queue occupancy at capture (reporting)


class CheckpointManager:
    """Takes checkpoints every ``interval`` rounds and replays the latest.

    ``interval=None`` disables periodic capture entirely (the default:
    checkpointing must not perturb fault-free runs unless asked for).
    """

    def __init__(self, interval: Optional[int], *, keep: int = 2):
        if interval is not None and interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if keep <= 0:
            raise ValueError("must keep at least one checkpoint")
        self.interval = interval
        self.keep = keep
        self.checkpoints: List[Checkpoint] = []
        self.taken = 0
        self.rollbacks = 0

    def due(self, round_index: int) -> bool:
        """True when a checkpoint should be captured after this round."""
        return (
            self.interval is not None
            and round_index > 0
            and round_index % self.interval == 0
        )

    def take(
        self,
        round_index: int,
        at: float,
        state: np.ndarray,
        queue_snapshot: Any,
        pending_events: int,
    ) -> Checkpoint:
        """Capture a checkpoint (caller has already snapshot the queue)."""
        checkpoint = Checkpoint(
            index=self.taken,
            round_index=round_index,
            at=at,
            state=np.array(state, copy=True),
            queue_snapshot=queue_snapshot,
            pending_events=pending_events,
        )
        self.taken += 1
        self.checkpoints.append(checkpoint)
        del self.checkpoints[: -self.keep]
        self._persist(checkpoint)
        if obs_trace.ACTIVE is not None:
            probe.checkpoint_taken(
                checkpoint.index,
                at,
                vertices=int(state.shape[0]),
                pending=pending_events,
            )
        return checkpoint

    def _persist(self, checkpoint: Checkpoint) -> None:
        """Durability hook: the base manager keeps checkpoints in memory
        only; :class:`repro.resilience.durable.DurableCheckpointManager`
        overrides this to serialize the capture to disk."""

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def rollback(self) -> Optional[Checkpoint]:
        """Return the newest checkpoint for restoration, counting the use.

        The checkpoint stays available (a second fault shortly after the
        restore can roll back to the same point).  Returns ``None`` when
        no checkpoint was ever captured — the caller falls back to the
        repair path.
        """
        checkpoint = self.latest
        if checkpoint is not None:
            self.rollbacks += 1
        return checkpoint
