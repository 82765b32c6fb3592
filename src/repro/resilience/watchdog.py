"""The fixed-point loop: run rounds until the queue drains, or abort.

Event-driven termination (paper Section III-C) relies on deltas
shrinking below the algorithm's threshold, and the engine stops when
its event queue drains (Section IV-C).  :func:`run_to_fixed_point` is
that stop, written once for the functional engine (rounds), the cycle
model (rounds) and the sliced runtimes (slice passes).  Each caller
hands it a round body; the loop owns everything around it, in this
order:

1. while events are pending: abort once the round budget is spent,
   otherwise run one round (the body does its own probes, metrics,
   journal commit and checkpoint) and stop early when a global
   threshold is set and the round's summed progress fell below it;
2. at quiescence, under a resilience harness, record the first
   quiescent time and run the invariant repair sweep; a sweep that
   queued work (a repair epoch or a rollback) resumes step 1;
3. under a harness, compute the recovery overhead (``finalize``).

A mis-configured algorithm (oscillating propagate, threshold of zero,
non-contracting weights) instead generates events forever; the round
budget turns that into :class:`repro.errors.NonConvergenceError`,
whose diagnostic names the fullest bins and a sample of the stuck
vertices with their pending deltas.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import NonConvergenceError

__all__ = ["build_diagnostic", "run_to_fixed_point"]

#: how many stuck vertices / bins the diagnostic samples
_DIAG_VERTICES = 8
_DIAG_BINS = 4


def run_to_fixed_point(
    step: Callable[[], Optional[float]],
    queue: Any,
    *,
    engine: str,
    algorithm: str,
    budget: int,
    unit: str,
    at: Callable[[], float],
    harness: Optional[Any] = None,
    state: Any = None,
    inject: Optional[Callable[[int, float], None]] = None,
    restore: Optional[Callable[[Any], None]] = None,
    global_threshold: Optional[float] = None,
) -> None:
    """Run ``step`` until ``queue`` stays empty (module docs).

    ``step`` runs one round and returns its summed progress; ``queue``
    is anything with ``is_empty`` that :func:`build_diagnostic` reads;
    ``budget`` counts the rounds this call may run and ``unit`` names
    them in the abort message.  ``at`` is the engine's current time,
    read at quiescence and at the end.  ``harness``, ``state``,
    ``inject`` and ``restore`` feed the resilience repair sweep.
    """
    rounds = 0
    while True:
        if queue.is_empty:
            if harness is None:
                break
            now = at()
            harness.note_quiescence(now)
            if not harness.repair(state, now, inject=inject, restore=restore):
                break
            continue
        if rounds >= budget:
            raise NonConvergenceError(
                f"{algorithm} did not converge within {budget} {unit}",
                build_diagnostic(engine, "round-limit", rounds, queue),
            )
        progress = step()
        rounds += 1
        if global_threshold is not None and progress < global_threshold:
            break  # pending events stay queued: no repair sweep
    if harness is not None:
        harness.finalize(at())


def build_diagnostic(
    engine: str,
    reason: str,
    rounds: int,
    queue: Any,
    *,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON-serializable abort diagnostic from live state.

    ``queue`` is duck-typed (any object with ``num_bins``, ``occupancy``
    and ``peek_bin``) so the same builder serves the functional engine,
    the cycle model and tests with stub queues.
    """
    occupancy = int(getattr(queue, "occupancy", 0))
    per_bin: List[tuple] = []
    pending: List[tuple] = []
    num_bins = int(getattr(queue, "num_bins", 0))
    for bin_index in range(num_bins):
        events = queue.peek_bin(bin_index)
        if not events:
            continue
        per_bin.append((len(events), bin_index))
        for event in events:
            pending.append((abs(event.delta), event.vertex, event.delta))
    per_bin.sort(reverse=True)
    pending.sort(reverse=True)
    diagnostic: Dict[str, Any] = {
        "reason": reason,
        "engine": engine,
        "rounds": rounds,
        "queue_occupancy": occupancy,
        "stuck_bins": [bin_index for _, bin_index in per_bin[:_DIAG_BINS]],
        "stuck_bin_counts": {
            str(bin_index): count for count, bin_index in per_bin[:_DIAG_BINS]
        },
        "stuck_vertices": [vertex for _, vertex, _ in pending[:_DIAG_VERTICES]],
        "stuck_deltas": {
            str(vertex): delta for _, vertex, delta in pending[:_DIAG_VERTICES]
        },
    }
    if extra:
        diagnostic.update(extra)
    return diagnostic
