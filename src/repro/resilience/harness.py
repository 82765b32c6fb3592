"""The resilience harness: one object engines consult at fault sites.

Engines hold ``self.resilience`` (``None`` by default) and guard every
interaction with the one-branch fast path, mirroring the telemetry
layer::

    if self.resilience is not None:
        events = self.resilience.filter_insert(event, now)

The harness bundles the three pillars behind a small site-oriented API:

========================  ============================================
site (engine calls)        pillar exercised
========================  ============================================
``filter_insert``          injection: drop / duplicate / bitflip
``pass_inserts``           injection: opportunities of events routed
                           around ``filter_insert``
``payload_ok``             detection: bin parity at drain
``guard_value``            detection: NaN/overflow on reduce results
``dram_delay``             injection + recovery: transient DRAM error,
                           bounded exponential-backoff retry
``spill_lost``             injection: inter-slice spill loss
``alive_lanes``            injection + recovery: dead lanes removed
                           from dispatch (graceful degradation)
``maybe_checkpoint``       recovery: periodic checkpoint capture
``repair``                 detection + recovery: quiescent invariant
                           sweep, delta re-injection, rollback ladder
========================  ============================================

Fault-free discipline: with all rates zero, no scripted faults, no dead
lanes and no checkpoint interval, none of these methods mutates an
event, emits a trace record, or perturbs timing — runs with the harness
attached are bit-identical to runs without it (guarded by the
determinism regression tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import AlgorithmSpec
from ..core.event import Event
from ..errors import RunInterruptedError, UnrecoverableFaultError
from ..graph import CSRGraph
from ..obs import probe
from ..obs import trace as obs_trace
from .checkpoint import Checkpoint, CheckpointManager
from .faults import FaultInjector, FaultPlan
from .invariants import compute_repairs, state_invalid
from .journal import SpillJournal

__all__ = ["ResilienceConfig", "ResilienceHarness"]

#: repair epochs allowed before escalating to rollback
MAX_REPAIR_EPOCHS = 25
#: rollbacks allowed before declaring the run unrecoverable
MAX_ROLLBACKS = 2
#: magnitude above which a finite reduce result is quarantined
OVERFLOW_LIMIT = 1e30
#: read-retry attempts per DRAM transaction before giving up
DRAM_MAX_RETRIES = 4
#: base DRAM retry penalty in cycles; attempt ``k`` costs ``backoff * 2**k``
DRAM_RETRY_BACKOFF = 8.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything a resilient run needs, in one reproducible value.

    Parameters
    ----------
    fault_plan:
        What to inject (default: nothing — detection/recovery only).
    checkpoint_interval:
        Capture a checkpoint every N engine rounds (None: never).
    checkpoint_keep:
        How many recent checkpoints to retain for rollback.
    checkpoint_dir:
        Directory for durable on-disk checkpoints (None: in-memory
        rollback only, the pre-durability behaviour).  Setting it turns
        on periodic disk captures (every ``checkpoint_interval`` rounds,
        defaulting to
        :attr:`repro.resilience.durable.DurableCheckpointManager.DEFAULT_INTERVAL`),
        a run manifest, the spill journal on the sliced engine, and
        graceful SIGINT/SIGTERM unwinding.
    run_meta:
        Workload identity recorded in the durable manifest (the CLI
        passes ``{"workload": ..., "engine_options": ...}``) so
        ``repro resume`` can rebuild the run.
    resume:
        True when this configuration continues an existing run
        directory (opens the manifest instead of creating it).
    """

    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    checkpoint_interval: Optional[int] = None
    checkpoint_keep: int = 2
    checkpoint_dir: Optional[str] = None
    run_meta: Optional[Mapping[str, Any]] = None
    resume: bool = False


class ResilienceHarness:
    """Per-run resilience state attached to one engine instance."""

    def __init__(
        self,
        config: ResilienceConfig,
        spec: AlgorithmSpec,
        graph: CSRGraph,
        engine: str,
        queue_kind: str,
    ):
        self.config = config
        self.spec = spec
        self.graph = graph
        self.engine = engine
        #: the runner's checkpoint encoding: "bins" for the single-queue
        #: engines, "spill" for the sliced runtimes (whose durable runs
        #: also keep the spill journal)
        self.queue_kind = queue_kind
        self.injector = FaultInjector(config.fault_plan)
        self.durable = None  #: DurableCheckpointManager when checkpoint_dir set
        self.journal = None  #: live spill-journal writer on durable sliced runs
        if config.checkpoint_dir is not None:
            # lazy import: durability is optional machinery and ``durable``
            # itself imports back through the resilience package
            from .durable import (
                DurableCheckpointManager,
                DurableCheckpointStore,
                build_manifest,
            )

            store = DurableCheckpointStore(config.checkpoint_dir)
            if config.resume:
                store.open()
            else:
                store.create(
                    build_manifest(config, graph, engine, spec, queue_kind)
                )
            interval = (
                config.checkpoint_interval
                if config.checkpoint_interval is not None
                else DurableCheckpointManager.DEFAULT_INTERVAL
            )
            self.durable = DurableCheckpointManager(
                interval,
                keep=config.checkpoint_keep,
                store=store,
                engine=engine,
                algorithm=spec.name,
                queue_kind=queue_kind,
            )
            if config.resume:
                self.durable.taken = store.next_seq()
            self.checkpoints: CheckpointManager = self.durable
        else:
            self.checkpoints = CheckpointManager(
                config.checkpoint_interval, keep=config.checkpoint_keep
            )
        self.detections: Dict[str, int] = {}
        self.repair_epochs = 0
        self.reinjected = 0
        self.resets = 0
        self.degraded_lanes: List[int] = []
        self.first_quiescent_at: Optional[float] = None
        self.overhead: float = 0.0
        self.dram_retries = 0
        self._tolerance: Optional[np.ndarray] = None
        self._inject_active = config.fault_plan.any_event_faults

    # -- detection bookkeeping -----------------------------------------
    def _detected(self, mechanism: str, at: float, vertex: int = -1, **extra: Any) -> None:
        self.detections[mechanism] = self.detections.get(mechanism, 0) + 1
        if obs_trace.ACTIVE is not None:
            probe.fault_detected(mechanism, at, vertex=vertex, **extra)

    # -- site: queue insertion -----------------------------------------
    def filter_insert(self, event: Event, at: float) -> Sequence[Event]:
        """Apply insertion fault models; returns the surviving events."""
        if not self._inject_active:
            return (event,)
        return self.injector.on_insert(event, at)

    def pass_inserts(self, count: int) -> None:
        """Account ``count`` events routed around :meth:`filter_insert`.

        Only valid while no insertion fault is armed: the events consume
        the opportunities the per-event site would have, which keeps the
        checkpointed fault cursor independent of the route taken.
        """
        if self._inject_active:
            self.injector.skip_inserts(count)

    # -- site: bin drain (parity) --------------------------------------
    def payload_ok(self, event: Event, at: float) -> bool:
        """Bin-SRAM parity check; False means discard the payload."""
        if self.injector.payload_ok(event):
            return True
        self._detected("parity", at, vertex=event.vertex)
        return False

    # -- site: reduce write-back (NaN/overflow guard) ------------------
    def guard_value(self, vertex: int, value: float, at: float) -> Tuple[bool, float]:
        """Validate a reduce result before it reaches vertex state.

        Returns ``(ok, value)``; on failure the value is replaced by the
        reduce identity (quarantine) and the caller must not propagate.
        """
        if not state_invalid(value, self.spec.identity, OVERFLOW_LIMIT):
            return True, value
        self._detected("guard", at, vertex=vertex, value=repr(value))
        return False, self.spec.identity

    # -- site: DRAM read (transient error + retry) ---------------------
    def dram_delay(self, at: float) -> float:
        """Extra cycles spent retrying this read (0.0 on the fast path)."""
        if not self.config.fault_plan.armed("dram"):
            return 0.0
        if not self.injector.dram_error(at):
            return 0.0
        self._detected("dram-crc", at)
        penalty = 0.0
        for attempt in range(DRAM_MAX_RETRIES):
            penalty += DRAM_RETRY_BACKOFF * (2.0**attempt)
            if not self.injector.dram_error(at + penalty):
                self.dram_retries += attempt + 1
                if obs_trace.ACTIVE is not None:
                    probe.recovery_span(
                        "dram-retry", at, at + penalty, attempts=attempt + 1
                    )
                return penalty
            self._detected("dram-crc", at + penalty)
        raise UnrecoverableFaultError(
            f"DRAM read failed after {DRAM_MAX_RETRIES} retries",
            at=at,
            retries=DRAM_MAX_RETRIES,
        )

    # -- site: inter-slice spill buffer --------------------------------
    def spill_lost(self, event: Event, at: float) -> bool:
        return self.injector.spill_lost(event, at)

    # -- site: event-processor dispatch --------------------------------
    def alive_lanes(self, num_lanes: int, now: float) -> List[int]:
        """Lanes still eligible for dispatch at cycle ``now``.

        The first time a lane is seen dead the harness emits the full
        fault -> detect -> recover triple (the detection models the
        lane's heartbeat timeout; the recovery span is its removal from
        the dispatch arbiter).
        """
        alive = []
        for lane in range(num_lanes):
            if self.injector.lane_dead(lane, now):
                if lane not in self.degraded_lanes:
                    self.degraded_lanes.append(lane)
                    if obs_trace.ACTIVE is not None:
                        probe.fault_injected("lane", now, detail=f"lane={lane}")
                    self._detected("lane", now, lane=lane)
                    if obs_trace.ACTIVE is not None:
                        probe.recovery_span("lane-removal", now, now, lane=lane)
            else:
                alive.append(lane)
        if not alive:
            raise UnrecoverableFaultError(
                "all event-processor lanes are dead", at=now, lanes=num_lanes
            )
        return alive

    # -- checkpoints ---------------------------------------------------
    def maybe_checkpoint(
        self,
        round_index: int,
        at: float,
        state: np.ndarray,
        queue: Any,
        totals: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Capture a checkpoint when one is due after this round.

        On durable runs this is also the per-round durability barrier:
        the engine's running ``totals`` and the fault-injector cursor
        are staged for persistence, the crash-injection chaos hooks
        fire, and a pending SIGINT/SIGTERM stop request flushes a final
        checkpoint and unwinds via
        :class:`repro.errors.RunInterruptedError`.
        """
        if self.durable is not None:
            self.durable.stage(
                totals=dict(totals or {}),
                fault_cursor=self.injector.cursor(),
                journal_commit=round_index if self.journal is not None else None,
            )
        due = self.checkpoints.due(round_index)
        if due:
            self.checkpoints.take(
                round_index, at, state, queue.snapshot(), int(queue.occupancy)
            )
        if self.durable is None:
            return
        if due:
            self._maybe_compact_journal()
        self.durable.chaos_hook(round_index)
        from .durable import stop_requested

        if stop_requested():
            if not due:
                # finish-current-round semantics: the interrupt lands on
                # a round boundary with a freshly flushed checkpoint
                self.checkpoints.take(
                    round_index,
                    at,
                    state,
                    queue.snapshot(),
                    int(queue.occupancy),
                )
            last = self.checkpoints.latest
            raise RunInterruptedError(
                f"interrupted after round {round_index}; durable checkpoint "
                f"{last.index if last else '<none>'} flushed to "
                f"{self.durable.store.run_dir}",
                run_dir=str(self.durable.store.run_dir),
                checkpoint=last.index if last is not None else None,
                checkpoint_file=(
                    str(self.durable.last_path)
                    if self.durable.last_path is not None
                    else None
                ),
                round_index=round_index,
                engine=self.engine,
            )

    def _maybe_compact_journal(self) -> None:
        """Drop journal history no retained checkpoint can need.

        Runs at checkpoint boundaries (right after a durable take, when
        nothing is buffered).  The compaction floor is the **oldest**
        retained generation's commit, not the newest: the resume
        fallback ladder may adopt any retained generation, and each must
        still be able to replay the journal forward from its own commit.
        """
        if self.journal is None or self.durable is None:
            return
        entries = (self.durable.store.manifest or {}).get("checkpoints") or []
        if not entries:
            return
        boundary = entries[0].get("journal_commit")
        if boundary is None or int(boundary) <= self.journal.compacted_upto:
            return
        self.journal.compact(int(boundary), self.spec.reduce)

    def open_journal(self, num_slices: int) -> Optional[Any]:
        """The sliced engines' spill journal (None unless durable)."""
        if self.durable is None:
            return None
        path = self.durable.store.journal_path
        if self.config.resume:
            self.journal = SpillJournal.open_append(path, num_slices)
        else:
            self.journal = SpillJournal.create(path, num_slices)
        return self.journal

    # -- quiescent repair ----------------------------------------------
    def note_quiescence(self, at: float) -> None:
        """Record the first time the run would have terminated."""
        if self.first_quiescent_at is None:
            self.first_quiescent_at = at

    def repair(
        self,
        state: np.ndarray,
        at: float,
        inject: Callable[[int, float], None],
        restore: Optional[Callable[[Checkpoint], None]] = None,
    ) -> bool:
        """Quiescent invariant sweep; returns True when work was queued.

        ``inject(vertex, delta)`` re-inserts a repair event (engines
        route it straight into the queue — repair traffic is treated as
        verified writes, not re-subjected to injection).  ``restore``
        applies a checkpoint when the repair budget escalates to
        rollback.  Raises :class:`UnrecoverableFaultError` once both
        budgets are exhausted.
        """
        if self.spec.local_target is None:
            return False  # algorithm publishes no invariant; nothing to check
        plan = compute_repairs(
            self.spec, self.graph, state, tolerance=self._tolerances()
        )
        if plan.is_clean:
            return False
        suspects = plan.detected or plan.suspects
        self._detected(
            "invariant",
            at,
            count=len(suspects),
            worst_residual=plan.worst_residual,
        )
        self.repair_epochs += 1
        if self.repair_epochs > MAX_REPAIR_EPOCHS:
            checkpoint = self.checkpoints.rollback()
            if (
                checkpoint is not None
                and restore is not None
                and self.checkpoints.rollbacks <= MAX_ROLLBACKS
            ):
                restore(checkpoint)
                self.repair_epochs = 0
                if obs_trace.ACTIVE is not None:
                    probe.recovery_span(
                        "rollback",
                        at,
                        at,
                        checkpoint=checkpoint.index,
                        round=checkpoint.round_index,
                    )
                return True
            raise UnrecoverableFaultError(
                f"invariant repair did not converge after "
                f"{MAX_REPAIR_EPOCHS} epochs "
                f"({len(suspects)} suspect vertices remain)",
                at=at,
                suspects=suspects[:16],
                rollbacks=self.checkpoints.rollbacks,
            )
        self.resets += len(plan.resets)
        for vertex, delta in plan.injections:
            inject(vertex, delta)
        self.reinjected += len(plan.injections)
        if obs_trace.ACTIVE is not None:
            probe.recovery_span(
                "repair-epoch",
                at,
                at,
                epoch=self.repair_epochs,
                suspects=len(suspects),
                injected=len(plan.injections),
                resets=len(plan.resets),
            )
        return True

    def _tolerances(self) -> np.ndarray:
        """Per-vertex additive residual bound.

        Derived from the algorithm's published fault-free residual
        (``spec.residual_tolerance`` per in-edge), which keeps false
        positives at zero without going blind on low-degree vertices.
        """
        if self._tolerance is None:
            in_degree = self.graph.in_degrees()
            per_edge = max(self.spec.residual_tolerance, 0.0)
            if self.queue_kind == "spill":
                # the sliced runtimes re-drain each slice every
                # activation, and their barrier schedule re-drops a
                # vertex's sub-threshold tail once per pass, so the
                # tails accumulate over more, smaller rounds than the
                # single-queue engines (measured fault-free ratios up to
                # ~5.2x the per-edge bound on tier-1 workloads)
                per_edge *= 8.0
            self._tolerance = np.maximum(
                1e-12, per_edge * np.maximum(in_degree, 1)
            )
        return self._tolerance

    # -- reporting -----------------------------------------------------
    def finalize(self, at: float) -> None:
        """Compute recovery overhead once the run has fully terminated."""
        if self.first_quiescent_at is not None:
            self.overhead = max(0.0, at - self.first_quiescent_at)

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable account of the run's resilience activity."""
        summary = {
            "faults": {
                "total": self.injector.total_faults(),
                "by_kind": dict(sorted(self.injector.counts.items())),
            },
            "detections": dict(sorted(self.detections.items())),
            "repair": {
                "epochs": self.repair_epochs,
                "reinjected_events": self.reinjected,
                "reset_vertices": self.resets,
            },
            "checkpoints": {
                "taken": self.checkpoints.taken,
                "rollbacks": self.checkpoints.rollbacks,
            },
            "dram_retries": self.dram_retries,
            "degraded_lanes": list(self.degraded_lanes),
            "recovery_overhead": self.overhead,
        }
        if self.durable is not None:
            summary["durable"] = {
                "run_dir": str(self.durable.store.run_dir),
                "checkpoints_written": self.durable.written,
                "last_checkpoint": (
                    str(self.durable.last_path)
                    if self.durable.last_path is not None
                    else None
                ),
                "journal_commits": (
                    self.journal.commits if self.journal is not None else None
                ),
                "journal_compactions": (
                    self.journal.compactions
                    if self.journal is not None
                    else None
                ),
                "journal_records_dropped": (
                    self.journal.records_dropped
                    if self.journal is not None
                    else None
                ),
            }
        return summary
