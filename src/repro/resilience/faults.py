"""Deterministic seeded fault injection (the attack side of resilience).

Hardware-accelerator soft-error studies inject faults at architecturally
meaningful sites and measure whether the computation still converges.
The GraphPulse event model exposes five such sites, and each is a fault
*kind* here:

``drop``
    An event vanishes at queue insertion (a lost flit / overwritten
    slot).  Silent — only the quiescent invariant check can see it.
``duplicate``
    An event is inserted twice (a replayed flit).  Harmless for
    idempotent (min/max) reduce operators, a conservation violation for
    additive ones.
``bitflip``
    One bit of the payload flips in bin storage (an SRAM soft error).
    Bin SRAM carries parity, so a single flip is detected when the
    coalescer next reads the slot and the payload is discarded
    (= a *detected* drop); ``parity_coverage`` < 1 models multi-bit
    escapes that silently corrupt vertex state instead.
``dram``
    A transient error on a DRAM read burst (CRC-detected on the bus).
    Recovered by bounded exponential-backoff retry.
``spill``
    A spilled inter-slice event is lost between slices (a dropped DRAM
    page write).  Silent, like ``drop``, but only exists in the sliced
    runtime.

A sixth fault — a *dead event-processor lane* — is not a per-event rate
but a scripted kill time per lane (``FaultPlan.dead_lanes``).

Determinism.  Every kind draws from its own ``numpy`` generator seeded
from ``(seed, kind)``, and decisions are consumed in simulation order,
so a campaign with the same seed and workload injects byte-identical
fault sequences.  ``scripted`` pins exact fault opportunities (the
n-th insertion, with a chosen bit for flips) for targeted tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.event import Event
from ..obs import probe
from ..obs import trace as obs_trace

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultRecord", "FaultInjector"]

#: the per-event fault kinds (dead lanes are scripted per lane, not drawn)
FAULT_KINDS = ("drop", "duplicate", "bitflip", "dram", "spill")
#: the kinds that act on a queue insertion (:meth:`FaultInjector.on_insert`)
INSERT_FAULT_KINDS = ("drop", "duplicate", "bitflip")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of which faults to inject.

    Parameters
    ----------
    seed:
        Root seed of the per-kind decision streams.
    rates:
        Per-opportunity fault probability by kind (missing kinds: 0.0).
    dead_lanes:
        ``lane -> cycle`` map: the event processor dies at that cycle
        and never dispatches again.
    scripted:
        ``kind -> {opportunity_index: bit}`` forcing a fault at exact
        opportunity counts (0-based).  ``bit`` selects the flipped bit
        for ``bitflip`` (use -1 for "draw from the stream"); it is
        ignored for other kinds.
    parity_coverage:
        Probability that a ``bitflip`` is caught by the bin-SRAM parity
        when the slot is next read (1.0 = single-bit model, always
        detected).
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    dead_lanes: Mapping[int, int] = field(default_factory=dict)
    scripted: Mapping[str, Mapping[int, int]] = field(default_factory=dict)
    parity_coverage: float = 1.0

    def __post_init__(self) -> None:
        for kind in (*self.rates, *self.scripted):
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1]")
        if not 0.0 <= self.parity_coverage <= 1.0:
            raise ValueError("parity_coverage must be in [0, 1]")

    @classmethod
    def uniform(
        cls,
        rate: float,
        *,
        seed: int = 0,
        kinds: Tuple[str, ...] = FAULT_KINDS,
        dead_lanes: Optional[Mapping[int, int]] = None,
        parity_coverage: float = 1.0,
    ) -> "FaultPlan":
        """One rate across ``kinds`` (the campaign's standard shape)."""
        return cls(
            seed=seed,
            rates={k: rate for k in kinds},
            dead_lanes=dict(dead_lanes or {}),
            parity_coverage=parity_coverage,
        )

    def rate(self, kind: str) -> float:
        return float(self.rates.get(kind, 0.0))

    def armed(self, kind: str) -> bool:
        """True when ``kind`` can fire: a positive rate or scripted hits."""
        return self.rate(kind) > 0 or bool(self.scripted.get(kind))

    @property
    def any_event_faults(self) -> bool:
        return any(self.armed(k) for k in FAULT_KINDS)

    @property
    def any_insert_faults(self) -> bool:
        return any(self.armed(k) for k in INSERT_FAULT_KINDS)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for the durable run manifest."""
        return {
            "seed": int(self.seed),
            "rates": {k: float(v) for k, v in self.rates.items()},
            "dead_lanes": {str(k): int(v) for k, v in self.dead_lanes.items()},
            "scripted": {
                kind: {str(i): int(bit) for i, bit in hits.items()}
                for kind, hits in self.scripted.items()
            },
            "parity_coverage": float(self.parity_coverage),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (manifest resume)."""
        return cls(
            seed=int(data.get("seed", 0)),
            rates=dict(data.get("rates", {})),
            dead_lanes={
                int(k): int(v) for k, v in data.get("dead_lanes", {}).items()
            },
            scripted={
                kind: {int(i): int(bit) for i, bit in hits.items()}
                for kind, hits in data.get("scripted", {}).items()
            },
            parity_coverage=float(data.get("parity_coverage", 1.0)),
        )


@dataclass
class FaultRecord:
    """One injected fault (campaign reporting / trace cross-check)."""

    kind: str
    at: float  #: engine time (cycles or round index) of the injection
    vertex: int = -1  #: affected vertex (-1 when not vertex-addressed)
    detail: str = ""


class FaultInjector:
    """Draws fault decisions and applies payload corruption.

    The injector is pure policy: engines ask it at each opportunity
    ("I am about to insert this event", "this DRAM read completed") and
    apply the outcome themselves, so the fault model stays in one place
    and the engines stay one guarded branch away from the fault-free
    path.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rngs: Dict[str, np.random.Generator] = {
            kind: np.random.default_rng((plan.seed, index))
            for index, kind in enumerate(FAULT_KINDS)
        }
        #: parity-escape draws get their own stream so coverage changes
        #: do not perturb the injection sequence itself
        self._parity_rng = np.random.default_rng((plan.seed, len(FAULT_KINDS)))
        self._bit_rng = np.random.default_rng((plan.seed, len(FAULT_KINDS) + 1))
        self._opportunities: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        # scalar draws consumed per stream, so a durable resume can
        # fast-forward the generators to the exact same point
        self._draws: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._parity_draws = 0
        self._bit_draws = 0
        self.records: List[FaultRecord] = []
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def decide(self, kind: str) -> Tuple[bool, int]:
        """Consume one opportunity of ``kind``; returns (fault?, bit).

        ``bit`` is only meaningful for ``bitflip`` opportunities (-1
        means "draw one").
        """
        index = self._opportunities[kind]
        self._opportunities[kind] = index + 1
        scripted = self.plan.scripted.get(kind)
        if scripted is not None and index in scripted:
            return True, int(scripted[index])
        rate = self.plan.rate(kind)
        if rate <= 0.0:
            return False, -1
        self._draws[kind] += 1
        return bool(self._rngs[kind].random() < rate), -1

    def _record(self, kind: str, at: float, vertex: int, detail: str = "") -> None:
        self.records.append(FaultRecord(kind, at, vertex, detail))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if obs_trace.ACTIVE is not None:
            probe.fault_injected(kind, at, vertex=vertex, detail=detail)

    # ------------------------------------------------------------------
    # Site: queue insertion (drop / duplicate / bitflip)
    # ------------------------------------------------------------------
    def on_insert(self, event: Event, at: float) -> List[Event]:
        """Filter one event through the insertion fault models.

        Returns the list of events that actually reach the queue: empty
        on a drop, two on a duplication, one (possibly corrupted) event
        otherwise.  A corrupted event is tagged so the bin parity check
        (:meth:`payload_ok`) can see it — the tag models the parity bit
        the real SRAM would carry, not oracle knowledge.
        """
        dropped, _ = self.decide("drop")
        if dropped:
            self._record("drop", at, event.vertex)
            return []
        out = [event]
        duplicated, _ = self.decide("duplicate")
        if duplicated:
            self._record("duplicate", at, event.vertex)
            out.append(
                Event(
                    vertex=event.vertex,
                    delta=event.delta,
                    generation=event.generation,
                    ready=event.ready,
                )
            )
        flipped, bit = self.decide("bitflip")
        if flipped:
            if bit < 0:
                self._bit_draws += 1
                bit = int(self._bit_rng.integers(0, 64))
            corrupted = Event(
                vertex=event.vertex,
                delta=_flip_bit(event.delta, bit),
                generation=event.generation,
                ready=event.ready,
            )
            # the parity tag: a single-bit flip always breaks parity; a
            # draw above ``parity_coverage`` models a multi-bit escape
            if self.plan.parity_coverage >= 1.0:
                parity_bad = True
            else:
                self._parity_draws += 1
                parity_bad = bool(
                    self._parity_rng.random() < self.plan.parity_coverage
                )
            corrupted._parity_bad = parity_bad  # type: ignore[attr-defined]
            self._record("bitflip", at, event.vertex, detail=f"bit={bit}")
            out[0] = corrupted
        return out

    def skip_inserts(self, count: int) -> None:
        """Consume ``count`` insertions no armed kind can fault.

        Without an armed insertion kind :meth:`on_insert` leaves every
        event as it is and only advances these opportunity counts (no
        draw is made), so a caller that routes such events around it
        calls this instead.
        """
        for kind in INSERT_FAULT_KINDS:
            self._opportunities[kind] += count

    def payload_ok(self, event: Event) -> bool:
        """The bin parity check: False when the payload must be discarded."""
        return not getattr(event, "_parity_bad", False)

    # ------------------------------------------------------------------
    # Site: DRAM read burst (transient error)
    # ------------------------------------------------------------------
    def dram_error(self, at: float) -> bool:
        """True when this read burst is hit by a transient error."""
        faulted, _ = self.decide("dram")
        if faulted:
            self._record("dram", at, -1)
        return faulted

    # ------------------------------------------------------------------
    # Site: inter-slice spill buffer
    # ------------------------------------------------------------------
    def spill_lost(self, event: Event, at: float) -> bool:
        """True when a spilled event is lost between slices."""
        lost, _ = self.decide("spill")
        if lost:
            self._record("spill", at, event.vertex)
        return lost

    # ------------------------------------------------------------------
    # Site: event-processor lanes
    # ------------------------------------------------------------------
    def lane_dead(self, lane: int, now: float) -> bool:
        """True when ``lane`` has died by cycle ``now``."""
        death = self.plan.dead_lanes.get(lane)
        return death is not None and now >= death

    def total_faults(self) -> int:
        # counts, not len(records): a durable resume restores the counts
        # from the checkpoint cursor but does not replay the record list
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Durable-resume cursor
    # ------------------------------------------------------------------
    def cursor(self) -> Dict[str, Any]:
        """Serializable position of every decision stream.

        Captured into durable checkpoints so that a resumed run draws
        the exact same fault sequence the killed run would have drawn.
        """
        return {
            "opportunities": dict(self._opportunities),
            "draws": dict(self._draws),
            "parity_draws": self._parity_draws,
            "bit_draws": self._bit_draws,
            "counts": dict(self.counts),
        }

    def restore_cursor(self, cursor: Mapping[str, Any]) -> None:
        """Fast-forward freshly-seeded streams to a :meth:`cursor`.

        The generators are advanced by repeating the *same scalar calls*
        the original run made — numpy does not guarantee that one bulk
        draw is stream-equivalent to n scalar draws, so no shortcut.
        """
        draws = {k: int(v) for k, v in cursor.get("draws", {}).items()}
        for kind, count in draws.items():
            rng = self._rngs[kind]
            for _ in range(count):
                rng.random()
        for _ in range(int(cursor.get("parity_draws", 0))):
            self._parity_rng.random()
        for _ in range(int(cursor.get("bit_draws", 0))):
            self._bit_rng.integers(0, 64)
        self._opportunities = {
            k: int(v) for k, v in cursor.get("opportunities", {}).items()
        }
        for kind in FAULT_KINDS:
            self._opportunities.setdefault(kind, 0)
            draws.setdefault(kind, 0)
        self._draws = draws
        self._parity_draws = int(cursor.get("parity_draws", 0))
        self._bit_draws = int(cursor.get("bit_draws", 0))
        self.counts = {k: int(v) for k, v in cursor.get("counts", {}).items()}


def _flip_bit(value: float, bit: int) -> float:
    """Flip one bit of the IEEE-754 double representation of ``value``."""
    raw = np.float64(value).view(np.uint64)
    return float((raw ^ np.uint64(1) << np.uint64(bit & 63)).view(np.float64))
