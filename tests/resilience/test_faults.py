"""Fault plan / injector determinism and the per-site fault models."""

import numpy as np
import pytest

from repro.core.event import Event
from repro.resilience import FAULT_KINDS, FaultInjector, FaultPlan


def _drain_decisions(injector, kind, n=500):
    return [injector.decide(kind)[0] for _ in range(n)]


class TestFaultPlan:
    def test_uniform_covers_requested_kinds(self):
        plan = FaultPlan.uniform(0.25, kinds=("drop", "dram"))
        assert plan.rate("drop") == 0.25
        assert plan.rate("dram") == 0.25
        assert plan.rate("bitflip") == 0.0
        assert plan.any_event_faults

    def test_zero_rate_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.any_event_faults
        injector = FaultInjector(plan)
        assert not any(_drain_decisions(injector, "drop", 200))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(rates={"meteor": 0.1})

    def test_unknown_scripted_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind 'dorp'"):
            FaultPlan(scripted={"dorp": {3: 0}})
        # the manifest path `repro resume` rebuilds the plan through
        with pytest.raises(ValueError, match="unknown fault kind 'dorp'"):
            FaultPlan.from_dict({"scripted": {"dorp": {"3": 0}}})

    def test_armed_needs_a_rate_or_scripted_hits(self):
        plan = FaultPlan(
            rates={"dram": 0.1}, scripted={"drop": {4: 0}, "bitflip": {}}
        )
        assert plan.armed("dram") and plan.armed("drop")
        assert not plan.armed("bitflip") and not plan.armed("spill")
        assert plan.any_event_faults
        assert not FaultPlan(scripted={"drop": {}}).any_event_faults

    def test_rate_bounds_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(rates={"drop": 1.5})

    def test_parity_coverage_bounds(self):
        with pytest.raises(ValueError, match="parity_coverage"):
            FaultPlan(parity_coverage=-0.1)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.uniform(0.05, seed=42)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for kind in FAULT_KINDS:
            assert _drain_decisions(a, kind) == _drain_decisions(b, kind)

    def test_kind_streams_are_independent(self):
        # consuming drop opportunities must not perturb bitflip draws
        plan = FaultPlan.uniform(0.05, seed=7)
        pure = FaultInjector(plan)
        mixed = FaultInjector(plan)
        _drain_decisions(mixed, "drop", 100)
        assert _drain_decisions(pure, "bitflip") == _drain_decisions(
            mixed, "bitflip"
        )

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan.uniform(0.05, seed=1))
        b = FaultInjector(FaultPlan.uniform(0.05, seed=2))
        assert _drain_decisions(a, "drop", 2000) != _drain_decisions(
            b, "drop", 2000
        )


class TestScripted:
    def test_scripted_drop_fires_at_exact_opportunity(self):
        plan = FaultPlan(scripted={"drop": {3: -1}})
        injector = FaultInjector(plan)
        decisions = _drain_decisions(injector, "drop", 10)
        assert decisions == [False] * 3 + [True] + [False] * 6

    def test_on_insert_drop_and_duplicate(self):
        event = Event(vertex=4, delta=0.5)
        dropper = FaultInjector(FaultPlan(scripted={"drop": {0: -1}}))
        assert dropper.on_insert(event, at=0.0) == []
        assert dropper.counts == {"drop": 1}

        doubler = FaultInjector(FaultPlan(scripted={"duplicate": {0: -1}}))
        out = doubler.on_insert(event, at=0.0)
        assert len(out) == 2
        assert all(e.vertex == 4 and e.delta == 0.5 for e in out)

    def test_scripted_bitflip_corrupts_payload(self):
        # bit 52 of the mantissa-exponent boundary changes the value
        injector = FaultInjector(FaultPlan(scripted={"bitflip": {0: 52}}))
        event = Event(vertex=1, delta=1.0)
        (out,) = injector.on_insert(event, at=0.0)
        assert out.delta != 1.0
        assert np.isfinite(out.delta)
        assert injector.counts == {"bitflip": 1}

    def test_records_carry_site_metadata(self):
        injector = FaultInjector(FaultPlan(scripted={"drop": {0: -1}}))
        injector.on_insert(Event(vertex=9, delta=1.0), at=12.5)
        (record,) = injector.records
        assert record.kind == "drop"
        assert record.vertex == 9
        assert record.at == 12.5
