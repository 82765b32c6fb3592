"""Watchdog halts for non-converging configurations (every engine)."""

import numpy as np
import pytest

from repro.algorithms.base import AlgorithmSpec
from repro.core import FunctionalGraphPulse, GraphPulseAccelerator, build_engine
from repro.errors import NonConvergenceError
from repro.graph import CSRGraph
from repro.resilience import ResilienceConfig, build_diagnostic


def make_oscillator() -> AlgorithmSpec:
    """A mis-configured algorithm: propagate never contracts the delta.

    On a cycle graph (every out-degree 1) each event regenerates itself
    forever — exactly the failure mode the watchdog exists to catch.
    """
    return AlgorithmSpec(
        name="oscillator",
        reduce=lambda state, delta: state + delta,
        propagate=lambda delta, src, dst, weight, degree: delta,
        identity=0.0,
        initial_delta=lambda vertex, graph: 1.0,
        should_propagate=lambda change: abs(change) > 1e-12,
        additive=True,
    )


@pytest.fixture(scope="module")
def ring():
    n = 16
    return CSRGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


class TestFunctionalHalt:
    def test_round_limit_halts_with_diagnostic(self, ring):
        engine = FunctionalGraphPulse(ring, make_oscillator(), max_rounds=40)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            engine.run()

    def test_diagnostic_names_stuck_vertices_and_bins(self, ring):
        engine = FunctionalGraphPulse(ring, make_oscillator(), max_rounds=40)
        with pytest.raises(NonConvergenceError) as info:
            engine.run()
        diagnostic = info.value.diagnostic
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["engine"] == "functional"
        assert diagnostic["rounds"] == 40
        assert diagnostic["queue_occupancy"] > 0
        assert info.value.stuck_vertices  # sampled from live bins
        assert all(0 <= v < ring.num_vertices for v in info.value.stuck_vertices)
        assert info.value.stuck_bins
        assert str(info.value.stuck_vertices[0]) in diagnostic["stuck_deltas"]

    def test_halts_with_resilience_enabled_too(self, ring):
        engine = FunctionalGraphPulse(
            ring,
            make_oscillator(),
            max_rounds=40,
            resilience=ResilienceConfig(),
        )
        with pytest.raises(NonConvergenceError) as info:
            engine.run()
        assert info.value.diagnostic["reason"] == "round-limit"


class TestCycleHalt:
    def test_round_limit_halts_with_diagnostic(self, ring):
        engine = GraphPulseAccelerator(ring, make_oscillator(), max_rounds=40)
        with pytest.raises(NonConvergenceError) as info:
            engine.run()
        diagnostic = info.value.diagnostic
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["engine"] == "cycle"
        assert info.value.stuck_vertices
        assert info.value.stuck_bins

    def test_halts_with_resilience_enabled_too(self, ring):
        engine = GraphPulseAccelerator(
            ring,
            make_oscillator(),
            max_rounds=40,
            resilience=ResilienceConfig(),
        )
        with pytest.raises(NonConvergenceError):
            engine.run()


#: each fixed-point engine with a 40-round (or 40-pass) budget
BUDGETED = {
    "functional": ({"max_rounds": 40}, "40 rounds"),
    "cycle": ({"max_rounds": 40}, "40 rounds"),
    "sliced": ({"num_slices": 2, "max_passes": 40}, "40 slice passes"),
    "parallel-sliced": (
        {"num_slices": 2, "max_passes": 40},
        "40 slice passes",
    ),
}


class TestRoundLimitHalt:
    """One abort, whichever engine runs it and whether a harness rides."""

    @staticmethod
    def _halt(ring, engine, resilience):
        options, _ = BUDGETED[engine]
        handle = build_engine(
            engine, (ring, make_oscillator()), options, resilience=resilience
        )
        with pytest.raises(NonConvergenceError) as info:
            handle.run()
        return str(info.value), info.value.diagnostic

    @pytest.mark.parametrize("engine", sorted(BUDGETED))
    def test_same_abort_with_and_without_harness(self, ring, engine):
        message, diagnostic = self._halt(ring, engine, None)
        assert (message, diagnostic) == self._halt(
            ring, engine, ResilienceConfig()
        )
        assert message == (
            f"oscillator did not converge within {BUDGETED[engine][1]}"
        )
        assert diagnostic["reason"] == "round-limit"
        assert diagnostic["engine"] == engine
        assert diagnostic["rounds"] == 40
        assert diagnostic["queue_occupancy"] > 0
        assert diagnostic["stuck_vertices"]


class TestWatchdogUnit:
    def test_diagnostic_builder_on_stub_queue(self):
        class StubQueue:
            num_bins = 2
            occupancy = 3

            def peek_bin(self, index):
                from repro.core.event import Event

                if index == 0:
                    return [Event(vertex=7, delta=2.0)]
                return [Event(vertex=1, delta=0.5), Event(vertex=2, delta=1.0)]

        diagnostic = build_diagnostic("test", "round-limit", 12, StubQueue())
        assert diagnostic["stuck_bins"][0] == 1  # fullest bin first
        assert diagnostic["stuck_vertices"][0] == 7  # largest delta first
        assert diagnostic["queue_occupancy"] == 3
