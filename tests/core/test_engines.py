"""Tests for the Engine API: registry, RunResult schema, cross-engine
bit-identity.

Every engine is constructed exclusively through ``build_engine`` here —
the same path the CLI, the crash harness and the benchmarks use — so
these tests pin the one construction/result contract everything else
relies on.
"""

import json

import numpy as np
import pytest

from repro import algorithms
from repro.core import (
    RUN_RESULT_SCHEMA,
    RUN_RESULT_SCHEMA_VERSION,
    BspOptions,
    RunResult,
    SlicedMpOptions,
    SlicedOptions,
    build_engine,
    engine_names,
    engine_spec,
    resilient_engine_names,
    resumable_engine_names,
    validate_run_result,
)
from repro.errors import ReproError
from repro.graph import erdos_renyi_graph, random_weights, rmat_graph
from repro.resilience import ResilienceConfig

ALL_ENGINES = (
    "functional",
    "cycle",
    "sliced",
    "sliced-mp",
    "sliced-hosts",
    "parallel-sliced",
    "bsp",
    "ligra",
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(250, 1500, seed=11)


@pytest.fixture(scope="module")
def small_graph():
    return erdos_renyi_graph(120, 700, seed=5)


def _options(engine, tmp_path=None):
    if engine in ("sliced", "parallel-sliced"):
        return {"num_slices": 3}
    if engine == "sliced-mp":
        return {"num_slices": 3, "num_workers": 2}
    if engine == "sliced-hosts":
        # a virgin substrate dir per call; constructing without one is
        # itself an error the registry tests exercise
        hosts = tmp_path / "hosts" if tmp_path is not None else None
        return {"num_slices": 3, "hosts_dir": hosts, "lease_timeout": 1.0}
    return {}


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(ALL_ENGINES) <= set(engine_names())

    def test_unknown_engine_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="unknown engine"):
            build_engine("warp-drive", (graph, spec))

    def test_unknown_option_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="does not accept option"):
            build_engine("bsp", (graph, spec), {"num_slices": 2})

    def test_resilience_refused_by_nonresilient_engines(self, graph):
        spec = algorithms.make_pagerank_delta()
        config = ResilienceConfig()
        for engine in ("bsp", "ligra"):
            with pytest.raises(ReproError, match="does not support"):
                build_engine(
                    engine,
                    (graph, spec),
                    _options(engine),
                    resilience=config,
                )

    def test_capability_flags(self):
        resilient = set(resilient_engine_names())
        durable = {
            "functional", "cycle", "sliced", "sliced-mp", "parallel-sliced"
        }
        assert resilient == durable
        resumable = set(resumable_engine_names())
        assert resumable == durable

    def test_resumable_flag_matches_runner_restore(self, small_graph, tmp_path):
        """The registry flag must be truthful: every resumable engine's
        runner exposes ``restore()`` and no non-resumable engine does.
        The parallel-sliced preset is the sliced runner, so it resumes
        too."""
        spec = algorithms.make_pagerank_delta()
        resumable = set(resumable_engine_names())
        for name in engine_names():
            handle = build_engine(
                name, (small_graph, spec), _options(name, tmp_path)
            )
            has_restore = callable(getattr(handle.runner, "restore", None))
            assert has_restore == (name in resumable), name
        assert "parallel-sliced" in resumable

    def test_engine_spec_lookup(self):
        spec = engine_spec("sliced-mp")
        assert spec.resilient and spec.resumable
        assert spec.description


class TestRunResultSchema:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_payload_validates_for_every_engine(self, graph, engine, tmp_path):
        spec = algorithms.make_pagerank_delta()
        result = build_engine(
            engine, (graph, spec), _options(engine, tmp_path)
        ).run()
        assert isinstance(result, RunResult)
        payload = result.to_json()
        validate_run_result(payload)  # raises on any schema violation
        assert payload["engine"] == engine
        assert payload["converged"] is True
        json.dumps(payload)  # JSON-serializable as-is
        assert result.values.dtype == np.float64
        assert result.raw is not None

    def test_validation_catches_missing_key(self):
        payload = {key: None for key in RUN_RESULT_SCHEMA}
        payload.update(engine="functional", converged=True, stats={})
        del payload["rounds"]
        with pytest.raises(ValueError, match="missing"):
            validate_run_result(payload)

    def test_validation_catches_extra_key(self):
        payload = {
            "schema_version": RUN_RESULT_SCHEMA_VERSION,
            "engine": "bsp",
            "converged": True,
            "rounds": 3,
            "passes": None,
            "stats": {},
            "resilience": None,
            "options": None,
            "surprise": 1,
        }
        with pytest.raises(ValueError, match="unexpected"):
            validate_run_result(payload)

    def test_validation_catches_wrong_type(self):
        payload = {
            "schema_version": RUN_RESULT_SCHEMA_VERSION,
            "engine": "bsp",
            "converged": "yes",
            "rounds": 3,
            "passes": None,
            "stats": {},
            "resilience": None,
            "options": None,
        }
        with pytest.raises(ValueError, match="converged"):
            validate_run_result(payload)

    def test_validation_catches_wrong_schema_version(self):
        payload = {
            "schema_version": RUN_RESULT_SCHEMA_VERSION + 1,
            "engine": "bsp",
            "converged": True,
            "rounds": 3,
            "passes": None,
            "stats": {},
            "resilience": None,
            "options": None,
        }
        with pytest.raises(ValueError, match="schema_version"):
            validate_run_result(payload)

    @staticmethod
    def _mp_payload():
        worker_stats = [
            {
                "worker": w,
                "activations": 2,
                "events_drained": 10,
                "rounds": 5,
                "barrier_wait_rounds": 5,
                "journal_replays": 0,
                "lease_recoveries": 0,
            }
            for w in range(2)
        ]
        return {
            "schema_version": RUN_RESULT_SCHEMA_VERSION,
            "engine": "sliced-mp",
            "converged": True,
            "rounds": 10,
            "passes": 4,
            "stats": {
                "events_processed": 20,
                "spill_bytes": 0,
                "spill_overhead": 0.0,
                "workers": 2,
                "recoveries": 0,
                "max_inflight": 2,
                "worker_stats": worker_stats,
            },
            "resilience": None,
            "options": None,
        }

    def test_sliced_mp_requires_worker_stats(self):
        payload = self._mp_payload()
        validate_run_result(payload)  # complete payload passes
        del payload["stats"]["worker_stats"]
        with pytest.raises(ValueError, match="worker_stats"):
            validate_run_result(payload)

    def test_sliced_mp_worker_stats_length_must_match_workers(self):
        payload = self._mp_payload()
        payload["stats"]["worker_stats"].pop()
        with pytest.raises(ValueError, match="worker_stats"):
            validate_run_result(payload)

    def test_sliced_mp_worker_entry_missing_key_rejected(self):
        payload = self._mp_payload()
        del payload["stats"]["worker_stats"][1]["barrier_wait_rounds"]
        with pytest.raises(ValueError, match="barrier_wait_rounds"):
            validate_run_result(payload)

    def test_sliced_mp_worker_entry_wrong_type_rejected(self):
        payload = self._mp_payload()
        payload["stats"]["worker_stats"][0]["events_drained"] = "many"
        with pytest.raises(ValueError, match="events_drained"):
            validate_run_result(payload)

    def test_other_engines_do_not_require_worker_stats(self):
        payload = {
            "schema_version": RUN_RESULT_SCHEMA_VERSION,
            "engine": "sliced",
            "converged": True,
            "rounds": 10,
            "passes": 4,
            "stats": {"events_processed": 20},
            "resilience": None,
            "options": None,
        }
        validate_run_result(payload)


class TestEngineOptions:
    """The typed options API: coercion, validation, and the echo."""

    def test_dict_input_is_coerced_and_echoed(self, graph):
        spec = algorithms.make_pagerank_delta()
        handle = build_engine(
            "sliced-mp", (graph, spec), {"num_slices": 3, "num_workers": 2}
        )
        assert isinstance(handle.options, SlicedMpOptions)
        assert handle.options.num_slices == 3
        assert handle.options.num_workers == 2
        assert handle.options.dispatch == "barrier"
        payload = handle.run().to_json()
        validate_run_result(payload)
        echoed = payload["options"]
        assert echoed["num_workers"] == 2
        assert echoed["dispatch"] == "barrier"
        # callables echo by name, so the payload stays JSON-serializable
        assert echoed["partition_fn"] == "contiguous_partition"
        json.dumps(payload)

    def test_typed_instance_accepted_directly(self, graph):
        spec = algorithms.make_pagerank_delta()
        options = SlicedOptions(num_slices=3, rounds_per_activation=2)
        handle = build_engine("sliced", (graph, spec), options)
        assert handle.options is options
        from_dict = build_engine(
            "sliced",
            (graph, spec),
            {"num_slices": 3, "rounds_per_activation": 2},
        )
        assert (
            handle.run().values.tobytes()
            == from_dict.run().values.tobytes()
        )

    def test_wrong_options_class_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="takes BspOptions"):
            build_engine("bsp", (graph, spec), SlicedOptions(num_slices=2))

    def test_wrong_field_type_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="should be int"):
            build_engine(
                "sliced-mp",
                (graph, spec),
                {"num_slices": 3, "num_workers": "two"},
            )

    def test_bad_dispatch_value_rejected(self, graph):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="dispatch"):
            build_engine(
                "sliced", (graph, spec), {"num_slices": 2, "dispatch": "zig"}
            )

    @pytest.mark.parametrize("engine", ["sliced", "sliced-mp"])
    def test_retired_chained_dispatch_rejected(self, graph, engine):
        spec = algorithms.make_pagerank_delta()
        with pytest.raises(ReproError, match="'chained' schedule was retired"):
            build_engine(
                engine, (graph, spec), {"num_slices": 2, "dispatch": "chained"}
            )

    def test_defaults_resolve_without_config(self, graph):
        spec = algorithms.make_pagerank_delta()
        handle = build_engine("bsp", (graph, spec))
        assert isinstance(handle.options, BspOptions)
        assert handle.options.max_iterations == 100_000

    def test_options_are_frozen(self):
        options = SlicedOptions(num_slices=2)
        with pytest.raises(AttributeError):
            options.num_slices = 4


class TestCrossEngineIdentity:
    """All engines compute the same fixed point on the same workload."""

    @pytest.mark.parametrize("fixture", ["graph", "small_graph"])
    def test_pagerank_matches_functional_reference(
        self, fixture, request, tmp_path
    ):
        g = request.getfixturevalue(fixture)
        reference = algorithms.pagerank_reference(g)
        for engine in ALL_ENGINES:
            result = build_engine(
                engine,
                (g, algorithms.make_pagerank_delta()),
                _options(engine, tmp_path / engine),
            ).run()
            assert np.allclose(result.values, reference, atol=1e-4), engine
            assert result.converged, engine

    @pytest.mark.parametrize("fixture", ["graph", "small_graph"])
    def test_sssp_exact_across_engines(self, fixture, request, tmp_path):
        g = random_weights(request.getfixturevalue(fixture), seed=7)
        root = int(np.argmax(g.out_degrees()))
        spec = algorithms.make_sssp(root=root)
        reference = algorithms.sssp_reference(g, root)
        for engine in ALL_ENGINES:
            result = build_engine(
                engine, (g, spec), _options(engine, tmp_path / engine)
            ).run()
            finite = np.isfinite(reference)
            assert np.array_equal(
                result.values[finite], reference[finite]
            ), engine
            assert np.array_equal(
                np.isfinite(result.values), finite
            ), engine

    def test_sliced_mp_bit_identical_to_sliced(self, graph):
        spec = algorithms.make_pagerank_delta()
        sequential = build_engine(
            "sliced", (graph, spec), {"num_slices": 3}
        ).run()
        parallel = build_engine(
            "sliced-mp", (graph, spec), {"num_slices": 3, "num_workers": 2}
        ).run()
        assert sequential.values.tobytes() == parallel.values.tobytes()
        assert sequential.passes == parallel.passes
        assert sequential.rounds == parallel.rounds
        assert (
            sequential.stats["spill_bytes"] == parallel.stats["spill_bytes"]
        )
        assert sequential.stats["messages"] == parallel.stats["messages"]

    def test_sliced_hosts_bit_identical_to_sliced(self, graph, tmp_path):
        # sliced-hosts runs the barrier schedule of the default sliced
        # engine, one claimed step per slice activation
        weighted = random_weights(graph, seed=7)
        root = int(np.argmax(weighted.out_degrees()))
        workloads = {
            "pagerank": (graph, algorithms.make_pagerank_delta()),
            "sssp": (weighted, algorithms.make_sssp(root=root)),
        }
        for name, workload in workloads.items():
            sequential = build_engine(
                "sliced", workload, {"num_slices": 3}
            ).run()
            hosted = build_engine(
                "sliced-hosts",
                workload,
                {
                    "num_slices": 3,
                    "hosts_dir": tmp_path / name,
                    "lease_timeout": 1.0,
                },
            ).run()
            assert (
                sequential.values.tobytes() == hosted.values.tobytes()
            ), name
            assert sequential.passes == hosted.passes, name
            assert sequential.rounds == hosted.rounds, name
            assert (
                sequential.stats["events_processed"]
                == hosted.stats["events_processed"]
            ), name
            assert (
                sequential.stats["spill_bytes"]
                == hosted.stats["spill_bytes"]
            ), name
