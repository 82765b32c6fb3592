"""The Engine API: one registry, one result shape, for every engine.

Historically each engine grew its own constructor signature and its own
result dataclass (``FunctionalResult``, accelerator stats,
``SlicedResult``, the baselines' records),
so every consumer — the CLI, the crash harness, the campaign runner,
benchmarks — carried a per-engine ``if`` ladder.  This module replaces
those ladders with:

``build_engine(name, workload, config, *, resilience=None,
timeseries=None)``
    The single construction path.  ``workload`` is ``(graph, spec)``;
    ``config`` is either an instance of the engine's registered
    :class:`EngineOptions` dataclass or a plain mapping coerced into
    one (the historical calling convention; every CLI flag and stored
    manifest still arrives this way).  Unknown keys and mistyped values
    raise :class:`repro.errors.ReproError` **before** any work happens
    — options are never silently dropped — and the resolved options are
    echoed under ``options`` in ``RunResult.to_json()`` so a payload
    records exactly what configuration produced it.  Engines that do
    not accept resilience refuse it here too.

:class:`RunResult`
    The unified result: final ``values``, ``converged``, the
    ``rounds``/``passes`` counters (``None`` where an engine has no such
    notion), engine-specific counters under ``stats``, the resilience
    summary, the active trace handle, and ``raw`` — the engine's native
    result object for callers that need the long tail (activation lists,
    per-round records, model configs).  ``to_json()`` emits the one
    schema every ``--json`` consumer sees; ``validate_run_result``
    checks a payload against it.

:class:`Engine`
    The protocol a registered engine satisfies: ``name``, ``runner``
    (the underlying engine object), ``run() -> RunResult``, and
    ``restore(restored)`` for resumable engines.

The legacy constructors (``FunctionalGraphPulse(...)``,
``SlicedGraphPulse(partition, ...)`` …) remain importable for callers
with exotic needs, but new code should not grow third copies of the
construction logic — register here instead.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Type,
)

import numpy as np

from ..errors import ReproError
from ..graph.partition import contiguous_partition
from ..obs import trace as obs_trace

__all__ = [
    "Engine",
    "EngineSpec",
    "EngineOptions",
    "FunctionalOptions",
    "CycleOptions",
    "SlicedOptions",
    "SlicedMpOptions",
    "SlicedHostsOptions",
    "ParallelSlicedOptions",
    "BspOptions",
    "LigraOptions",
    "RunResult",
    "RUN_RESULT_SCHEMA",
    "RUN_RESULT_SCHEMA_VERSION",
    "RESUME_PAYLOAD_SCHEMA",
    "JOURNAL_PROVENANCE_KEYS",
    "WORKER_STATS_KEYS",
    "validate_run_result",
    "validate_resume_payload",
    "register_engine",
    "engine_names",
    "engine_spec",
    "resilient_engine_names",
    "resumable_engine_names",
    "build_engine",
]


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """Engine-independent run outcome (module docs)."""

    engine: str
    values: np.ndarray
    converged: bool
    #: fine-grained work counter (engine rounds / BSP iterations);
    #: None when the engine has no such notion
    rounds: Optional[int]
    #: coarse slice-schedule counter (sliced passes); None for
    #: single-queue engines
    passes: Optional[int]
    #: engine-specific counters (cycles, spill bytes, coalesce rate, …)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: resilience harness activity summary; None when resilience was off
    resilience: Optional[Dict[str, Any]] = None
    #: the tracer active during the run, when tracing was on
    trace: Optional[Any] = None
    #: the resolved :class:`EngineOptions` the engine was built with;
    #: None when the result was assembled outside ``build_engine``
    options: Optional["EngineOptions"] = None
    #: the engine's native result object (escape hatch for the long tail)
    raw: Any = None

    def to_json(self) -> Dict[str, Any]:
        """The one ``--json`` result schema, identical across engines."""
        return {
            "schema_version": RUN_RESULT_SCHEMA_VERSION,
            "engine": self.engine,
            "converged": bool(self.converged),
            "rounds": None if self.rounds is None else int(self.rounds),
            "passes": None if self.passes is None else int(self.passes),
            "stats": dict(self.stats),
            "resilience": self.resilience,
            "options": (
                None if self.options is None else self.options.to_json()
            ),
        }


#: version of the ``RunResult.to_json()`` schema.  2 added
#: ``schema_version`` itself and the resolved ``options`` echo.
RUN_RESULT_SCHEMA_VERSION = 2

#: key -> allowed types of the ``RunResult.to_json()`` payload
RUN_RESULT_SCHEMA: Dict[str, Tuple[type, ...]] = {
    "schema_version": (int,),
    "engine": (str,),
    "converged": (bool,),
    "rounds": (int, type(None)),
    "passes": (int, type(None)),
    "stats": (dict,),
    "resilience": (dict, type(None)),
    "options": (dict, type(None)),
}


#: per-worker telemetry keys every sliced-mp stats payload must carry
WORKER_STATS_KEYS: Tuple[str, ...] = (
    "worker",
    "activations",
    "events_drained",
    "rounds",
    "barrier_wait_rounds",
    "journal_replays",
    "lease_recoveries",
)


def _validate_worker_stats(stats: Dict[str, Any]) -> None:
    """sliced-mp results must carry the per-worker telemetry block."""
    for key in ("workers", "recoveries"):
        if not isinstance(stats.get(key), int):
            raise ValueError(
                f"sliced-mp stats[{key!r}] should be int, "
                f"got {type(stats.get(key)).__name__}"
            )
    worker_stats = stats.get("worker_stats")
    if not isinstance(worker_stats, list):
        raise ValueError(
            f"sliced-mp stats['worker_stats'] should be a list, "
            f"got {type(worker_stats).__name__}"
        )
    if len(worker_stats) != stats["workers"]:
        raise ValueError(
            f"sliced-mp worker_stats has {len(worker_stats)} entries "
            f"for {stats['workers']} workers"
        )
    for entry in worker_stats:
        if not isinstance(entry, dict):
            raise ValueError("sliced-mp worker_stats entries must be dicts")
        for key in WORKER_STATS_KEYS:
            if not isinstance(entry.get(key), int):
                raise ValueError(
                    f"sliced-mp worker_stats[{key!r}] should be int, "
                    f"got {type(entry.get(key)).__name__}"
                )


def validate_run_result(payload: Dict[str, Any]) -> None:
    """Assert ``payload`` matches the RunResult JSON schema exactly.

    Raises ``ValueError`` naming the first violation: a missing key, an
    unexpected key, or a mistyped value.  Engine-conditional blocks are
    held to their own contracts too: a ``sliced-mp`` payload must carry
    the per-worker telemetry (``workers``/``recoveries``/
    ``worker_stats`` with :data:`WORKER_STATS_KEYS` per worker).  Used
    by the tests and the CI smoke jobs to hold every engine to the same
    contract.
    """
    missing = sorted(set(RUN_RESULT_SCHEMA) - set(payload))
    if missing:
        raise ValueError(f"result payload missing keys: {missing}")
    extra = sorted(set(payload) - set(RUN_RESULT_SCHEMA))
    if extra:
        raise ValueError(f"result payload has unexpected keys: {extra}")
    for key, types in RUN_RESULT_SCHEMA.items():
        if not isinstance(payload[key], types):
            raise ValueError(
                f"result[{key!r}] should be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(payload[key]).__name__}"
            )
    if payload["schema_version"] != RUN_RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"result schema_version {payload['schema_version']} does not "
            f"match the validator's ({RUN_RESULT_SCHEMA_VERSION})"
        )
    if payload["engine"] == "sliced-mp":
        _validate_worker_stats(payload["stats"])


#: key -> allowed types of the ``repro resume --json`` ``resumed`` block
RESUME_PAYLOAD_SCHEMA: Dict[str, Tuple[type, ...]] = {
    "run_dir": (str,),
    "checkpoint": (int, type(None)),
    "round_index": (int, type(None)),
    "generation": (int, type(None)),
    "fallback": (bool,),
    "from_scratch": (bool,),
    "checkpoints_skipped": (list,),
    "journal": (dict, type(None)),
}

#: keys of the journal replay provenance (``JournalScan.provenance()``)
JOURNAL_PROVENANCE_KEYS: Tuple[str, ...] = (
    "records_replayed",
    "records_discarded",
    "bytes_discarded",
    "commit",
)


def validate_resume_payload(payload: Dict[str, Any]) -> None:
    """Assert a ``repro resume --json`` payload matches its schema.

    ``payload`` is the whole resume JSON object; its ``resumed`` block
    (recovery provenance: which checkpoint generation restored, what
    the fallback ladder skipped, journal replay stats) is held to
    :data:`RESUME_PAYLOAD_SCHEMA` exactly, and its ``result`` block to
    :func:`validate_run_result`.  Raises ``ValueError`` naming the
    first violation.
    """
    resumed = payload.get("resumed")
    if not isinstance(resumed, dict):
        raise ValueError("resume payload missing the 'resumed' block")
    missing = sorted(set(RESUME_PAYLOAD_SCHEMA) - set(resumed))
    if missing:
        raise ValueError(f"resumed block missing keys: {missing}")
    extra = sorted(set(resumed) - set(RESUME_PAYLOAD_SCHEMA))
    if extra:
        raise ValueError(f"resumed block has unexpected keys: {extra}")
    for key, types in RESUME_PAYLOAD_SCHEMA.items():
        if not isinstance(resumed[key], types):
            raise ValueError(
                f"resumed[{key!r}] should be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(resumed[key]).__name__}"
            )
    for entry in resumed["checkpoints_skipped"]:
        if not isinstance(entry, dict) or not isinstance(
            entry.get("seq"), int
        ):
            raise ValueError(
                "resumed['checkpoints_skipped'] entries must be dicts "
                "with an int 'seq'"
            )
    journal = resumed["journal"]
    if journal is not None:
        for key in JOURNAL_PROVENANCE_KEYS:
            if not isinstance(journal.get(key), int):
                raise ValueError(
                    f"resumed['journal'][{key!r}] should be int, "
                    f"got {type(journal.get(key)).__name__}"
                )
    if resumed["fallback"] and not resumed["checkpoints_skipped"]:
        raise ValueError(
            "resumed claims fallback but skipped no checkpoints"
        )
    result = payload.get("result")
    if not isinstance(result, dict):
        raise ValueError("resume payload missing the 'result' block")
    validate_run_result(result)


# ----------------------------------------------------------------------
# Typed engine options
# ----------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Render one option value into something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    if callable(value):
        return getattr(value, "__name__", repr(value))
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def _type_ok(code: str, value: Any) -> bool:
    """Check a value against a :data:`EngineOptions._FIELD_TYPES` code.

    Codes: ``int``/``float``/``bool``/``str``/``path``/``callable``/
    ``any``; a trailing ``?`` allows None.  ``bool`` is not an ``int``
    here (a ``--workers True`` typo must not pass), and ``float``
    accepts ints.
    """
    if code.endswith("?"):
        if value is None:
            return True
        code = code[:-1]
    elif value is None:
        return False
    if code == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if code == "float":
        return isinstance(value, (int, float)) and not isinstance(
            value, bool
        )
    if code == "bool":
        return isinstance(value, bool)
    if code == "str":
        return isinstance(value, str)
    if code == "path":
        return isinstance(value, (str, os.PathLike))
    if code == "callable":
        return callable(value)
    if code == "any":
        return True
    raise AssertionError(f"unknown option type code {code!r}")


@dataclass(frozen=True)
class EngineOptions:
    """Base class for per-engine typed option sets.

    Each engine registers a frozen subclass on its :class:`EngineSpec`;
    :func:`build_engine` routes every ``config`` argument through
    :meth:`coerce`, so dict input (CLI flags, stored run manifests)
    keeps working while unknown keys and mistyped values fail with the
    same typed errors regardless of how the options arrived.  Field
    types are declared as string codes in ``_FIELD_TYPES`` (see
    :func:`_type_ok`); subclasses override :meth:`validate` for
    cross-field and choice constraints.
    """

    #: field name -> type code; subclasses must cover every field
    _FIELD_TYPES: ClassVar[Dict[str, str]] = {}

    @classmethod
    def coerce(cls, engine: str, config: Any) -> "EngineOptions":
        """Build validated options from None, a mapping, or an instance."""
        if config is None:
            options = cls()
        elif isinstance(config, cls):
            options = config
        elif isinstance(config, EngineOptions):
            raise ReproError(
                f"engine {engine!r} takes {cls.__name__}, "
                f"got {type(config).__name__}"
            )
        elif isinstance(config, Mapping):
            mapping = dict(config)
            known = {f.name for f in dataclass_fields(cls)}
            unknown = sorted(set(mapping) - known)
            if unknown:
                raise ReproError(
                    f"engine {engine!r} does not accept option(s) "
                    f"{', '.join(unknown)}"
                )
            options = cls(**mapping)
        else:
            raise ReproError(
                f"engine {engine!r} options must be a mapping or "
                f"{cls.__name__}, got {type(config).__name__}"
            )
        options._check_types(engine)
        options.validate(engine)
        return options

    def _check_types(self, engine: str) -> None:
        for spec in dataclass_fields(self):
            code = self._FIELD_TYPES[spec.name]
            value = getattr(self, spec.name)
            if not _type_ok(code, value):
                raise ReproError(
                    f"engine {engine!r} option {spec.name!r} should be "
                    f"{code}, got {type(value).__name__} ({value!r})"
                )

    def validate(self, engine: str) -> None:
        """Cross-field / choice constraints; subclasses override."""

    def to_json(self) -> Dict[str, Any]:
        """The resolved options as JSON-safe key/value pairs."""
        return {
            spec.name: _json_safe(getattr(self, spec.name))
            for spec in dataclass_fields(self)
        }


@dataclass(frozen=True)
class FunctionalOptions(EngineOptions):
    num_bins: int = 64
    block_size: int = 128
    track_lookahead: bool = False
    global_threshold: Optional[float] = None
    max_rounds: int = 100_000
    scheduling: str = "round-robin"

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "num_bins": "int",
        "block_size": "int",
        "track_lookahead": "bool",
        "global_threshold": "float?",
        "max_rounds": "int",
        "scheduling": "str",
    }


@dataclass(frozen=True)
class CycleOptions(EngineOptions):
    #: an AcceleratorConfig, or None for the paper's defaults
    config: Any = None
    global_threshold: Optional[float] = None
    max_rounds: int = 10_000

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "config": "any?",
        "global_threshold": "float?",
        "max_rounds": "int",
    }


@dataclass(frozen=True)
class SlicedOptions(EngineOptions):
    """Options of the in-process and multi-process sliced engines.

    ``dispatch`` has one legal value, ``"barrier"``: the barrier slice
    schedule is the only one.  The field remains so that callers and
    saved configurations that name the schedule explicitly (the
    benchmark's ``pagerank-sliced`` workload among them) keep building.
    """

    num_slices: int = 1
    queue_capacity: Optional[int] = None
    auto_slice: bool = True
    partition_fn: Callable = contiguous_partition
    dispatch: str = "barrier"
    num_bins: int = 64
    block_size: int = 128
    max_passes: int = 10_000
    rounds_per_activation: Optional[int] = None

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "num_slices": "int",
        "queue_capacity": "int?",
        "auto_slice": "bool",
        "partition_fn": "callable",
        "dispatch": "str",
        "num_bins": "int",
        "block_size": "int",
        "max_passes": "int",
        "rounds_per_activation": "int?",
    }

    def validate(self, engine: str) -> None:
        if self.dispatch == "chained":
            raise ReproError(
                f"engine {engine!r} option 'dispatch': the 'chained' "
                f"schedule was retired; 'barrier' is the only one"
            )
        if self.dispatch != "barrier":
            raise ReproError(
                f"engine {engine!r} option 'dispatch' must be 'barrier'; "
                f"got {self.dispatch!r}"
            )


@dataclass(frozen=True)
class SlicedMpOptions(SlicedOptions):
    num_workers: int = 2
    lease_dir: Optional[Any] = None
    lease_timeout: Optional[float] = None
    max_recoveries: int = 8

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        **SlicedOptions._FIELD_TYPES,
        "num_workers": "int",
        "lease_dir": "path?",
        "lease_timeout": "float?",
        "max_recoveries": "int",
    }

    def validate(self, engine: str) -> None:
        super().validate(engine)
        if self.num_workers < 1:
            raise ReproError(
                f"engine {engine!r} option 'num_workers' must be >= 1, "
                f"got {self.num_workers}"
            )


@dataclass(frozen=True)
class SlicedHostsOptions(EngineOptions):
    """Options of the cross-host engine.  Step ``k`` is slice
    ``k % N`` of pass ``k // N``, claimed one at a time over the shared
    substrate, under the same barrier schedule as ``sliced``; there is
    no schedule to choose, so no ``dispatch`` field."""

    hosts_dir: Optional[Any] = None
    host_id: Optional[str] = None
    num_slices: int = 1
    queue_capacity: Optional[int] = None
    auto_slice: bool = True
    partition_fn: Callable = contiguous_partition
    lease_timeout: Optional[float] = None
    poll_interval: float = 0.05
    num_bins: int = 64
    block_size: int = 128
    max_passes: int = 10_000
    rounds_per_activation: Optional[int] = None

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "hosts_dir": "path?",
        "host_id": "str?",
        "num_slices": "int",
        "queue_capacity": "int?",
        "auto_slice": "bool",
        "partition_fn": "callable",
        "lease_timeout": "float?",
        "poll_interval": "float",
        "num_bins": "int",
        "block_size": "int",
        "max_passes": "int",
        "rounds_per_activation": "int?",
    }


@dataclass(frozen=True)
class ParallelSlicedOptions(EngineOptions):
    """Options of the ``parallel-sliced`` preset: the sliced engine with
    barrier dispatch and one round per activation, so the schedule
    fields of :class:`SlicedOptions` are fixed rather than options."""

    num_slices: int = 2
    partition_fn: Callable = contiguous_partition
    num_bins: int = 64
    block_size: int = 128
    max_passes: int = 100_000

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "num_slices": "int",
        "partition_fn": "callable",
        "num_bins": "int",
        "block_size": "int",
        "max_passes": "int",
    }


@dataclass(frozen=True)
class BspOptions(EngineOptions):
    max_iterations: int = 100_000

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {"max_iterations": "int"}


@dataclass(frozen=True)
class LigraOptions(EngineOptions):
    cpu_config: Any = None
    random_footprint_bytes: Optional[int] = None
    max_iterations: int = 100_000

    _FIELD_TYPES: ClassVar[Dict[str, str]] = {
        "cpu_config": "any?",
        "random_footprint_bytes": "int?",
        "max_iterations": "int",
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class Engine(Protocol):
    """What ``build_engine`` returns."""

    name: str
    runner: Any

    def run(self) -> RunResult: ...

    def restore(self, restored: Any) -> None: ...


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry."""

    name: str
    build: Callable[..., Any]
    summarize: Callable[[Any], RunResult]
    resilient: bool = False
    resumable: bool = False
    description: str = ""
    #: the engine's typed option dataclass; ``build_engine`` coerces
    #: every ``config`` argument through ``options.coerce``
    options: Type[EngineOptions] = EngineOptions


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    build: Callable[..., Any],
    summarize: Callable[[Any], RunResult],
    *,
    resilient: bool = False,
    resumable: bool = False,
    description: str = "",
    options: Type[EngineOptions] = EngineOptions,
) -> None:
    """Add an engine to the registry (last registration wins)."""
    _REGISTRY[name] = EngineSpec(
        name=name,
        build=build,
        summarize=summarize,
        resilient=resilient,
        resumable=resumable,
        description=description,
        options=options,
    )


def engine_names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def resilient_engine_names() -> Tuple[str, ...]:
    return tuple(s.name for s in _REGISTRY.values() if s.resilient)


def resumable_engine_names() -> Tuple[str, ...]:
    return tuple(s.name for s in _REGISTRY.values() if s.resumable)


def engine_spec(name: str) -> EngineSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(_REGISTRY)}"
        ) from None


class EngineHandle:
    """Concrete :class:`Engine`: a built runner plus its summarizer."""

    def __init__(
        self,
        name: str,
        runner: Any,
        summarize: Callable[[Any], RunResult],
        options: Optional[EngineOptions] = None,
    ):
        self.name = name
        self.runner = runner
        self.options = options
        self._summarize = summarize

    def restore(self, restored: Any) -> None:
        """Adopt a durable checkpoint (resumable engines only)."""
        self.runner.restore(restored)

    def run(self) -> RunResult:
        result = self._summarize(self.runner.run())
        result.trace = obs_trace.ACTIVE
        result.options = self.options
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"EngineHandle({self.name!r}, {self.runner!r})"


def build_engine(
    name: str,
    workload: Tuple[Any, Any],
    config: Optional[Any] = None,
    *,
    resilience: Optional[Any] = None,
    timeseries: Optional[Any] = None,
) -> EngineHandle:
    """Construct a registered engine (the single construction path).

    ``workload`` is ``(graph, spec)``; ``config`` is the engine's
    :class:`EngineOptions` instance or a mapping coerced into one
    (unknown keys and mistyped values raise
    :class:`repro.errors.ReproError`).  ``resilience`` is a
    :class:`repro.resilience.ResilienceConfig` and is refused by
    engines not registered as resilient.
    """
    entry = engine_spec(name)
    graph, spec = workload
    if resilience is not None and not entry.resilient:
        raise ReproError(
            f"engine {name!r} does not support resilience; choose one of: "
            f"{', '.join(resilient_engine_names())}"
        )
    options = entry.options.coerce(name, config)
    runner = entry.build(
        graph, spec, options, resilience=resilience, timeseries=timeseries
    )
    return EngineHandle(name, runner, entry.summarize, options)


# ----------------------------------------------------------------------
# Built-in engines
# ----------------------------------------------------------------------


def _build_functional(graph, spec, options, *, resilience, timeseries):
    from .functional import FunctionalGraphPulse

    return FunctionalGraphPulse(
        graph,
        spec,
        timeseries=timeseries,
        resilience=resilience,
        num_bins=options.num_bins,
        block_size=options.block_size,
        track_lookahead=options.track_lookahead,
        global_threshold=options.global_threshold,
        max_rounds=options.max_rounds,
        scheduling=options.scheduling,
    )


def _summarize_functional(result) -> RunResult:
    return RunResult(
        engine="functional",
        values=result.values,
        converged=result.converged,
        rounds=result.num_rounds,
        passes=None,
        stats={
            "events_processed": result.total_events_processed,
            "events_produced": result.total_events_produced,
            "coalesce_rate": result.coalesce_rate(),
        },
        resilience=result.resilience,
        raw=result,
    )


def _build_cycle(graph, spec, options, *, resilience, timeseries):
    from .accelerator import GraphPulseAccelerator

    return GraphPulseAccelerator(
        graph,
        spec,
        options.config,
        timeseries=timeseries,
        resilience=resilience,
        global_threshold=options.global_threshold,
        max_rounds=options.max_rounds,
    )


def _summarize_cycle(result) -> RunResult:
    return RunResult(
        engine="cycle",
        values=result.values,
        converged=result.converged,
        rounds=result.num_rounds,
        passes=None,
        stats={
            "cycles": result.total_cycles,
            "seconds": result.seconds,
            "events_processed": result.events_processed,
            "events_produced": result.events_produced,
            "offchip_bytes": result.offchip_bytes,
            "data_utilization": result.data_utilization(),
        },
        resilience=result.resilience,
        raw=result,
    )


def _sliced_stats(result) -> Dict[str, Any]:
    return {
        "events_processed": result.events_processed,
        "spill_bytes": result.total_spill_bytes,
        "spill_overhead": result.spill_overhead(),
        "messages": result.messages,
        "load_balance": result.load_balance(),
    }


def _build_sliced(graph, spec, options, *, resilience, timeseries):
    from .slicing import build_sliced

    return build_sliced(
        graph,
        spec,
        resilience=resilience,
        num_slices=options.num_slices,
        queue_capacity=options.queue_capacity,
        auto_slice=options.auto_slice,
        partition_fn=options.partition_fn,
        num_bins=options.num_bins,
        block_size=options.block_size,
        max_passes=options.max_passes,
        rounds_per_activation=options.rounds_per_activation,
    )


def _summarize_sliced(result, engine: str = "sliced") -> RunResult:
    return RunResult(
        engine=engine,
        values=result.values,
        converged=result.converged,
        rounds=result.total_rounds,
        passes=result.num_passes,
        stats=_sliced_stats(result),
        resilience=result.resilience,
        raw=result,
    )


def _build_sliced_mp(graph, spec, options, *, resilience, timeseries):
    from ..resilience.lease import DEFAULT_LEASE_TIMEOUT
    from .mpsliced import MultiprocessSlicedGraphPulse
    from .slicing import resolve_partition

    partition = resolve_partition(
        graph,
        num_slices=options.num_slices,
        queue_capacity=options.queue_capacity,
        auto_slice=options.auto_slice,
        partition_fn=options.partition_fn,
    )
    lease_timeout = (
        DEFAULT_LEASE_TIMEOUT
        if options.lease_timeout is None
        else options.lease_timeout
    )
    return MultiprocessSlicedGraphPulse(
        partition,
        spec,
        resilience=resilience,
        num_workers=options.num_workers,
        lease_dir=options.lease_dir,
        lease_timeout=lease_timeout,
        max_recoveries=options.max_recoveries,
        queue_capacity=options.queue_capacity,
        num_bins=options.num_bins,
        block_size=options.block_size,
        max_passes=options.max_passes,
        rounds_per_activation=options.rounds_per_activation,
    )


def _summarize_sliced_mp(result) -> RunResult:
    summary = _summarize_sliced(result, "sliced-mp")
    summary.stats["workers"] = result.num_workers
    summary.stats["recoveries"] = result.recoveries
    summary.stats["worker_stats"] = [dict(w) for w in result.worker_stats]
    summary.stats["max_inflight"] = result.max_inflight
    return summary


def _build_sliced_hosts(graph, spec, options, *, resilience, timeseries):
    from .hostsliced import HostSlicedGraphPulse
    from .slicing import resolve_partition

    partition = resolve_partition(
        graph,
        num_slices=options.num_slices,
        queue_capacity=options.queue_capacity,
        auto_slice=options.auto_slice,
        partition_fn=options.partition_fn,
    )
    return HostSlicedGraphPulse(
        partition,
        spec,
        hosts_dir=options.hosts_dir,
        host_id=options.host_id,
        lease_timeout=options.lease_timeout,
        poll_interval=options.poll_interval,
        num_bins=options.num_bins,
        block_size=options.block_size,
        max_passes=options.max_passes,
        rounds_per_activation=options.rounds_per_activation,
    )


def _summarize_sliced_hosts(result) -> RunResult:
    return RunResult(
        engine="sliced-hosts",
        values=result.values,
        converged=result.converged,
        rounds=result.total_rounds,
        passes=result.num_passes,
        stats={
            "events_processed": result.events_processed,
            "spill_bytes": result.total_spill_bytes,
            "steps": result.steps_total,
            "steps_executed": result.steps_executed,
            "takeovers": result.takeovers,
            "host": result.host,
        },
        raw=result,
    )


def _build_parallel_sliced(graph, spec, options, *, resilience, timeseries):
    from .slicing import SlicedGraphPulse, resolve_partition

    partition = resolve_partition(
        graph,
        num_slices=options.num_slices,
        partition_fn=options.partition_fn,
    )
    return SlicedGraphPulse(
        partition,
        spec,
        resilience=resilience,
        num_bins=options.num_bins,
        block_size=options.block_size,
        max_passes=options.max_passes,
        rounds_per_activation=1,
        engine_name="parallel-sliced",
    )


def _build_bsp(graph, spec, options, *, resilience, timeseries):
    from ..baselines import SynchronousDeltaEngine

    return SynchronousDeltaEngine(
        graph, spec, max_iterations=options.max_iterations
    )


def _summarize_bsp(result) -> RunResult:
    return RunResult(
        engine="bsp",
        values=result.values,
        converged=result.converged,
        rounds=result.num_iterations,
        passes=None,
        stats={"edges_scanned": result.total_edges_scanned},
        raw=result,
    )


def _build_ligra(graph, spec, options, *, resilience, timeseries):
    from ..baselines import LigraEngine

    return LigraEngine(
        graph,
        spec,
        cpu_config=options.cpu_config,
        random_footprint_bytes=options.random_footprint_bytes,
        max_iterations=options.max_iterations,
    )


def _summarize_ligra(result) -> RunResult:
    return RunResult(
        engine="ligra",
        values=result.values,
        converged=result.converged,
        rounds=result.num_iterations,
        passes=None,
        stats={
            "seconds": result.seconds,
            "pull_fraction": result.pull_fraction,
        },
        raw=result,
    )


register_engine(
    "functional",
    _build_functional,
    _summarize_functional,
    resilient=True,
    resumable=True,
    description="event-model functional engine (coalescing queue)",
    options=FunctionalOptions,
)
register_engine(
    "cycle",
    _build_cycle,
    _summarize_cycle,
    resilient=True,
    resumable=True,
    description="cycle-level accelerator model",
    options=CycleOptions,
)
register_engine(
    "sliced",
    _build_sliced,
    _summarize_sliced,
    resilient=True,
    resumable=True,
    description="sequential large-graph slicing runtime (Sec IV-F)",
    options=SlicedOptions,
)
register_engine(
    "sliced-mp",
    _build_sliced_mp,
    _summarize_sliced_mp,
    resilient=True,
    resumable=True,
    description="concurrent multi-process sliced workers with "
    "per-slice leases",
    options=SlicedMpOptions,
)
# sliced-hosts is deliberately neither resilient nor resumable: the
# shared hosts directory *is* its durable substrate — every step
# journals, publishes a shard and moves the cursor, so any host (or
# all of them) can be SIGKILLed and a fresh host continues from the
# durable state; layering the single-process resilience harness on top
# would double-journal the same spill traffic into a second WAL.
register_engine(
    "sliced-hosts",
    _build_sliced_hosts,
    _summarize_sliced_hosts,
    description="cross-host sliced supervisors over a shared substrate dir",
    options=SlicedHostsOptions,
)
# parallel-sliced is a preset of the sliced engine (barrier dispatch,
# one round per activation; see core/slicing.py)
register_engine(
    "parallel-sliced",
    _build_parallel_sliced,
    functools.partial(_summarize_sliced, engine="parallel-sliced"),
    resilient=True,
    resumable=True,
    description="multi-accelerator model: sliced, one round per "
    "activation (Sec IV-F, option b)",
    options=ParallelSlicedOptions,
)
register_engine(
    "bsp",
    _build_bsp,
    _summarize_bsp,
    description="synchronous delta baseline (BSP)",
    options=BspOptions,
)
register_engine(
    "ligra",
    _build_ligra,
    _summarize_ligra,
    description="direction-optimizing CPU baseline (Ligra model)",
    options=LigraOptions,
)
