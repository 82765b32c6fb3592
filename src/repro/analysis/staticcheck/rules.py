"""The project-specific invariants ``repro lint`` enforces.

Each rule encodes one discipline a prior PR introduced and DESIGN.md
documents in prose; the linter makes it machine-checked:

========  ============================================================
DET-001   no wall-clock reads in deterministic modules (replay safety)
DET-002   no unseeded randomness anywhere (trajectory reproducibility)
DUR-001   no raw write-mode ``open`` — artifacts use ``atomic_open``
ENG-001   engines are constructed only through ``build_engine``
RES-001   no silent exception swallowing in recovery paths
RES-002   IO retry loops in the durability layer carry attempt budgets
OBS-001   no bare ``print()`` outside the CLI (obs layer owns output)
========  ============================================================

The dataflow rules (DET-003, DUR-002, CONC-001, SUB-002) live in
:mod:`.flowrules` — they run CFG/taint analysis instead of call-site
pattern matching — and are appended to the same :data:`RULES`
registry here.

Scopes and allowlists live on the rule classes so ``repro lint
--list-rules`` prints the full contract, exemption rationale included.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from .banned import (
    ENTROPY_EXACT,
    ENTROPY_PREFIXES,
    SEEDED_NUMPY_API,
    WALL_CLOCK_CALLS,
)
from .flowrules import FLOW_RULES
from .framework import Finding, Rule, resolve_call_name

__all__ = ["RULES", "RULES_BY_ID", "rule_ids", "select_rules"]


# ----------------------------------------------------------------------
# DET-001: no wall clock in deterministic modules
# ----------------------------------------------------------------------


class WallClockRule(Rule):
    """Deterministic modules must not read the wall clock.

    Crash-resume, journal replay and the sliced-mp recovery path all
    assume a run's trajectory is a pure function of (graph, algorithm,
    seed): any wall-clock read that feeds state makes replay diverge.
    """

    id = "DET-001"
    severity = "error"
    description = (
        "no wall-clock reads (time.time/monotonic/perf_counter, "
        "datetime.now) in deterministic modules"
    )
    hint = (
        "derive time from engine cycles/rounds; if the value is "
        "telemetry-only and never feeds state, suppress with "
        "'# repro: allow(DET-001)' and say why"
    )
    scope = (
        "*/core/*.py",
        "*/algorithms/*.py",
        "*/resilience/*.py",
        "*/obs/*.py",
    )
    allowlist = {
        "*/resilience/lease.py": (
            "lease heartbeats and staleness checks are operational "
            "liveness against real elapsed time; lease state is never "
            "part of the replayed trajectory"
        ),
        "*/obs/bench.py": (
            "the bench harness is the one sanctioned wall-clock "
            "consumer: it times complete engine runs from outside to "
            "report events/sec, and nothing it measures ever feeds "
            "back into engine state or the replayed trajectory"
        ),
    }
    fixture_path = "repro/core/fixture.py"
    fixture_trigger = (
        "import time\n"
        "\n"
        "def round_stamp():\n"
        "    return time.time()\n"
    )
    fixture_clean = (
        "def round_stamp(engine):\n"
        "    return engine.total_cycles\n"
    )

    _BANNED = WALL_CLOCK_CALLS

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, imports)
            if name in self._BANNED:
                yield self.finding(
                    path,
                    node,
                    f"wall-clock read {name}() in a deterministic module",
                )


# ----------------------------------------------------------------------
# DET-002: no unseeded randomness
# ----------------------------------------------------------------------


class UnseededRandomRule(Rule):
    """Every random draw must come from an explicitly seeded Generator.

    Graph generators, fault plans and adsorption's injection vector are
    all reproducible because they thread ``numpy.random.default_rng(
    seed)`` instances; stdlib ``random``, ``os.urandom`` and numpy's
    legacy global-state API would silently break bit-identity.
    """

    id = "DET-002"
    severity = "error"
    description = (
        "no unseeded randomness (random.*, os.urandom, legacy "
        "numpy.random.*, default_rng() without a seed)"
    )
    hint = (
        "thread a seeded generator: rng = numpy.random.default_rng(seed)"
    )
    scope = ("*",)
    allowlist = {
        "*/resilience/faults.py": (
            "fault injection owns the seeded RNG plumbing; its "
            "generators all derive from FaultPlan.seed"
        ),
    }
    fixture_path = "repro/graph/fixture.py"
    fixture_trigger = (
        "import numpy as np\n"
        "\n"
        "def jitter(n):\n"
        "    return np.random.rand(n)\n"
    )
    fixture_clean = (
        "import numpy as np\n"
        "\n"
        "def jitter(n, seed):\n"
        "    return np.random.default_rng(seed).random(n)\n"
    )

    #: constructors of the seeded Generator API — the sanctioned path
    _SEEDED_API = SEEDED_NUMPY_API
    _BANNED_EXACT = ENTROPY_EXACT
    _BANNED_PREFIXES = ENTROPY_PREFIXES

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, imports)
            if name is None:
                continue
            if name in self._BANNED_EXACT or name.startswith(
                self._BANNED_PREFIXES
            ):
                yield self.finding(
                    path, node, f"non-deterministic entropy source {name}()"
                )
            elif name.startswith("numpy.random."):
                tail = name.rsplit(".", 1)[1]
                if tail not in self._SEEDED_API:
                    yield self.finding(
                        path,
                        node,
                        f"legacy global-state RNG {name}() is unseeded "
                        f"shared state",
                    )
                elif tail == "default_rng" and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        path,
                        node,
                        "default_rng() without a seed draws OS entropy",
                    )


# ----------------------------------------------------------------------
# DUR-001: all writes are atomic
# ----------------------------------------------------------------------


class RawWriteRule(Rule):
    """Persisted artifacts must go through ``repro.ioutil``.

    A bare ``open(path, "w")`` truncates in place: a crash between
    truncate and close leaves a torn file that checkpoint readers,
    trace viewers and the resume path would then trust.  The atomic
    helpers write a temp file, fsync, and ``os.replace``.
    """

    id = "DUR-001"
    severity = "error"
    description = (
        "no raw write-mode open()/Path.write_* — use "
        "repro.ioutil.atomic_open so readers never see torn files"
    )
    hint = (
        "use repro.ioutil.atomic_open(path, mode) / atomic_write_text "
        "/ atomic_write_bytes"
    )
    scope = ("*",)
    allowlist = {
        "*/ioutil.py": "the atomic-write implementation itself",
        "*/resilience/journal.py": (
            "the write-ahead journal appends records with its own "
            "fsynced commit discipline; atomic whole-file replacement "
            "would defeat the append-only format"
        ),
        "*/resilience/storagefaults.py": (
            "the chaos layer corrupts files on purpose: torn writes "
            "and bit rot require in-place r+b/ab access to the very "
            "artifacts the atomic helpers protect"
        ),
    }
    fixture_path = "repro/obs/fixture.py"
    fixture_trigger = (
        "def save(path, payload):\n"
        "    with open(path, \"w\") as handle:\n"
        "        handle.write(payload)\n"
    )
    fixture_clean = (
        "from repro.ioutil import atomic_open\n"
        "\n"
        "def save(path, payload):\n"
        "    with atomic_open(path) as handle:\n"
        "        handle.write(payload)\n"
    )

    _WRITE_MARKS = ("w", "a", "x", "+")

    def _mode_of(self, node: ast.Call, position: int):
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return keyword.value
        if len(node.args) > position:
            return node.args[position]
        return None

    def _is_write_mode(self, mode) -> bool:
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(mark in mode.value for mark in self._WRITE_MARKS)
        )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and imports.get(
                func.id, func.id
            ) in ("open", "io.open"):
                mode = self._mode_of(node, position=1)
                if self._is_write_mode(mode):
                    yield self.finding(
                        path,
                        node,
                        f"non-atomic write open(..., {mode.value!r})",
                    )
            elif isinstance(func, ast.Attribute):
                if func.attr == "open":
                    mode = self._mode_of(node, position=0)
                    if self._is_write_mode(mode):
                        yield self.finding(
                            path,
                            node,
                            f"non-atomic write .open({mode.value!r})",
                        )
                elif func.attr in ("write_text", "write_bytes"):
                    yield self.finding(
                        path,
                        node,
                        f"non-atomic write .{func.attr}(...) truncates "
                        f"in place",
                    )


# ----------------------------------------------------------------------
# ENG-001: engines are built through the registry
# ----------------------------------------------------------------------


class EngineRegistryRule(Rule):
    """Engine construction goes through ``repro.core.build_engine``.

    The registry validates options strictly, gates resilience support,
    and returns the unified :class:`RunResult`; a direct constructor
    call grows a third copy of that logic and silently skips the
    checks (the exact per-engine ``if`` ladders PR 4 deleted).
    Calls to a class *defined in the same module* are exempt — that is
    where factories like ``build_sliced`` legitimately live.
    """

    id = "ENG-001"
    severity = "error"
    description = (
        "no direct engine-constructor calls outside core/engines.py — "
        "use build_engine(name, (graph, spec), options)"
    )
    hint = (
        "construct through repro.core.build_engine; register new "
        "engines with repro.core.engines.register_engine"
    )
    scope = ("*",)
    allowlist = {
        "*/core/engines.py": "the registry is the construction path",
        "*/tests/*": "tests exercise engine internals directly",
    }
    fixture_path = "repro/analysis/fixture.py"
    fixture_trigger = (
        "from repro.core.functional import FunctionalGraphPulse\n"
        "\n"
        "def run(graph, spec):\n"
        "    return FunctionalGraphPulse(graph, spec).run()\n"
    )
    fixture_clean = (
        "from repro.core import build_engine\n"
        "\n"
        "def run(graph, spec):\n"
        "    return build_engine(\"functional\", (graph, spec), {}).run()\n"
    )

    #: every class the build_engine registry constructs
    _ENGINE_CLASSES = frozenset(
        {
            "FunctionalGraphPulse",
            "GraphPulseAccelerator",
            "SlicedGraphPulse",
            "MultiprocessSlicedGraphPulse",
            "HostSlicedGraphPulse",
            "SynchronousDeltaEngine",
            "LigraEngine",
        }
    )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        local_classes = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                tail = func.id
            elif isinstance(func, ast.Attribute):
                tail = func.attr
            else:
                continue
            if tail in self._ENGINE_CLASSES and tail not in local_classes:
                yield self.finding(
                    path,
                    node,
                    f"direct engine construction {tail}(...) bypasses "
                    f"the build_engine registry",
                )


# ----------------------------------------------------------------------
# RES-001: recovery paths never swallow errors silently
# ----------------------------------------------------------------------


class SilentExceptRule(Rule):
    """Recovery code must not discard exceptions it cannot classify.

    A bare ``except:`` (which also traps KeyboardInterrupt/SystemExit)
    or an ``except Exception: pass`` in the resilience layer turns an
    unrecoverable fault into silent corruption — exactly the failure
    mode the typed :class:`repro.errors.ReproError` hierarchy exists
    to surface.
    """

    id = "RES-001"
    severity = "error"
    description = (
        "no bare 'except:' or silent 'except Exception: pass' in "
        "recovery paths"
    )
    hint = (
        "catch the specific error type, or record/re-raise it "
        "(contextlib.suppress(SpecificError) for deliberate ignores)"
    )
    scope = ("*/resilience/*.py", "*/core/mpsliced.py")
    allowlist: Dict[str, str] = {}
    fixture_path = "repro/resilience/fixture.py"
    fixture_trigger = (
        "def recover(step):\n"
        "    try:\n"
        "        step()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    fixture_clean = (
        "def recover(step, log):\n"
        "    try:\n"
        "        step()\n"
        "    except OSError as exc:\n"
        "        log(exc)\n"
        "        raise\n"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def _catches_broad(self, handler: ast.ExceptHandler) -> bool:
        kinds = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for kind in kinds:
            if isinstance(kind, ast.Name) and kind.id in self._BROAD:
                return True
            if isinstance(kind, ast.Attribute) and kind.attr in self._BROAD:
                return True
        return False

    def _is_silent(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or bare ... literal
            return False
        return True

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path,
                    node,
                    "bare 'except:' traps KeyboardInterrupt/SystemExit "
                    "and hides unrecoverable faults",
                )
            elif self._catches_broad(node) and self._is_silent(node):
                yield self.finding(
                    path,
                    node,
                    "'except Exception: pass' silently swallows errors "
                    "in a recovery path",
                )


# ----------------------------------------------------------------------
# RES-002: IO retry loops are bounded
# ----------------------------------------------------------------------


class UnboundedRetryRule(Rule):
    """IO retries in the durability layer must carry an attempt budget.

    A ``while True`` wrapped around an IO operation that catches
    ``OSError`` and loops again turns a persistent storage failure
    (a full disk, a dead device) into a silent hang: the engine stops
    making progress, the lease keeps refreshing, and nothing ever
    reaches the typed-error exit.  Retries use the bounded idiom —
    ``retry_transient`` or an explicit ``for attempt in range(n)``
    that re-raises at exhaustion.
    """

    id = "RES-002"
    severity = "error"
    description = (
        "no unbounded 'while True' IO retry loops in the durability "
        "layer — bound attempts and re-raise at exhaustion"
    )
    hint = (
        "use repro.resilience.storagefaults.retry_transient, or "
        "'for attempt in range(n)' with a final re-raise"
    )
    scope = ("*/resilience/*.py", "*/ioutil.py")
    allowlist: Dict[str, str] = {}
    fixture_path = "repro/resilience/retry_fixture.py"
    fixture_trigger = (
        "def persist(write):\n"
        "    while True:\n"
        "        try:\n"
        "            return write()\n"
        "        except OSError:\n"
        "            continue\n"
    )
    fixture_clean = (
        "def persist(write, attempts=5):\n"
        "    for attempt in range(attempts):\n"
        "        try:\n"
        "            return write()\n"
        "        except OSError:\n"
        "            if attempt == attempts - 1:\n"
        "                raise\n"
    )

    #: OSError and its notable subclasses/aliases — catching any of
    #: these around a looping retry is the hang-prone pattern
    _IO_ERRORS = frozenset(
        {
            "OSError",
            "IOError",
            "EnvironmentError",
            "BlockingIOError",
            "InterruptedError",
            "TimeoutError",
            "FileExistsError",
            "FileNotFoundError",
            "PermissionError",
            "ConnectionError",
            "BrokenPipeError",
        }
    )

    def _is_constant_true(self, test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _catches_io_error(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # bare except traps OSError too
        kinds = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for kind in kinds:
            if isinstance(kind, ast.Name) and kind.id in self._IO_ERRORS:
                return True
            if (
                isinstance(kind, ast.Attribute)
                and kind.attr in self._IO_ERRORS
            ):
                return True
        return False

    def _handler_escapes(self, handler: ast.ExceptHandler) -> bool:
        """A handler that raises/returns/breaks at its top level bounds
        the loop's failure path."""
        return any(
            isinstance(stmt, (ast.Raise, ast.Return, ast.Break))
            for stmt in handler.body
        )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            if not self._is_constant_true(node.test):
                continue
            for child in ast.walk(node):
                if not isinstance(child, ast.Try):
                    continue
                for handler in child.handlers:
                    if self._catches_io_error(
                        handler
                    ) and not self._handler_escapes(handler):
                        yield self.finding(
                            path,
                            node,
                            "unbounded 'while True' retry around an IO "
                            "operation never reaches the typed-error "
                            "exit on persistent failure",
                        )
                        break
                else:
                    continue
                break


# ----------------------------------------------------------------------
# OBS-001: diagnostics go through the obs layer, not print()
# ----------------------------------------------------------------------


class BarePrintRule(Rule):
    """Library code must not write to stdout with bare ``print()``.

    Engines and substrates run under ``--json`` (where stdout *is* the
    machine-readable payload), inside forked sliced-mp workers, and in
    CI smoke jobs that parse stdout; a stray ``print`` corrupts all
    three.  Progress and diagnostics belong to the observability layer
    (:mod:`repro.obs.metrics` heartbeats, trace probes) or, for
    human-facing command output, to the CLI.
    """

    id = "OBS-001"
    severity = "error"
    description = (
        "no bare print() outside the CLI — progress and diagnostics "
        "go through the obs/metrics layer"
    )
    hint = (
        "emit through repro.obs (metrics counters, ProgressReporter, "
        "trace probes) or return the text to the CLI, which owns stdout"
    )
    scope = ("*",)
    allowlist = {
        "*/cli.py": (
            "the CLI is the process's human-output boundary: its "
            "print calls are the product, and its --json mode already "
            "routes them away from stdout"
        ),
        "*/tests/*": "test diagnostics may print freely",
        "*/benchmarks/*": (
            "the figure scripts are standalone report generators "
            "whose printed tables are their output"
        ),
        "*/examples/*": "examples print to teach",
    }
    fixture_path = "repro/obs/print_fixture.py"
    fixture_trigger = (
        "def report(processed):\n"
        "    print(f\"{processed} events drained\")\n"
    )
    fixture_clean = (
        "from repro.obs import metrics\n"
        "\n"
        "def report(processed):\n"
        "    if metrics.ACTIVE is not None:\n"
        "        metrics.ACTIVE.counter(\"events_drained\").inc(processed)\n"
    )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[object] = None,
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, imports)
            if name in ("print", "builtins.print"):
                yield self.finding(
                    path,
                    node,
                    "bare print() writes to stdout from library code",
                )


#: the registry, in stable reporting order — the syntactic set first,
#: then the dataflow set from :mod:`.flowrules`
RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    RawWriteRule(),
    EngineRegistryRule(),
    BarePrintRule(),
    SilentExceptRule(),
    UnboundedRetryRule(),
) + FLOW_RULES

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}


def rule_ids() -> Tuple[str, ...]:
    return tuple(RULES_BY_ID)


def select_rules(
    select: Tuple[str, ...] = (), ignore: Tuple[str, ...] = ()
) -> Tuple[Rule, ...]:
    """Filter the registry by explicit include/exclude id lists.

    Unknown ids raise :class:`ValueError` naming the offender — a typo
    in a CI invocation must fail loudly, not lint nothing.
    """
    unknown = sorted((set(select) | set(ignore)) - set(RULES_BY_ID))
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"known rules: {', '.join(RULES_BY_ID)}"
        )
    chosen = [
        rule
        for rule in RULES
        if (not select or rule.id in select) and rule.id not in ignore
    ]
    return tuple(chosen)
