"""The dataflow-powered rules: DET-003, DUR-002, CONC-001, SUB-002.

Where :mod:`.rules` pattern-matches individual call sites, these rules
run the :mod:`.cfg`/:mod:`.dataflow` engines and the
:mod:`.callgraph` project view, so they see *flows*:

========  ============================================================
DET-003   wall-clock/entropy values must not flow into committed state
          in deterministic modules — even laundered through helper
          functions (taint analysis + interprocedural summaries)
DUR-002   durable publish sequences keep their order on every path
          (journal→shard→cursor in sliced-hosts; fsync before
          os.replace) and no early exit abandons a partial publish
CONC-001  worker replies in sliced-mp are fence-compared (epoch,
          attempt) before being applied, and worker-executed functions
          never mutate module-level state
SUB-002   substrate code never reaches raw file IO except through
          repro.ioutil / retry_transient — checked transitively over
          the call graph
========  ============================================================

Each rule plugs into the same :class:`..framework.Rule` machinery as
the syntactic set: scoped paths, auditable allowlists, inline
``# repro: allow`` suppression, and paired self-check fixtures.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .banned import WALL_CLOCK_CALLS, is_entropy_source
from .callgraph import FunctionInfo, ModuleInfo, ProjectContext
from .cfg import build_cfg, iter_function_defs
from .dataflow import (
    EMPTY,
    ProtocolAnalysis,
    ProtocolSpec,
    TaintAnalysis,
    TaintPolicy,
    TaintState,
    Tags,
    expr_names,
)
from .framework import Finding, Rule, match_path, resolve_call_name

__all__ = [
    "FLOW_RULES",
    "TaintedStateRule",
    "PublishOrderRule",
    "WorkerFenceRule",
    "SubstrateEscapeRule",
]


# ----------------------------------------------------------------------
# DET-003: taint — no wall-clock/entropy values in committed state
# ----------------------------------------------------------------------


def _det003_sources(call: ast.Call, module: ModuleInfo) -> Tags:
    """Direct taint sources: the DET-001/DET-002 banned entry points."""
    name = resolve_call_name(call.func, module.imports)
    if name is None:
        return EMPTY
    if name in WALL_CLOCK_CALLS:
        return frozenset({("wall", name)})
    if is_entropy_source(name, call):
        return frozenset({("entropy", name)})
    return EMPTY


class _Det003Policy(TaintPolicy):
    """Record attribute/subscript stores of wall/entropy-tainted values."""

    def __init__(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        enclosing_class: Optional[str],
        summaries,
    ):
        self.project = project
        self.module = module
        self.enclosing_class = enclosing_class
        self.summaries = summaries
        self.sinks: List[Tuple[ast.stmt, ast.expr, Tags]] = []
        self._seen: Set[int] = set()

    def call_tags(self, node: ast.Call, arg_tags: Tags,
                  state: TaintState) -> Tags:
        return self.project.call_return_tags(
            node, arg_tags, self.module, self.enclosing_class,
            self.summaries, _det003_sources)

    def store(self, target: ast.expr, tags: Tags, state: TaintState,
              stmt: ast.stmt) -> None:
        bad = frozenset(t for t in tags if t[0] in ("wall", "entropy"))
        if bad and id(stmt) not in self._seen:
            self._seen.add(id(stmt))
            self.sinks.append((stmt, target, bad))


class TaintedStateRule(Rule):
    """Wall-clock/entropy taint must not reach committed state.

    DET-001/002 flag the banned calls themselves; this rule follows the
    *values* — through assignments, tuple unpacks, arithmetic, helper
    calls and returns (interprocedural summaries) — and fires only when
    one lands in an attribute or subscript store, i.e. state that
    outlives the expression.  That catches the laundering the syntactic
    rules cannot (``self.stamp = helpers.now_stamp()``) while staying
    quiet about telemetry-only locals handed to probe calls.
    """

    id = "DET-003"
    severity = "error"
    needs_project = True
    description = (
        "no wall-clock/entropy-derived values flowing into committed "
        "state in deterministic modules (taint analysis, follows "
        "helper calls across modules)"
    )
    hint = (
        "derive the value from engine rounds/cycles or a seeded "
        "generator; if the stored value is genuinely operational "
        "(never replayed), suppress at the store with "
        "'# repro: allow(DET-003)' and say why"
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
            "the bench harness stores wall-clock timings by design: "
            "its artifacts report events/sec and never feed engine "
            "state"
        ),
    }
    fixture_path = "repro/core/taint_fixture.py"
    fixture_trigger = (
        "import time\n"
        "\n"
        "def round_stamp():\n"
        "    return time.time()\n"
        "\n"
        "class Engine:\n"
        "    def finish(self):\n"
        "        self.last_round_stamp = round_stamp()\n"
    )
    fixture_clean = (
        "def round_stamp(engine):\n"
        "    return engine.total_cycles\n"
        "\n"
        "class Engine:\n"
        "    total_cycles = 0\n"
        "\n"
        "    def finish(self):\n"
        "        self.last_round_stamp = round_stamp(self)\n"
    )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[ProjectContext] = None,
    ) -> Iterator[Finding]:
        if project is None:
            return
        module = project.module_for_path(path)
        if module is None:
            return
        summaries = project.taint_summaries("det003", _det003_sources)
        seen: Set[Tuple[int, int]] = set()
        for fn in project.functions_in_module(module.name):
            policy = _Det003Policy(project, module, fn.enclosing_class,
                                   summaries)
            TaintAnalysis(project.cfg(fn.node), fn.node, policy).run()
            for stmt, target, tags in policy.sinks:
                key = (stmt.lineno, stmt.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                kind, source = sorted(tags)[0]
                what = ("wall-clock read" if kind == "wall"
                        else "entropy source")
                yield self.finding(
                    path,
                    stmt,
                    f"value derived from {what} {source}() flows into "
                    f"committed state {ast.unparse(target)}",
                )


# ----------------------------------------------------------------------
# DUR-002: durable publish sequences keep their order on every path
# ----------------------------------------------------------------------

#: sliced-hosts publish stages, by callee name tail
_HOSTS_STAGES = {
    "commit": "journal",
    "_publish_shard": "shard",
    "_publish_cursor": "cursor",
}


def _hosts_classify(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return _HOSTS_STAGES.get(func.attr)
    if isinstance(func, ast.Name):
        return _HOSTS_STAGES.get(func.id)
    return None


def _atomic_classify(imports: Dict[str, str]):
    def classify(call: ast.Call) -> Optional[str]:
        name = resolve_call_name(call.func, imports)
        if name == "os.fsync":
            return "fsync"
        if name == "os.replace":
            return "replace"
        return None

    return classify


class PublishOrderRule(Rule):
    """Durable publish protocols hold along *every* control-flow path.

    Two protocols are verified per function, via the protocol-order
    dataflow engine:

    * ``hosts-publish`` (``core/hostsliced.py`` only): journal commit
      before shard write before cursor update.  A later stage already
      published when an earlier one fires is an inversion; a path
      leaving the function with a sequence started but no cursor is an
      abandoned partial publish.  Recovery branches that re-publish
      only the *tail* of the sequence (cursor alone, or shard+cursor
      redo) are legal — the cursor completes a sequence wherever it
      appears.
    * ``atomic-publish`` (everywhere): ``os.replace`` must see an
      ``os.fsync`` on every path leading to it, or the rename can
      publish a file whose bytes are still in the page cache.
    """

    id = "DUR-002"
    severity = "error"
    description = (
        "durable publish sequences keep their order on every path "
        "(journal->shard->cursor in sliced-hosts; fsync before "
        "os.replace) and no early exit abandons a partial publish"
    )
    hint = (
        "publish in protocol order and complete the sequence on every "
        "non-crash path; if a branch legitimately ends mid-sequence, "
        "suppress at the def with '# repro: allow(DUR-002)' and "
        "explain the recovery invariant that makes it safe"
    )
    scope = ("*",)
    allowlist: Dict[str, str] = {}
    fixture_path = "repro/core/hostsliced.py"
    fixture_trigger = (
        "class Host:\n"
        "    def publish_step(self, writer, step, state, totals, done):\n"
        "        writer.commit(step + 1)\n"
        "        self._publish_cursor(step + 1, done)\n"
        "        self._publish_shard(state, step, totals)\n"
    )
    fixture_clean = (
        "class Host:\n"
        "    def publish_step(self, writer, step, state, totals, done):\n"
        "        writer.commit(step + 1)\n"
        "        self._publish_shard(state, step, totals)\n"
        "        self._publish_cursor(step + 1, done)\n"
    )

    def _specs(self, path: str, imports: Dict[str, str]
               ) -> List[ProtocolSpec]:
        specs: List[ProtocolSpec] = []
        if match_path(path, "*/core/hostsliced.py"):
            specs.append(
                ProtocolSpec(
                    "hosts-publish",
                    ("journal", "shard", "cursor"),
                    _hosts_classify,
                    check_escape=True,
                )
            )
        specs.append(
            ProtocolSpec(
                "atomic-publish",
                ("fsync", "replace"),
                _atomic_classify(imports),
                check_order=False,
                requires={"replace": ("fsync",)},
            )
        )
        return specs

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[ProjectContext] = None,
    ) -> Iterator[Finding]:
        specs = self._specs(path, imports)
        for _name, fn, _cls in iter_function_defs(tree):
            cfg = None
            for spec in specs:
                if not any(
                    spec.classify(node) is not None
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                ):
                    continue
                if cfg is None:
                    cfg = (project.cfg(fn) if project is not None
                           else build_cfg(fn))
                for kind, node, detail in ProtocolAnalysis(
                        cfg, fn, spec).run():
                    yield self.finding(
                        path, node, f"[{spec.name}] {detail}")


# ----------------------------------------------------------------------
# CONC-001: worker replies are fence-compared before being applied
# ----------------------------------------------------------------------

#: receive entry points that produce worker replies.  Bare ``.get`` is
#: deliberately absent: it is every mapping lookup, not just Queue.get
_RECV_TAILS = frozenset({"recv", "recv_bytes", "get_nowait"})
_FENCE_MARKERS = ("epoch", "attempt")


class _FencePolicy(TaintPolicy):
    """Taint worker replies at recv; a comparison against fence
    identifiers sanitizes; unfenced stores are sinks."""

    def __init__(self) -> None:
        self.sinks: List[Tuple[ast.stmt, ast.expr]] = []
        self._seen: Set[int] = set()

    @staticmethod
    def _is_recv(node: ast.Call) -> bool:
        func = node.func
        return (isinstance(func, ast.Attribute)
                and func.attr in _RECV_TAILS)

    def call_tags(self, node: ast.Call, arg_tags: Tags,
                  state: TaintState) -> Tags:
        if self._is_recv(node):
            return frozenset({("recv", node.func.attr)})
        return arg_tags

    def reset_on_call(self, node: ast.Call) -> bool:
        # each new message needs its own fence comparison
        return self._is_recv(node)

    def sanitize(self, test: ast.expr, state: TaintState) -> TaintState:
        has_compare = any(
            isinstance(node, ast.Compare) for node in ast.walk(test))
        if not has_compare:
            return state
        names = expr_names(test)
        tainted = any(
            any(tag[0] == "recv" for tag in state.get(name))
            for name in names
        )
        fence = any(
            any(marker in name for marker in _FENCE_MARKERS)
            and not state.get(name)
            for name in names
        )
        if tainted and fence:
            state = state.copy()
            state.flags = state.flags | frozenset({"fenced"})
        return state

    def store(self, target: ast.expr, tags: Tags, state: TaintState,
              stmt: ast.stmt) -> None:
        if any(tag[0] == "recv" for tag in tags) and \
                "fenced" not in state.flags:
            if id(stmt) not in self._seen:
                self._seen.add(id(stmt))
                self.sinks.append((stmt, target))


def _root_name(expr: ast.expr) -> Optional[str]:
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


class WorkerFenceRule(Rule):
    """sliced-mp worker replies are fenced; workers touch no globals.

    Two hazards, both invisible to call-site pattern matching:

    * A reply read off a worker connection and applied to shared state
      without an (epoch, attempt) comparison first — the exact
      stale-reply race the fencing protocol exists to stop.  Tracked
      as taint from ``.recv()`` with a comparison-against-fence-
      identifiers sanitizer.
    * A function executed inside a worker process (``Process(target=
      ...)`` and its same-module callees) writing module-level mutable
      state: worker memory is per-process, so the write is silently
      invisible to the supervisor — or worse, visible only under fork.
    """

    id = "CONC-001"
    severity = "error"
    description = (
        "worker replies in sliced-mp must pass an (epoch, attempt) "
        "fence comparison before being applied, and worker-executed "
        "functions must not mutate module-level state"
    )
    hint = (
        "compare the reply's (epoch, attempt, ...) against the "
        "handle's before applying it; keep worker state in locals or "
        "explicit message passing.  If the state is worker-private "
        "scratch, suppress at the store with '# repro: allow(CONC-001)'"
        " and say why"
    )
    scope = ("*/core/mpsliced.py",)
    allowlist: Dict[str, str] = {}
    fixture_path = "repro/core/mpsliced.py"
    fixture_trigger = (
        "def apply_reply(conn, handle, state):\n"
        "    message = conn.recv()\n"
        "    kind, epoch, reply_attempt, vertices, shard = message\n"
        "    state[vertices] = shard\n"
    )
    fixture_clean = (
        "def apply_reply(conn, handle, state, attempt):\n"
        "    message = conn.recv()\n"
        "    kind, epoch, reply_attempt, vertices, shard = message\n"
        "    if (epoch, reply_attempt) != (handle.epoch, attempt):\n"
        "        raise RuntimeError(\"stale worker reply\")\n"
        "    state[vertices] = shard\n"
    )

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[ProjectContext] = None,
    ) -> Iterator[Finding]:
        yield from self._fence_findings(tree, path, project)
        yield from self._worker_global_findings(tree, path)

    # -- recv fencing --------------------------------------------------
    def _fence_findings(self, tree, path, project) -> Iterator[Finding]:
        for _name, fn, _cls in iter_function_defs(tree):
            if not any(
                isinstance(node, ast.Call) and _FencePolicy._is_recv(node)
                for node in ast.walk(fn)
            ):
                continue
            policy = _FencePolicy()
            cfg = (project.cfg(fn) if project is not None
                   else build_cfg(fn))
            TaintAnalysis(cfg, fn, policy).run()
            for stmt, target in policy.sinks:
                yield self.finding(
                    path,
                    stmt,
                    f"worker reply applied to {ast.unparse(target)} "
                    f"without an (epoch, attempt) fence comparison",
                )

    # -- worker-executed globals ---------------------------------------
    def _worker_global_findings(self, tree, path) -> Iterator[Finding]:
        module_globals: Set[str] = set()
        top_functions: Dict[str, ast.AST] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top_functions[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        module_globals.add(target.id)

        worker_roots: List[str] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            tail = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if tail != "Process":
                continue
            for keyword in node.keywords:
                if keyword.arg == "target":
                    value = keyword.value
                    name = (value.id if isinstance(value, ast.Name)
                            else getattr(value, "attr", None))
                    if name in top_functions:
                        worker_roots.append(name)

        # same-module closure of the worker entry points
        reachable: Set[str] = set()
        frontier = list(worker_roots)
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for node in ast.walk(top_functions[name]):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Name):
                    callee = node.func.id
                    if callee in top_functions and callee not in reachable:
                        frontier.append(callee)

        for name in sorted(reachable):
            fn = top_functions[name]
            declared_global: Set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Name) and \
                                target.id in declared_global:
                            yield self.finding(
                                path,
                                node,
                                f"worker-executed {name}() mutates "
                                f"module global {target.id!r} — worker "
                                f"memory is per-process and never "
                                f"synchronized",
                            )
                        elif isinstance(target, (ast.Attribute,
                                                 ast.Subscript)):
                            root = _root_name(target)
                            if root in module_globals:
                                yield self.finding(
                                    path,
                                    node,
                                    f"worker-executed {name}() writes "
                                    f"module-level state {root!r} — "
                                    f"invisible to the supervisor "
                                    f"process",
                                )


# ----------------------------------------------------------------------
# SUB-002: substrate code reaches file IO only through sanctioned paths
# ----------------------------------------------------------------------

#: dotted names that ARE raw file IO wherever they appear
_RAW_IO_CALLS = frozenset(
    {
        "open",
        "io.open",
        "os.open",
        "os.fdopen",
        "tempfile.mkstemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
    }
)
#: method tails that are raw IO when the receiver is unresolved
#: (Path.read_bytes and friends); bare ``.open`` is deliberately
#: absent — ``store.open()`` style factories would misfire
_RAW_IO_TAILS = frozenset(
    {"read_bytes", "read_text", "write_bytes", "write_text"}
)
#: modules whose entry points are the sanctioned IO boundary: the
#: atomic/shimmed helpers, the fsynced journal codecs, the bounded
#: retry wrapper, and the durable primitives they protect
_SANCTIONED_MODULES = (
    "repro.ioutil",
    "repro.resilience.journal",
    "repro.resilience.storagefaults",
    "repro.resilience.lease",
    "repro.resilience.durable",
)


def _sanctioned_name(name: str) -> bool:
    return any(
        name == module or name.startswith(module + ".")
        for module in _SANCTIONED_MODULES
    )


def _classify_call(
    call: ast.Call,
    module: ModuleInfo,
    project: ProjectContext,
    enclosing_class: Optional[str],
) -> Tuple[str, Optional[FunctionInfo], Optional[str]]:
    """-> (kind, target, describe) with kind in
    {sanctioned, raw, project, opaque}."""
    resolved = project.resolve_call(call, module, enclosing_class)
    if resolved is not None and _sanctioned_name(resolved):
        return ("sanctioned", None, resolved)
    dotted = resolve_call_name(call.func, module.imports)
    if dotted in _RAW_IO_CALLS:
        return ("raw", None, dotted)
    if resolved is None:
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in _RAW_IO_TAILS:
            return ("raw", None, f"*.{call.func.attr}")
        if dotted in _RAW_IO_TAILS:
            return ("raw", None, dotted)
        return ("opaque", None, dotted)
    target = project.function_for(resolved)
    if target is not None and not _sanctioned_name(target.qualname):
        return ("project", target, resolved)
    return ("opaque", None, resolved)


def _collect_calls(
    root: ast.AST,
    module: ModuleInfo,
    project: ProjectContext,
    enclosing_class: Optional[str],
    out: List[Tuple[ast.Call, str, Optional[FunctionInfo], Optional[str]]],
) -> None:
    """Classify calls under ``root``, pruning sanctioned subtrees (a
    lambda handed to ``retry_transient`` is inside the boundary) and
    nested def/class bodies (analyzed as their own functions)."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        if isinstance(child, ast.Call):
            kind, target, describe = _classify_call(
                child, module, project, enclosing_class)
            out.append((child, kind, target, describe))
            if kind == "sanctioned":
                continue
        _collect_calls(child, module, project, enclosing_class, out)


class SubstrateEscapeRule(Rule):
    """Substrate code must not reach raw file IO, even transitively.

    The substrate interfaces exist so every byte touching a durable
    medium passes the fault shim (``ioutil``), the fsync discipline
    (journal/lease/durable codecs) and the bounded-retry wrapper.  A
    helper inside ``resilience/substrate/`` that calls ``open()`` —
    or calls a module that does — silently reopens the unshimmed
    path: storage chaos stops covering it and torn-write protection
    is gone.  The check walks the project call graph from every
    substrate function; sanctioned boundary modules terminate the
    walk.
    """

    id = "SUB-002"
    severity = "error"
    needs_project = True
    description = (
        "no raw file IO reachable from substrate code (transitive "
        "call-graph check) — all bytes go through repro.ioutil, the "
        "journal/lease/durable codecs, or retry_transient"
    )
    hint = (
        "route reads/writes through repro.ioutil (read_bytes, "
        "atomic_open) or the sanctioned codec modules; wrap transient-"
        "failure-prone operations in retry_transient"
    )
    scope = ("*/resilience/substrate/*.py",)
    allowlist: Dict[str, str] = {}
    fixture_path = "repro/resilience/substrate/escape_fixture.py"
    fixture_trigger = (
        "def load_manifest(path):\n"
        "    with open(path, \"rb\") as handle:\n"
        "        return handle.read()\n"
    )
    fixture_clean = (
        "from repro.ioutil import read_bytes\n"
        "\n"
        "def load_manifest(path):\n"
        "    return read_bytes(path)\n"
    )
    #: transitive search depth — substrate call chains are 2-3 deep
    _MAX_DEPTH = 6

    def visit(
        self, tree: ast.Module, path: str, imports: Dict[str, str],
        project: Optional[ProjectContext] = None,
    ) -> Iterator[Finding]:
        if project is None:
            return
        module = project.module_for_path(path)
        if module is None:
            return
        reach_memo: Dict[str, Optional[List[str]]] = {}
        seen: Set[Tuple[int, int]] = set()
        for fn in project.functions_in_module(module.name):
            calls: List[Tuple[ast.Call, str, Optional[FunctionInfo],
                              Optional[str]]] = []
            _collect_calls(fn.node, module, project, fn.enclosing_class,
                           calls)
            for call, kind, target, describe in calls:
                key = (call.lineno, call.col_offset)
                if key in seen:
                    continue
                if kind == "raw":
                    seen.add(key)
                    yield self.finding(
                        path,
                        call,
                        f"raw file IO {describe}(...) in substrate "
                        f"code bypasses the fault shim and atomic-"
                        f"write discipline",
                    )
                elif kind == "project":
                    chain = self._reaches_raw(target, project,
                                              reach_memo, depth=0)
                    if chain is not None:
                        seen.add(key)
                        yield self.finding(
                            path,
                            call,
                            "raw file IO reachable from substrate "
                            "code: " + " -> ".join(
                                [target.qualname] + chain),
                        )

    def _reaches_raw(
        self,
        fn: FunctionInfo,
        project: ProjectContext,
        memo: Dict[str, Optional[List[str]]],
        depth: int,
    ) -> Optional[List[str]]:
        if fn.qualname in memo:
            return memo[fn.qualname]
        if depth > self._MAX_DEPTH:
            return None
        memo[fn.qualname] = None  # cycle guard: assume clean while open
        module = project.modules.get(fn.module)
        if module is None:
            return None
        calls: List[Tuple[ast.Call, str, Optional[FunctionInfo],
                          Optional[str]]] = []
        _collect_calls(fn.node, module, project, fn.enclosing_class,
                       calls)
        result: Optional[List[str]] = None
        for call, kind, target, describe in calls:
            if kind == "raw":
                result = [f"{describe}(...) at "
                          f"{module.name}:{call.lineno}"]
                break
            if kind == "project" and target is not None:
                chain = self._reaches_raw(target, project, memo,
                                          depth + 1)
                if chain is not None:
                    result = [target.qualname] + chain
                    break
        memo[fn.qualname] = result
        return result


#: the dataflow rules, in stable reporting order (appended after the
#: syntactic set in ``rules.RULES``)
FLOW_RULES: Tuple[Rule, ...] = (
    TaintedStateRule(),
    PublishOrderRule(),
    WorkerFenceRule(),
    SubstrateEscapeRule(),
)
