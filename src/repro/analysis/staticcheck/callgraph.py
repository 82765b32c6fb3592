"""Project-wide symbol table and call graph for the dataflow rules.

The syntactic rules treat every file in isolation.  The dataflow rules
cannot: a wall-clock value laundered through ``helpers.stamp()`` is
only visible if the linter knows what ``helpers.stamp`` *does*, and
the raw-IO escape analysis (SUB-002) has to chase calls across
modules.  This module builds that project view:

:class:`ProjectContext`
    Parses every file once, names each module by its path (rooted at
    the rightmost ``repro`` component, so ``src/repro/core/queue.py``
    and a test fixture living at ``repro/core/queue.py`` get the same
    module name), resolves imports — including relative ones — and
    registers every function def under its qualified name.

Call resolution (:meth:`ProjectContext.resolve_call`) handles the
shapes that actually occur in this codebase: bare names (local or
``from x import y``), ``module.func`` attribute chains through the
import map, ``Class.method`` for classes defined or imported in the
module, and ``self.method`` via the enclosing class.  Anything else
(dynamic dispatch, attribute chains on objects) resolves to ``None``
and the rules fall back to conservative behaviour.

Taint summaries (:meth:`ProjectContext.taint_summaries`) give the
interprocedural story: for every function, whether its return value
carries source taint of its own and whether argument taint flows
through to the return — computed to a fixed point over the call graph
so a chain of helpers launders nothing.
"""

from __future__ import annotations

import ast
import os
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .cfg import CFG, FunctionNode, build_cfg, iter_function_defs
from .dataflow import EMPTY, TaintAnalysis, TaintPolicy, TaintState, Tags

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectContext",
    "TaintSummary",
    "module_name_for_path",
]

#: fixed-point rounds for interprocedural summaries; helper chains in
#: this codebase are 2-3 deep, so this is generous headroom
_SUMMARY_ROUNDS = 5


def module_name_for_path(path: str) -> str:
    """Dotted module name derived from a file path.

    Anchors at the rightmost path component named ``repro`` so source
    files (``src/repro/core/queue.py``), fixture paths
    (``repro/core/queue.py``) and absolute paths all normalise to the
    same name.  Paths without a ``repro`` component fall back to the
    bare stem — single-file fixtures still get a usable name.
    """
    posix = path.replace(os.sep, "/")
    parts = [part for part in posix.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    anchors = [i for i, part in enumerate(parts) if part == "repro"]
    if anchors:
        parts = parts[anchors[-1]:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "module"


class FunctionInfo(NamedTuple):
    """One registered function def."""

    qualname: str          # module.Class.method / module.func
    module: str            # dotted module name
    node: FunctionNode
    enclosing_class: Optional[str]


class TaintSummary(NamedTuple):
    """What a function's return value carries."""

    own_tags: Tags         # source taint originating inside the body
    params_flow: bool      # does argument taint reach the return value


class ModuleInfo:
    """One parsed module: tree, import map, locally bound top names."""

    def __init__(self, name: str, path: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.tree = tree
        self.imports = _resolve_imports(tree, name)
        #: names assigned at module level (mutable-global candidates)
        self.global_names: Set[str] = set()
        #: classes defined at module top level
        self.classes: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.global_names.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                self.global_names.add(element.id)


def _resolve_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Import map with relative imports resolved against ``module``.

    ``from .helpers import stamp`` inside ``repro.core.queue`` binds
    ``stamp -> repro.core.helpers.stamp``; absolute imports behave like
    :func:`..framework.build_import_map`.
    """
    package_parts = module.split(".")[:-1]
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                names[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # one dot = current package, each extra dot strips one
                base_parts = package_parts[: len(package_parts)
                                           - (node.level - 1)]
                base = ".".join(base_parts + (
                    node.module.split(".") if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                names[local] = f"{base}.{alias.name}" if base else alias.name
    return names


class ProjectContext:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._cfgs: Dict[int, CFG] = {}
        self._summaries: Dict[str, Dict[str, TaintSummary]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectContext":
        """Build from ``{path: source}`` (unparseable files skipped —
        they already produce a PARSE finding elsewhere)."""
        project = cls()
        for path, source in sources.items():
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            project.add_module(path, tree)
        return project

    @classmethod
    def from_paths(cls, files: Iterable[str]) -> "ProjectContext":
        sources: Dict[str, str] = {}
        for path in files:
            try:
                with open(path, encoding="utf-8") as handle:
                    sources[path] = handle.read()
            except OSError:
                continue
        return cls.from_sources(sources)

    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        name = module_name_for_path(path)
        info = ModuleInfo(name, path, tree)
        self.modules[name] = info
        self.modules_by_path[path] = info
        for local_qualname, node, enclosing in iter_function_defs(tree):
            qualname = f"{name}.{local_qualname}"
            self.functions[qualname] = FunctionInfo(
                qualname, name, node, enclosing)
        return info

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        info = self.modules_by_path.get(path)
        if info is not None:
            return info
        return self.modules.get(module_name_for_path(path))

    # -- graphs --------------------------------------------------------
    def cfg(self, node: FunctionNode) -> CFG:
        """CFG for a def, cached by node identity (the project owns the
        trees, so ids stay valid for the context's lifetime)."""
        cached = self._cfgs.get(id(node))
        if cached is None:
            cached = build_cfg(node)
            self._cfgs[id(node)] = cached
        return cached

    def functions_in_module(self, module: str) -> List[FunctionInfo]:
        return [fn for fn in self.functions.values()
                if fn.module == module]

    # -- call resolution -----------------------------------------------
    def resolve_call(
        self,
        call: ast.Call,
        module: ModuleInfo,
        enclosing_class: Optional[str] = None,
    ) -> Optional[str]:
        """Qualified name the call's callee resolves to, or ``None``.

        The returned name is a *symbol* name — it may or may not be a
        registered function (``repro.ioutil.atomic_open`` is; a call
        into an unparsed stdlib module is not).  Use
        :meth:`function_for` to get the def when one exists.
        """
        func = call.func
        if isinstance(func, ast.Name):
            imported = module.imports.get(func.id)
            if imported is not None:
                return imported
            local = f"{module.name}.{func.id}"
            if local in self.functions:
                return local
            if func.id in module.classes:
                return local
            return None
        parts: List[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        head = node.id
        if head == "self" and enclosing_class is not None:
            return ".".join([module.name, enclosing_class] + parts)
        if head == "cls" and enclosing_class is not None:
            return ".".join([module.name, enclosing_class] + parts)
        imported = module.imports.get(head)
        if imported is not None:
            return ".".join([imported] + parts)
        if head in module.classes:
            return ".".join([module.name, head] + parts)
        local = f"{module.name}.{head}"
        if local in self.functions or any(
                name.startswith(local + ".") for name in self.functions):
            return ".".join([local] + parts)
        return None

    def function_for(self, qualname: Optional[str]
                     ) -> Optional[FunctionInfo]:
        if qualname is None:
            return None
        found = self.functions.get(qualname)
        if found is not None:
            return found
        # an imported name may be re-exported: repro.resilience.lease
        # .SliceLease.acquire registered under the defining module —
        # fall back on suffix match within the same tail
        tail = qualname.split(".")[-2:]
        if len(tail) == 2:
            suffix = "." + ".".join(tail)
            matches = [fn for name, fn in self.functions.items()
                       if name.endswith(suffix)]
            if len(matches) == 1:
                return matches[0]
        return None

    # -- interprocedural taint summaries -------------------------------
    def taint_summaries(
        self,
        label: str,
        source_tags: Callable[[ast.Call, ModuleInfo], Tags],
    ) -> Dict[str, TaintSummary]:
        """Fixed-point ``{qualname: TaintSummary}`` for the project.

        ``source_tags`` classifies direct taint sources (e.g. a
        ``time.time()`` call); everything else is derived.  Cached per
        ``label`` so repeated rule runs over the same context are free.
        """
        cached = self._summaries.get(label)
        if cached is not None:
            return cached
        summaries: Dict[str, TaintSummary] = {
            name: TaintSummary(EMPTY, False) for name in self.functions
        }
        for _ in range(_SUMMARY_ROUNDS):
            changed = False
            for name, fn in self.functions.items():
                module = self.modules.get(fn.module)
                if module is None:
                    continue
                summary = self._summarize(fn, module, summaries,
                                          source_tags)
                if summary != summaries[name]:
                    summaries[name] = summary
                    changed = True
            if not changed:
                break
        self._summaries[label] = summaries
        return summaries

    def _summarize(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        summaries: Dict[str, TaintSummary],
        source_tags: Callable[[ast.Call, ModuleInfo], Tags],
    ) -> TaintSummary:
        policy = _SummaryPolicy(self, module, fn.enclosing_class,
                                summaries, source_tags)
        TaintAnalysis(self.cfg(fn.node), fn.node, policy).run()
        own = frozenset(tag for tag in policy.return_tags
                        if tag[0] != "param")
        flows = any(tag[0] == "param" for tag in policy.return_tags)
        return TaintSummary(own, flows)

    def call_return_tags(
        self,
        call: ast.Call,
        arg_tags: Tags,
        module: ModuleInfo,
        enclosing_class: Optional[str],
        summaries: Dict[str, TaintSummary],
        source_tags: Callable[[ast.Call, ModuleInfo], Tags],
    ) -> Tags:
        """Shared call-effect used by summaries and the DET-003 rule:
        direct sources, then summary lookup, then conservative
        pass-through for unresolved calls."""
        direct = source_tags(call, module)
        if direct:
            return direct | arg_tags
        resolved = self.resolve_call(call, module, enclosing_class)
        target = self.function_for(resolved)
        if target is not None:
            summary = summaries.get(target.qualname)
            if summary is not None:
                tags = summary.own_tags
                if summary.params_flow:
                    tags = tags | arg_tags
                return tags
        if resolved is not None:
            # resolved to a symbol we did not parse (stdlib, class
            # constructor): assume plain pass-through
            return arg_tags
        return arg_tags


class _SummaryPolicy(TaintPolicy):
    """Taint policy that seeds parameters and records return taint."""

    def __init__(self, project, module, enclosing_class, summaries,
                 source_tags):
        self.project = project
        self.module = module
        self.enclosing_class = enclosing_class
        self.summaries = summaries
        self.source_tags = source_tags
        self.return_tags: Tags = EMPTY

    def initial_state(self, fn: ast.AST) -> TaintState:
        state = TaintState()
        args = fn.args
        names = [arg.arg for arg in
                 list(getattr(args, "posonlyargs", [])) + args.args
                 + args.kwonlyargs]
        for index, name in enumerate(names):
            if name in ("self", "cls") and index == 0:
                continue
            state.vars[name] = frozenset({("param", str(index))})
        return state

    def call_tags(self, node: ast.Call, arg_tags: Tags,
                  state: TaintState) -> Tags:
        return self.project.call_return_tags(
            node, arg_tags, self.module, self.enclosing_class,
            self.summaries, self.source_tags)

    def returned(self, node: ast.Return, tags: Tags,
                 state: TaintState) -> None:
        self.return_tags |= tags


# ----------------------------------------------------------------------
# Shared-context cache for repeated full-tree lints (tests, CLI)
# ----------------------------------------------------------------------

_PROJECT_CACHE: Dict[FrozenSet[Tuple[str, int, int]], ProjectContext] = {}
_PROJECT_CACHE_LIMIT = 4


def project_for_files(files: Sequence[str]) -> ProjectContext:
    """Build (or reuse) a :class:`ProjectContext` for a file list.

    Keyed by every file's ``(path, mtime_ns, size)`` so any edit misses
    the cache; bounded so test suites that lint many distinct temp
    trees do not accumulate contexts.
    """
    stamp: List[Tuple[str, int, int]] = []
    for path in files:
        try:
            meta = os.stat(path)
        except OSError:
            stamp.append((path, -1, -1))
            continue
        stamp.append((path, meta.st_mtime_ns, meta.st_size))
    key = frozenset(stamp)
    cached = _PROJECT_CACHE.get(key)
    if cached is None:
        cached = ProjectContext.from_paths(files)
        if len(_PROJECT_CACHE) >= _PROJECT_CACHE_LIMIT:
            _PROJECT_CACHE.pop(next(iter(_PROJECT_CACHE)))
        _PROJECT_CACHE[key] = cached
    return cached
