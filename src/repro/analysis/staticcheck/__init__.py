"""``repro.analysis.staticcheck`` — the AST invariant checker.

A self-contained (stdlib-``ast``-only) static-analysis pass suite that
turns the reproduction's determinism, durability and engine-registry
disciplines into machine-checked rules.  ``repro lint`` is the CLI
surface; see :mod:`.framework` for the rule machinery, :mod:`.rules`
for the syntactic invariants (DET-001/002, DUR-001, ENG-001, RES-001/
002, OBS-001), :mod:`.flowrules` for the dataflow invariants
(DET-003, DUR-002, CONC-001, SUB-002) built on the :mod:`.cfg` /
:mod:`.dataflow` / :mod:`.callgraph` engines, and :mod:`.selfcheck`
for the paired-fixture self-test that proves every rule can still
fire.

Typical use::

    from repro.analysis.staticcheck import RULES, lint_paths

    findings = lint_paths(["src/repro"], RULES)
    bad = [f for f in findings if not f.suppressed]
"""

from .callgraph import ProjectContext, project_for_files
from .cfg import CFG, Block, build_cfg, iter_function_defs
from .framework import (
    Finding,
    Rule,
    Suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    match_path,
)
from .rules import RULES, RULES_BY_ID, rule_ids, select_rules
from .selfcheck import SelfCheckFailure, run_selfcheck

__all__ = [
    "Block",
    "CFG",
    "Finding",
    "ProjectContext",
    "Rule",
    "Suppressions",
    "RULES",
    "RULES_BY_ID",
    "SelfCheckFailure",
    "build_cfg",
    "iter_function_defs",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "match_path",
    "project_for_files",
    "rule_ids",
    "run_selfcheck",
    "select_rules",
]
