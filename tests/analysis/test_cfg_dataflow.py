"""Tests for the dataflow layer under ``repro.analysis.staticcheck``.

Split by layer, mirroring the analysis stack:

- CFG construction mechanics (branch joins, loop back-edges,
  try/finally, raise routing) — independent of any shipped rule;
- the forward taint engine driven by a throwaway test policy
  (joins, kills, unpacking, cross-module summaries);
- the protocol automaton (ordering, prerequisites, escapes);
- the shipped flow rules (DET-003, DUR-002, CONC-001, SUB-002)
  against purpose-built snippets AND the real tree, including the
  acceptance mutations (cursor-before-shard, time-through-helper);
- suppression-span edge cases (decorated defs, multi-line calls);
- the lint CLI's --baseline ratchet and --format github output.
"""

import ast
import json
import os
import textwrap

import pytest

import repro
from repro.analysis.staticcheck import (
    RULES_BY_ID,
    ProjectContext,
    build_cfg,
    lint_paths,
    lint_source,
)
from repro.analysis.staticcheck.baseline import (
    apply_baseline,
    finding_key,
    read_baseline,
    write_baseline,
)
from repro.analysis.staticcheck.dataflow import (
    EMPTY,
    ProtocolAnalysis,
    ProtocolSpec,
    TaintAnalysis,
    TaintPolicy,
)
from repro.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
HOSTSLICED = os.path.join(PACKAGE_DIR, "core", "hostsliced.py")


def unsuppressed(findings):
    return [f for f in findings if not f.suppressed]


def fn_cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[-1]
    return fn, build_cfg(fn)


# ----------------------------------------------------------------------
# CFG mechanics
# ----------------------------------------------------------------------


class TestCFG:
    def test_if_else_branches_join(self):
        _fn, cfg = fn_cfg(
            """
            def f(cond):
                if cond:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        header = next(b for b in cfg.blocks if b.test is not None)
        assert len(header.successors) == 2
        joins = [b.successors for b in header.successors]
        # both arms converge on the same join block
        assert joins[0] == joins[1]
        join = joins[0][0]
        assert any(isinstance(s, ast.Return) for s in join.statements)

    def test_if_without_else_falls_through(self):
        _fn, cfg = fn_cfg(
            """
            def f(cond):
                if cond:
                    a = 1
                return 0
            """
        )
        header = next(b for b in cfg.blocks if b.test is not None)
        then_block, false_target = header.successors
        # the false edge skips the then-arm and lands on its join
        assert false_target in then_block.successors

    def test_while_loop_has_back_edge(self):
        _fn, cfg = fn_cfg(
            """
            def f(n):
                while n:
                    n = n - 1
                return n
            """
        )
        header = next(b for b in cfg.blocks if b.kind == "loop-header")
        body = header.successors[0]
        assert header in body.successors  # the back edge

    def test_for_loop_has_back_edge_and_exit_path(self):
        _fn, cfg = fn_cfg(
            """
            def f(items):
                total = 0
                for item in items:
                    total += item
                return total
            """
        )
        header = next(b for b in cfg.blocks if b.kind == "loop-header")
        body, after = header.successors
        assert header in body.successors
        assert any(isinstance(s, ast.Return) for s in after.statements)

    def test_return_routes_to_exit(self):
        _fn, cfg = fn_cfg(
            """
            def f():
                return 1
            """
        )
        block = next(
            b for b in cfg.blocks
            if any(isinstance(s, ast.Return) for s in b.statements)
        )
        assert cfg.exit in block.successors

    def test_raise_routes_to_matching_handler(self):
        _fn, cfg = fn_cfg(
            """
            def f():
                try:
                    raise ValueError("x")
                except ValueError:
                    return 1
            """
        )
        assert cfg.escaping_raises == set()
        raiser = next(
            b for b in cfg.blocks
            if any(isinstance(s, ast.Raise) for s in b.statements)
        )
        handler = next(b for b in cfg.blocks if b.kind == "handler")
        assert handler in raiser.successors

    def test_uncaught_raise_escapes(self):
        fn, cfg = fn_cfg(
            """
            def f():
                raise RuntimeError("boom")
            """
        )
        raise_node = fn.body[0]
        assert id(raise_node) in cfg.escaping_raises
        raiser = next(
            b for b in cfg.blocks
            if any(isinstance(s, ast.Raise) for s in b.statements)
        )
        assert cfg.raise_exit in raiser.successors

    def test_try_finally_lies_on_the_exit_path(self):
        _fn, cfg = fn_cfg(
            """
            def f(fh):
                try:
                    fh.write(b"x")
                finally:
                    fh.close()
                return 0
            """
        )
        final = next(
            b for b in cfg.blocks
            if any(
                isinstance(s, ast.Expr)
                and isinstance(s.value, ast.Call)
                and isinstance(s.value.func, ast.Attribute)
                and s.value.func.attr == "close"
                for s in b.statements
            )
        )
        # the finally body flows onward to the return, not dead-ends
        reachable, frontier = set(), [final]
        while frontier:
            block = frontier.pop()
            if block.index in reachable:
                continue
            reachable.add(block.index)
            frontier.extend(block.successors)
        assert cfg.exit.index in reachable


# ----------------------------------------------------------------------
# Taint engine mechanics (throwaway policy, no shipped rule involved)
# ----------------------------------------------------------------------

TAINT = frozenset({("t", "source")})


class TracingPolicy(TaintPolicy):
    """source() taints; sink(x) records the argument tags."""

    def __init__(self):
        self.sinks = []
        self.returns = []

    def call_tags(self, node, arg_tags, state):
        if isinstance(node.func, ast.Name) and node.func.id == "source":
            return TAINT | arg_tags
        return arg_tags

    def call_site(self, node, arg_tags, state):
        if isinstance(node.func, ast.Name) and node.func.id == "sink":
            self.sinks.append((node.lineno, arg_tags))

    def returned(self, node, tags, state):
        self.returns.append(tags)


def run_taint(source):
    fn, cfg = fn_cfg(source)
    policy = TracingPolicy()
    TaintAnalysis(cfg, fn, policy).run()
    return policy


class TestTaintEngine:
    def test_branch_join_unions_taint(self):
        policy = run_taint(
            """
            def f(cond):
                if cond:
                    x = source()
                else:
                    x = 0
                sink(x)
            """
        )
        assert policy.sinks and policy.sinks[0][1] == TAINT

    def test_loop_back_edge_reaches_fixed_point(self):
        # x is clean on iteration 1 and tainted on iteration 2; the
        # may-analysis must report the union at the loop-carried sink
        policy = run_taint(
            """
            def f(items):
                x = 0
                for item in items:
                    sink(x)
                    x = source()
            """
        )
        assert policy.sinks and policy.sinks[0][1] == TAINT

    def test_reassignment_kills_taint(self):
        policy = run_taint(
            """
            def f():
                x = source()
                x = 0
                sink(x)
            """
        )
        assert policy.sinks and policy.sinks[0][1] == EMPTY

    def test_taint_survives_try_finally(self):
        policy = run_taint(
            """
            def f():
                x = 0
                try:
                    x = source()
                finally:
                    sink(x)
            """
        )
        assert any(tags == TAINT for _line, tags in policy.sinks)

    def test_tuple_unpack_is_element_wise(self):
        policy = run_taint(
            """
            def f():
                a, b = source(), 0
                sink(a)
                sink(b)
            """
        )
        by_line = dict(policy.sinks)
        lines = sorted(by_line)
        assert by_line[lines[0]] == TAINT
        assert by_line[lines[1]] == EMPTY

    def test_taint_propagates_through_expressions(self):
        policy = run_taint(
            """
            def f():
                x = source()
                y = (x + 1) * 2
                z = [y]
                sink(z[0])
            """
        )
        assert policy.sinks and policy.sinks[0][1] == TAINT

    def test_return_hook_sees_taint(self):
        policy = run_taint(
            """
            def f():
                x = source()
                return x
            """
        )
        assert policy.returns == [TAINT]

    def test_taint_through_return_cross_module(self):
        # interprocedural summaries: helper's return taints the caller
        project = ProjectContext.from_sources(
            {
                "repro/util.py": (
                    "def helper():\n"
                    "    return source()\n"
                ),
                "repro/user.py": (
                    "from repro.util import helper\n"
                    "def caller():\n"
                    "    return helper()\n"
                ),
            }
        )

        def sources(call, module):
            func = call.func
            if isinstance(func, ast.Name) and func.id == "source":
                return TAINT
            return EMPTY

        summaries = project.taint_summaries("test", sources)
        assert summaries["repro.util.helper"].own_tags == TAINT
        assert summaries["repro.user.caller"].own_tags == TAINT

    def test_passthrough_summary_flows_params(self):
        project = ProjectContext.from_sources(
            {"repro/util.py": "def ident(x):\n    return x\n"}
        )
        summaries = project.taint_summaries(
            "test", lambda call, module: EMPTY
        )
        info = summaries["repro.util.ident"]
        assert info.params_flow
        assert info.own_tags == EMPTY


# ----------------------------------------------------------------------
# Protocol automaton mechanics
# ----------------------------------------------------------------------


def run_protocol(source, **spec_kwargs):
    fn, cfg = fn_cfg(source)

    def classify(call):
        name = (
            call.func.attr
            if isinstance(call.func, ast.Attribute)
            else getattr(call.func, "id", None)
        )
        return name if name in spec_kwargs["stages"] else None

    spec = ProtocolSpec(
        name="test-proto", classify=classify, **spec_kwargs
    )
    return ProtocolAnalysis(cfg, fn, spec).run()


class TestProtocolAutomaton:
    STAGES = ("journal", "shard", "cursor")

    def test_correct_order_is_clean(self):
        assert (
            run_protocol(
                """
                def f(w):
                    journal()
                    shard()
                    cursor()
                """,
                stages=self.STAGES,
                check_escape=True,
            )
            == []
        )

    def test_inverted_order_is_reported(self):
        violations = run_protocol(
            """
            def f(w):
                shard()
                journal()
            """,
            stages=self.STAGES,
        )
        assert [kind for kind, _n, _m in violations] == ["order"]

    def test_escape_on_early_return(self):
        violations = run_protocol(
            """
            def f(w, bail):
                journal()
                if bail:
                    return None
                shard()
                cursor()
            """,
            stages=self.STAGES,
            check_escape=True,
        )
        kinds = {kind for kind, _n, _m in violations}
        assert kinds == {"escape"}
        _kind, node, message = violations[0]
        assert isinstance(node, ast.Return)
        assert "journal" in message

    def test_final_stage_resets_across_loop(self):
        # a publish loop completes the sequence each iteration — the
        # back edge must not manufacture a phantom inversion
        assert (
            run_protocol(
                """
                def f(steps):
                    for _step in steps:
                        journal()
                        shard()
                        cursor()
                """,
                stages=self.STAGES,
                check_escape=True,
            )
            == []
        )

    def test_requires_must_hold_on_every_path(self):
        violations = run_protocol(
            """
            def f(fd, fast):
                if not fast:
                    fsync(fd)
                replace(fd)
            """,
            stages=("fsync", "replace"),
            check_order=False,
            requires={"replace": ("fsync",)},
        )
        assert [kind for kind, _n, _m in violations] == ["requires"]

    def test_requires_satisfied_on_all_paths_is_clean(self):
        assert (
            run_protocol(
                """
                def f(fd):
                    fsync(fd)
                    replace(fd)
                """,
                stages=("fsync", "replace"),
                check_order=False,
                requires={"replace": ("fsync",)},
            )
            == []
        )


# ----------------------------------------------------------------------
# Shipped flow rules against purpose-built snippets and the real tree
# ----------------------------------------------------------------------


class TestDet003:
    RULE = [RULES_BY_ID["DET-003"]]

    def test_time_through_helper_into_state(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def round_stamp():
                    return time.time()

                class Engine:
                    def step(self):
                        self.committed_at = round_stamp()
                """
            ),
            "repro/core/engine.py",
            self.RULE,
        )
        bad = unsuppressed(findings)
        assert len(bad) == 1
        assert "wall-clock" in bad[0].message
        assert "self.committed_at" in bad[0].message

    def test_telemetry_only_read_is_clean(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def round_stamp():
                    return time.time()

                class Engine:
                    def step(self):
                        print(round_stamp())
                """
            ),
            "repro/core/engine.py",
            self.RULE,
        )
        assert findings == []

    def test_cross_module_helper_flow(self, tmp_path):
        # the acceptance scenario: the wall-clock read lives in another
        # module entirely; only the call graph connects them
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "clock.py").write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        (pkg / "core" / "engine.py").write_text(
            "from repro.clock import stamp\n"
            "class Engine:\n"
            "    def step(self):\n"
            "        self.committed_at = stamp()\n"
        )
        findings = lint_paths([str(tmp_path)], self.RULE)
        bad = unsuppressed(findings)
        assert len(bad) == 1
        assert bad[0].path.endswith("engine.py")
        assert "time.time" in bad[0].message


class TestDur002:
    RULE = [RULES_BY_ID["DUR-002"]]

    def test_real_hostsliced_is_clean(self):
        findings = lint_paths([HOSTSLICED], self.RULE)
        assert unsuppressed(findings) == []

    def test_cursor_before_shard_mutation_is_caught(self):
        # the acceptance scenario: reorder the real publish sequence so
        # the cursor advances before the shard it points at exists
        with open(HOSTSLICED, encoding="utf-8") as handle:
            source = handle.read()
        original = (
            "        self._publish_shard(s, k, state, totals)\n"
            "        self._maybe_kill(k, \"shard\")\n"
            "        done = _pass_done(spill.is_empty, start, s)\n"
            "        self._check_fence(lease)\n"
            "        self._publish_cursor(k + 1, done)\n"
        )
        reordered = (
            "        done = _pass_done(spill.is_empty, start, s)\n"
            "        self._check_fence(lease)\n"
            "        self._publish_cursor(k + 1, done)\n"
            "        self._maybe_kill(k, \"shard\")\n"
            "        self._publish_shard(s, k, state, totals)\n"
        )
        assert original in source, "publish sequence moved; update test"
        mutated = source.replace(original, reordered)
        findings = unsuppressed(
            lint_source(mutated, "src/repro/core/hostsliced.py", self.RULE)
        )
        assert findings, "reordered publish sequence went undetected"
        assert any("shard" in f.message for f in findings)

    def test_replace_without_fsync_on_one_branch(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import os

                def publish(tmp, final, fd, fast):
                    if not fast:
                        os.fsync(fd)
                    os.replace(tmp, final)
                """
            ),
            "repro/resilience/writer.py",
            self.RULE,
        )
        bad = unsuppressed(findings)
        assert len(bad) == 1
        assert "fsync" in bad[0].message

    def test_fsync_then_replace_is_clean(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import os

                def publish(tmp, final, fd):
                    os.fsync(fd)
                    os.replace(tmp, final)
                """
            ),
            "repro/resilience/writer.py",
            self.RULE,
        )
        assert findings == []


class TestConc001:
    RULE = [RULES_BY_ID["CONC-001"]]
    PATH = "repro/core/mpsliced.py"

    def test_unfenced_reply_application(self):
        findings = lint_source(
            textwrap.dedent(
                """
                def drain(conn, state):
                    epoch, attempt, vertices, shard = conn.recv()
                    state[vertices] = shard
                """
            ),
            self.PATH,
            self.RULE,
        )
        bad = unsuppressed(findings)
        assert len(bad) == 1
        assert "fence" in bad[0].message

    def test_fenced_reply_application_is_clean(self):
        findings = lint_source(
            textwrap.dedent(
                """
                def drain(conn, state, handle, attempt):
                    epoch, reply_attempt, vertices, shard = conn.recv()
                    if (epoch, reply_attempt) != (handle.epoch, attempt):
                        raise RuntimeError("stale reply")
                    state[vertices] = shard
                """
            ),
            self.PATH,
            self.RULE,
        )
        assert findings == []

    def test_second_recv_invalidates_earlier_fence(self):
        # the fence covers one message; reusing it for the next reply
        # is exactly the stale-reply race
        findings = lint_source(
            textwrap.dedent(
                """
                def drain(conn, state, handle, attempt):
                    epoch, reply_attempt, vertices, shard = conn.recv()
                    if (epoch, reply_attempt) != (handle.epoch, attempt):
                        raise RuntimeError("stale reply")
                    state[vertices] = shard
                    epoch, reply_attempt, vertices, shard = conn.recv()
                    state[vertices] = shard
                """
            ),
            self.PATH,
            self.RULE,
        )
        assert len(unsuppressed(findings)) == 1

    def test_worker_function_writing_module_global(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import multiprocessing

                PENDING = {}

                def worker_main(conn):
                    record(conn)

                def record(conn):
                    PENDING["x"] = 1

                def start():
                    return multiprocessing.Process(target=worker_main)
                """
            ),
            self.PATH,
            self.RULE,
        )
        bad = unsuppressed(findings)
        assert len(bad) == 1
        assert "PENDING" in bad[0].message

    def test_supervisor_side_global_write_is_fine(self):
        findings = lint_source(
            textwrap.dedent(
                """
                PENDING = {}

                def supervisor():
                    PENDING["x"] = 1
                """
            ),
            self.PATH,
            self.RULE,
        )
        assert findings == []


class TestSub002:
    RULE = [RULES_BY_ID["SUB-002"]]
    PATH = "repro/resilience/harness.py"

    def test_transitive_escape_through_helper_module(self, tmp_path):
        pkg = tmp_path / "repro" / "resilience"
        pkg.mkdir(parents=True)
        (pkg / "rawio.py").write_text(
            "def slurp(path):\n"
            "    with open(path, 'rb') as fh:\n"
            "        return fh.read()\n"
        )
        (pkg / "harness.py").write_text(
            "from repro.resilience.rawio import slurp\n"
            "def load(path):\n"
            "    return slurp(path)\n"
        )
        findings = unsuppressed(lint_paths([str(tmp_path)], self.RULE))
        assert findings
        assert all(f.path.endswith("harness.py") for f in findings)
        assert any("slurp" in f.message for f in findings)

    def test_raw_open_reachable_from_hostsliced(self, tmp_path):
        # the cross-host driver writes shards and the cursor itself, so
        # it is in scope even though no resilience module wraps it
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "shardio.py").write_text(
            "def dump(path, blob):\n"
            "    with open(path, 'wb') as fh:\n"
            "        fh.write(blob)\n"
        )
        (pkg / "hostsliced.py").write_text(
            "from repro.core.shardio import dump\n"
            "def publish_shard(path, blob):\n"
            "    dump(path, blob)\n"
        )
        findings = unsuppressed(lint_paths([str(tmp_path)], self.RULE))
        assert [f.path.endswith("hostsliced.py") for f in findings] == [True]
        assert "shardio.dump" in findings[0].message

    @pytest.mark.parametrize(
        "path",
        [
            "repro/resilience/harness.py",
            "repro/resilience/durable.py",
            "repro/resilience/lease.py",
            "repro/core/slicing.py",
            "repro/core/mpsliced.py",
            "repro/core/hostsliced.py",
        ],
    )
    def test_scope_is_the_modules_that_open_durable_artifacts(self, path):
        source = "def load(path):\n    return open(path, 'rb').read()\n"
        assert len(unsuppressed(lint_source(source, path, self.RULE))) == 1
        assert lint_source(source, "repro/core/functional.py", self.RULE) == []

    def test_sanctioned_io_is_clean(self):
        findings = lint_source(
            textwrap.dedent(
                """
                from repro.ioutil import read_bytes

                def load(path):
                    return read_bytes(path)
                """
            ),
            self.PATH,
            self.RULE,
        )
        assert findings == []

    def test_direct_raw_open_in_substrate(self):
        findings = lint_source(
            textwrap.dedent(
                """
                def load(path):
                    with open(path, "rb") as fh:
                        return fh.read()
                """
            ),
            self.PATH,
            self.RULE,
        )
        assert len(unsuppressed(findings)) == 1


# ----------------------------------------------------------------------
# Suppression-span edge cases
# ----------------------------------------------------------------------


class TestSuppressionSpans:
    def test_allow_on_closing_paren_of_multiline_call(self):
        source = (
            "import time\n"
            "stamp = time.time(\n"
            ")  # repro: allow(DET-001)\n"
        )
        findings = lint_source(
            source, "repro/core/mod.py", [RULES_BY_ID["DET-001"]]
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].line == 2  # reported at the call, not the )

    def test_allow_on_decorator_line_of_decorated_def(self):
        # DUR-002's fall-off escape anchors at the def node; the span
        # must stretch up over the decorator list
        source = (
            "import functools\n"
            "\n"
            "@functools.lru_cache  # repro: allow(DUR-002)\n"
            "def publish(writer, k):\n"
            "    writer.commit(k)\n"
        )
        findings = lint_source(
            source, "x/core/hostsliced.py", [RULES_BY_ID["DUR-002"]]
        )
        assert len(findings) == 1
        assert findings[0].suppressed

    def test_decorated_def_without_allow_still_fires(self):
        source = (
            "import functools\n"
            "\n"
            "@functools.lru_cache\n"
            "def publish(writer, k):\n"
            "    writer.commit(k)\n"
        )
        findings = lint_source(
            source, "x/core/hostsliced.py", [RULES_BY_ID["DUR-002"]]
        )
        assert len(unsuppressed(findings)) == 1

    def test_allow_inside_body_does_not_cover_the_def(self):
        # the span stops at the first body statement: a directive deep
        # in the body must not silently absolve the whole function
        source = (
            "def publish(writer, k):\n"
            "    writer.commit(k)\n"
            "    x = 1  # repro: allow(DUR-002)\n"
        )
        findings = lint_source(
            source, "x/core/hostsliced.py", [RULES_BY_ID["DUR-002"]]
        )
        assert len(unsuppressed(findings)) == 1


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------


def _violation_tree(tmp_path, copies=1):
    victim = tmp_path / "core" / "mod.py"
    victim.parent.mkdir(parents=True, exist_ok=True)
    body = "import time\n" + "".join(
        f"def stamp{i}():\n    return time.time()\n" for i in range(copies)
    )
    victim.write_text(body)
    return victim


class TestBaseline:
    def test_roundtrip_and_apply(self, tmp_path):
        victim = _violation_tree(tmp_path, copies=2)
        findings = unsuppressed(
            lint_paths([str(victim)], [RULES_BY_ID["DET-001"]])
        )
        assert len(findings) == 2
        baseline = tmp_path / "baseline.json"
        assert write_baseline(findings, str(baseline)) == 1
        entries = read_baseline(str(baseline))
        assert entries == {finding_key(findings[0]): 2}
        new, baselined = apply_baseline(findings, entries)
        assert new == [] and len(baselined) == 2

    def test_count_overflow_fails(self, tmp_path):
        victim = _violation_tree(tmp_path, copies=1)
        findings = unsuppressed(
            lint_paths([str(victim)], [RULES_BY_ID["DET-001"]])
        )
        baseline = tmp_path / "baseline.json"
        write_baseline(findings, str(baseline))
        _violation_tree(tmp_path, copies=3)  # two NEW identical findings
        findings = unsuppressed(
            lint_paths([str(victim)], [RULES_BY_ID["DET-001"]])
        )
        new, baselined = apply_baseline(
            findings, read_baseline(str(baseline))
        )
        assert len(baselined) == 1 and len(new) == 2

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError, match="version"):
            read_baseline(str(bad))
        bad.write_text('{"entries": "nope", "version": 1}')
        with pytest.raises(ValueError, match="malformed"):
            read_baseline(str(bad))

    def test_cli_ratchet_flow(self, tmp_path, capsys):
        victim = _violation_tree(tmp_path, copies=1)
        baseline = tmp_path / "baseline.json"
        base_args = ["lint", str(victim), "--strict", "--baseline",
                     str(baseline)]
        # strict fails before a baseline exists...
        assert main(["lint", str(victim), "--strict"]) == 1
        # ...writing one turns the same tree green...
        assert main(base_args + ["--update-baseline"]) == 0
        assert main(base_args) == 0
        out = capsys.readouterr().out
        assert "[baseline]" in out
        assert "1 baselined, 0 new" in out
        # ...and a NEW violation still fails strict
        _violation_tree(tmp_path, copies=2)
        assert main(base_args) == 1
        capsys.readouterr()

    def test_cli_json_gains_baseline_block(self, tmp_path):
        victim = _violation_tree(tmp_path, copies=1)
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "out.json"
        assert main(["lint", str(victim), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["lint", str(victim), "--baseline", str(baseline),
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())["lint"]
        # the counts schema is frozen; baseline rides alongside it
        assert payload["counts"] == {
            "total": 1,
            "unsuppressed": 1,
            "suppressed": 0,
            "by_rule": {"DET-001": 1},
        }
        assert payload["baseline"]["baselined"] == 1
        assert payload["baseline"]["new"] == 0
        assert payload["ok"] is True

    def test_json_has_no_baseline_block_without_flag(self, tmp_path):
        victim = _violation_tree(tmp_path, copies=1)
        out = tmp_path / "out.json"
        main(["lint", str(victim), "--json", str(out)])
        assert "baseline" not in json.loads(out.read_text())["lint"]

    def test_update_baseline_requires_baseline(self, tmp_path, capsys):
        victim = _violation_tree(tmp_path, copies=1)
        assert main(["lint", str(victim), "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# GitHub annotation format
# ----------------------------------------------------------------------


class TestGithubFormat:
    def test_annotations_for_failing_findings(self, tmp_path, capsys):
        victim = _violation_tree(tmp_path, copies=1)
        assert main(["lint", str(victim), "--strict", "--format",
                     "github"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("::error"))
        assert f"file={victim}" in line
        assert "line=3" in line
        assert "title=repro-lint DET-001" in line
        assert line.endswith("::wall-clock read time.time() in a "
                             "deterministic module")

    def test_baselined_findings_get_no_annotation(self, tmp_path, capsys):
        victim = _violation_tree(tmp_path, copies=1)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(victim), "--baseline", str(baseline),
              "--update-baseline"])
        capsys.readouterr()
        assert main(["lint", str(victim), "--strict", "--baseline",
                     str(baseline), "--format", "github"]) == 0
        assert "::error" not in capsys.readouterr().out

    def test_github_format_rejects_json_stdout(self, tmp_path, capsys):
        victim = _violation_tree(tmp_path, copies=1)
        assert main(["lint", str(victim), "--format", "github",
                     "--json"]) == 2
        capsys.readouterr()

    def test_clean_tree_emits_no_annotations(self, capsys):
        assert main(["lint", PACKAGE_DIR, "--strict", "--format",
                     "github"]) == 0
        assert "::error" not in capsys.readouterr().out
