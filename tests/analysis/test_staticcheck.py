"""Tests for ``repro.analysis.staticcheck`` (the ``repro lint`` pass).

Structure mirrors the subsystem's contract:

- every rule's paired fixtures: the trigger snippet finds, the clean
  snippet doesn't, and the suppressed variant is reported-but-allowed;
- the framework mechanics (suppressions, scoping, import resolution,
  deterministic ordering, parse failures);
- rule-specific edges (seeded vs unseeded RNG, read-mode opens,
  same-module factories, typed excepts);
- the meta-test: the real ``src/repro`` tree must be lint-clean;
- the CLI verb's exit codes and JSON schema.
"""

import json
import os
from pathlib import Path

import pytest

import repro
from repro.analysis.staticcheck import (
    RULES,
    RULES_BY_ID,
    lint_paths,
    lint_source,
    rule_ids,
    run_selfcheck,
    select_rules,
)
from repro.analysis.staticcheck.selfcheck import suppressed_variant
from repro.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def unsuppressed(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# Paired fixtures, one trio per rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.id)
class TestRuleFixtures:
    def test_trigger_fixture_fires(self, rule):
        findings = lint_source(
            rule.fixture_trigger, rule.fixture_path, [rule]
        )
        assert unsuppressed(findings), rule.id
        assert all(f.rule == rule.id for f in findings)
        assert all(f.hint == rule.hint for f in findings)

    def test_clean_fixture_passes(self, rule):
        findings = lint_source(rule.fixture_clean, rule.fixture_path, [rule])
        assert findings == []

    def test_suppressed_variant_is_allowed(self, rule):
        variant = suppressed_variant(rule)
        assert f"# repro: allow({rule.id})" in variant
        findings = lint_source(variant, rule.fixture_path, [rule])
        assert findings, "suppressed findings are still reported"
        assert unsuppressed(findings) == []

    def test_fixture_path_is_in_scope(self, rule):
        assert rule.applies_to(rule.fixture_path)


class TestSelfCheck:
    def test_registry_is_healthy(self):
        assert run_selfcheck() == []

    def test_broken_rule_is_caught(self):
        class Dead(type(RULES_BY_ID["DET-001"])):
            id = "DET-999"
            fixture_trigger = "x = 1\n"  # can never fire

        failures = run_selfcheck([Dead()])
        assert any(f.fixture == "trigger" for f in failures)


# ----------------------------------------------------------------------
# Framework mechanics
# ----------------------------------------------------------------------


class TestSuppressions:
    RULE = [RULES_BY_ID["DUR-001"]]
    PATH = "repro/obs/fixture.py"

    def test_previous_line_suppresses(self):
        source = (
            "# torn-file risk accepted here  # repro: allow(DUR-001)\n"
            'handle = open("out.json", "w")\n'
        )
        findings = lint_source(source, self.PATH, self.RULE)
        assert [f.suppressed for f in findings] == [True]

    def test_wildcard_and_multiple_ids(self):
        for directive in ("DUR-001, DET-001", "*"):
            source = f'open("o", "w")  # repro: allow({directive})\n'
            findings = lint_source(source, self.PATH, self.RULE)
            assert [f.suppressed for f in findings] == [True]

    def test_wrong_id_does_not_suppress(self):
        source = 'open("o", "w")  # repro: allow(DET-001)\n'
        findings = lint_source(source, self.PATH, self.RULE)
        assert [f.suppressed for f in findings] == [False]

    def test_distant_comment_does_not_suppress(self):
        source = (
            "# repro: allow(DUR-001)\n"
            "\n"
            'open("o", "w")\n'
        )
        findings = lint_source(source, self.PATH, self.RULE)
        assert [f.suppressed for f in findings] == [False]


class TestFramework:
    def test_out_of_scope_file_is_skipped(self):
        rule = RULES_BY_ID["DET-001"]
        source = "import time\nstamp = time.time()\n"
        assert lint_source(source, "repro/graph/io.py", [rule]) == []
        assert lint_source(source, "repro/core/queue.py", [rule])

    def test_import_aliases_resolve(self):
        rule = RULES_BY_ID["DET-001"]
        aliased = (
            "from time import perf_counter as tick\n"
            "span = tick()\n"
        )
        findings = lint_source(aliased, "repro/core/x.py", [rule])
        assert [f.message for f in findings] == [
            "wall-clock read time.perf_counter() in a deterministic module"
        ]

    def test_findings_sorted_and_located(self):
        source = (
            "import time\n"
            "import random\n"
            "b = random.random()\n"
            "a = time.time()\n"
        )
        findings = lint_source(source, "repro/core/x.py", list(RULES))
        assert [(f.line, f.rule) for f in findings] == [
            (3, "DET-002"),
            (4, "DET-001"),
        ]
        assert all(f.path == "repro/core/x.py" for f in findings)

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", "repro/core/x.py", RULES)
        assert [f.rule for f in findings] == ["PARSE"]
        assert not findings[0].suppressed

    def test_select_rules_filters_and_rejects_unknown(self):
        only = select_rules(select=("DUR-001",))
        assert [rule.id for rule in only] == ["DUR-001"]
        without = select_rules(ignore=("DUR-001",))
        assert "DUR-001" not in [rule.id for rule in without]
        with pytest.raises(ValueError, match="DUR-9"):
            select_rules(select=("DUR-9",))

    def test_rule_ids_are_stable(self):
        assert rule_ids() == (
            "DET-001",
            "DET-002",
            "DUR-001",
            "ENG-001",
            "OBS-001",
            "RES-001",
            "RES-002",
            "DET-003",
            "DUR-002",
            "CONC-001",
            "SUB-002",
        )


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------


class TestDeterminismRules:
    def test_lease_file_is_allowlisted(self):
        rule = RULES_BY_ID["DET-001"]
        source = "import time\nage = time.time()\n"
        assert lint_source(source, "repro/resilience/lease.py", [rule]) == []
        assert lint_source(source, "repro/resilience/durable.py", [rule])

    def test_seeded_default_rng_passes(self):
        rule = [RULES_BY_ID["DET-002"]]
        seeded = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(seeded, "repro/graph/x.py", rule) == []

    def test_unseeded_default_rng_flagged(self):
        rule = [RULES_BY_ID["DET-002"]]
        unseeded = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_source(unseeded, "repro/graph/x.py", rule)
        assert "without a seed" in findings[0].message

    def test_entropy_sources_flagged(self):
        rule = [RULES_BY_ID["DET-002"]]
        source = (
            "import os\n"
            "import numpy.random\n"
            "token = os.urandom(8)\n"
            "noise = numpy.random.rand(3)\n"
        )
        findings = lint_source(source, "repro/sim/x.py", rule)
        assert len(findings) == 2

    def test_method_named_random_not_flagged(self):
        # .random() on an object (a seeded Generator) must not resolve
        rule = [RULES_BY_ID["DET-002"]]
        source = "def draw(rng):\n    return rng.random()\n"
        assert lint_source(source, "repro/graph/x.py", rule) == []


class TestDurabilityRule:
    RULE = [RULES_BY_ID["DUR-001"]]

    def test_read_modes_pass(self):
        source = (
            'a = open("f")\n'
            'b = open("f", "r")\n'
            'c = open("f", "rb")\n'
        )
        assert lint_source(source, "repro/graph/io.py", self.RULE) == []

    def test_mode_keyword_and_append_flagged(self):
        source = (
            'a = open("f", mode="ab")\n'
            'b = open("f", "a")\n'
        )
        findings = lint_source(source, "repro/graph/io.py", self.RULE)
        assert len(findings) == 2

    def test_pathlib_writes_flagged(self):
        source = (
            "from pathlib import Path\n"
            'Path("f").write_text("x")\n'
            'Path("f").open("w")\n'
        )
        findings = lint_source(source, "repro/graph/io.py", self.RULE)
        assert len(findings) == 2

    def test_ioutil_and_journal_allowlisted(self):
        source = 'handle = open("f", "wb")\n'
        assert lint_source(source, "src/repro/ioutil.py", self.RULE) == []
        assert (
            lint_source(source, "repro/resilience/journal.py", self.RULE)
            == []
        )


class TestEngineRegistryRule:
    RULE = [RULES_BY_ID["ENG-001"]]

    def test_same_module_factory_exempt(self):
        source = (
            "class SlicedGraphPulse:\n"
            "    pass\n"
            "\n"
            "def build_sliced(partition, spec):\n"
            "    return SlicedGraphPulse(partition, spec)\n"
        )
        assert lint_source(source, "repro/core/slicing.py", self.RULE) == []

    def test_tests_are_allowlisted(self):
        source = (
            "from repro.core.functional import FunctionalGraphPulse\n"
            "engine = FunctionalGraphPulse(g, spec)\n"
        )
        assert lint_source(source, "tests/core/test_x.py", self.RULE) == []
        assert lint_source(source, "repro/analysis/x.py", self.RULE)

    def test_attribute_call_flagged(self):
        source = (
            "import repro.core.functional as functional\n"
            "engine = functional.FunctionalGraphPulse(g, spec)\n"
        )
        findings = lint_source(source, "repro/analysis/x.py", self.RULE)
        assert "FunctionalGraphPulse" in findings[0].message


class TestSilentExceptRule:
    RULE = [RULES_BY_ID["RES-001"]]
    PATH = "repro/resilience/recovery.py"

    def test_bare_except_always_flagged(self):
        source = (
            "def f(step, log):\n"
            "    try:\n"
            "        step()\n"
            "    except:\n"
            "        log('failed')\n"
        )
        findings = lint_source(source, self.PATH, self.RULE)
        assert "bare 'except:'" in findings[0].message

    def test_typed_silent_except_passes(self):
        source = (
            "def f(path):\n"
            "    try:\n"
            "        path.unlink()\n"
            "    except FileNotFoundError:\n"
            "        pass\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_broad_except_with_handling_passes(self):
        source = (
            "def f(step, log):\n"
            "    try:\n"
            "        step()\n"
            "    except Exception as exc:\n"
            "        log(exc)\n"
            "        raise\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_broad_tuple_silent_flagged(self):
        source = (
            "def f(step):\n"
            "    try:\n"
            "        step()\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        )
        findings = lint_source(source, self.PATH, self.RULE)
        assert "silently swallows" in findings[0].message

    def test_out_of_scope_module_skipped(self):
        source = (
            "def f(step):\n"
            "    try:\n"
            "        step()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert lint_source(source, "repro/obs/export.py", self.RULE) == []


class TestBoundedRetryRule:
    RULE = [RULES_BY_ID["RES-002"]]
    PATH = "repro/resilience/storagefaults.py"

    def test_while_one_constant_also_counts(self):
        source = (
            "def f(write):\n"
            "    while 1:\n"
            "        try:\n"
            "            return write()\n"
            "        except OSError:\n"
            "            continue\n"
        )
        findings = lint_source(source, self.PATH, self.RULE)
        assert "unbounded" in findings[0].message

    def test_bare_except_in_retry_loop_flagged(self):
        source = (
            "def f(write):\n"
            "    while True:\n"
            "        try:\n"
            "            return write()\n"
            "        except:\n"
            "            pass\n"
        )
        assert lint_source(source, self.PATH, self.RULE)

    def test_handler_that_reraises_passes(self):
        source = (
            "def f(write, fatal):\n"
            "    while True:\n"
            "        try:\n"
            "            return write()\n"
            "        except OSError as exc:\n"
            "            if fatal(exc):\n"
            "                pass\n"
            "            raise\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_handler_that_breaks_passes(self):
        source = (
            "def f(write):\n"
            "    while True:\n"
            "        try:\n"
            "            write()\n"
            "        except OSError:\n"
            "            break\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_bounded_for_loop_is_the_blessed_idiom(self):
        source = (
            "def f(write, attempts):\n"
            "    for attempt in range(attempts):\n"
            "        try:\n"
            "            return write()\n"
            "        except OSError:\n"
            "            if attempt == attempts - 1:\n"
            "                raise\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_non_io_retry_is_out_of_jurisdiction(self):
        source = (
            "def f(poll):\n"
            "    while True:\n"
            "        try:\n"
            "            return poll()\n"
            "        except KeyError:\n"
            "            continue\n"
        )
        assert lint_source(source, self.PATH, self.RULE) == []

    def test_out_of_scope_module_skipped(self):
        source = (
            "def f(write):\n"
            "    while True:\n"
            "        try:\n"
            "            return write()\n"
            "        except OSError:\n"
            "            continue\n"
        )
        assert lint_source(source, "repro/core/slicing.py", self.RULE) == []


# ----------------------------------------------------------------------
# The real tree must be clean
# ----------------------------------------------------------------------


class TestRealTree:
    def test_src_repro_has_no_unsuppressed_findings(self):
        findings = lint_paths([PACKAGE_DIR], RULES)
        bad = unsuppressed(findings)
        assert bad == [], "\n".join(f.format() for f in bad)

    def test_known_exemptions_are_visible(self):
        # the suppressed sites are reported (auditable), not hidden
        findings = lint_paths([PACKAGE_DIR], RULES)
        rules = {f.rule for f in findings if f.suppressed}
        assert "DET-001" in rules  # durable.py resume-span wall clock
        assert "ENG-001" in rules  # baselines' internal BSP substrate


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------


class TestLintCLI:
    def test_strict_clean_tree_exits_zero(self, capsys):
        assert main(["lint", PACKAGE_DIR, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "lint: 0 finding(s)" in out

    def test_strict_violation_exits_one(self, tmp_path, capsys):
        victim = tmp_path / "repro" / "obs" / "bad.py"
        victim.parent.mkdir(parents=True)
        victim.write_text('open("o", "w").write("x")\n')
        assert main(["lint", str(victim)]) == 0  # advisory by default
        assert main(["lint", str(victim), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "DUR-001" in out
        assert "hint:" in out

    def test_json_schema(self, tmp_path, capsys):
        victim = tmp_path / "bad.py"
        victim.write_text(
            "import random\n"
            "x = random.random()  # repro: allow(DET-002)\n"
            "\n"
            "y = random.random()\n"
        )
        code = main(["lint", str(victim), "--strict", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)["lint"]
        assert payload["ok"] is False
        assert payload["counts"] == {
            "total": 2,
            "unsuppressed": 1,
            "suppressed": 1,
            "by_rule": {"DET-002": 1},
        }
        finding = payload["findings"][-1]
        assert set(finding) == {
            "rule",
            "severity",
            "path",
            "line",
            "col",
            "message",
            "hint",
            "suppressed",
        }

    def test_json_to_file_is_atomic_artifact(self, tmp_path):
        out = tmp_path / "lint.json"
        assert main(["lint", PACKAGE_DIR, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())["lint"]
        assert payload["ok"] is True
        assert payload["counts"]["unsuppressed"] == 0

    def test_rule_selection(self, tmp_path, capsys):
        victim = tmp_path / "bad.py"
        victim.write_text("import random\nx = random.random()\n")
        assert (
            main(["lint", str(victim), "--strict", "--ignore-rule",
                  "DET-002"])
            == 0
        )
        assert (
            main(["lint", str(victim), "--strict", "--rule", "DET-002"])
            == 1
        )
        capsys.readouterr()

    def test_unknown_rule_exits_typed(self, capsys):
        assert main(["lint", "--rule", "NOPE-1"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_typed(self, capsys):
        assert main(["lint", "does/not/exist"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_self_check_mode(self, capsys):
        assert main(["lint", "--self-check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["self_check"]
        assert payload["ok"] is True
        assert payload["rules"] == list(rule_ids())

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out
        assert "allowlist" in out

    def test_default_path_is_package(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # no src/repro here
        assert main(["lint", "--strict"]) == 0
        assert "lint: 0 finding(s)" in capsys.readouterr().out


class TestBarePrintRule:
    RULE = [RULES_BY_ID["OBS-001"]]

    def test_bare_print_flagged_everywhere(self):
        source = 'print("events drained")\n'
        findings = lint_source(source, "repro/core/engines.py", self.RULE)
        assert len(findings) == 1
        assert findings[0].rule == "OBS-001"

    def test_builtins_print_alias_flagged(self):
        source = "import builtins\nbuiltins.print('x')\n"
        assert lint_source(source, "repro/core/queue.py", self.RULE)

    def test_cli_tests_benchmarks_examples_allowlisted(self):
        source = 'print("table")\n'
        for path in (
            "repro/cli.py",
            "tests/core/test_queue.py",
            "benchmarks/bench_fig10.py",
            "examples/demo.py",
        ):
            assert lint_source(source, path, self.RULE) == []

    def test_method_named_print_not_flagged(self):
        source = "def dump(report):\n    report.print()\n"
        assert lint_source(source, "repro/core/engines.py", self.RULE) == []

    def test_suppression_comment_honoured(self):
        source = 'print("debug")  # repro: allow(OBS-001)\n'
        findings = lint_source(source, "repro/core/engines.py", self.RULE)
        assert len(findings) == 1
        assert findings[0].suppressed

    def test_stderr_write_is_the_clean_alternative(self):
        source = (
            "import sys\n"
            "sys.stderr.write('progress: round=10\\n')\n"
        )
        assert lint_source(source, "repro/obs/metrics.py", self.RULE) == []


class TestDetScopeCoversObs:
    RULE = [RULES_BY_ID["DET-001"]]

    def test_obs_modules_are_in_scope(self):
        source = "import time\nstamp = time.time()\n"
        findings = lint_source(source, "repro/obs/metrics.py", self.RULE)
        assert len(findings) == 1

    def test_bench_module_is_allowlisted(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert lint_source(source, "repro/obs/bench.py", self.RULE) == []
