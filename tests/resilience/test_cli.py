"""CLI surface of the resilience subsystem: flags, errors, campaign verb."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_resilience_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.rate == 1e-3
        assert args.engine == "functional"
        assert args.dataset is None

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "pagerank", "--fault-kinds", "meteor"]
            )

    def test_bad_dead_lane_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "pagerank", "--dead-lane", "two:soon"]
            )

    def test_dead_lane_cycle_defaults_to_zero(self):
        args = build_parser().parse_args(
            ["run", "pagerank", "--dead-lane", "3"]
        )
        assert args.dead_lane == [(3, 0)]


class TestRunWithFaults:
    def test_faulty_sliced_run_reports_resilience(self, capsys):
        code = main(
            [
                "run", "pagerank", "--dataset", "WG", "--scale", "0.03",
                "--engine", "sliced", "--fault-rate", "1e-3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "sliced"
        assert "resilience" in payload["result"]
        assert payload["result"]["resilience"]["faults"]["total"] >= 0

    def test_resilience_flag_alone_enables_harness(self, capsys):
        code = main(
            [
                "run", "bfs", "--dataset", "WG", "--scale", "0.03",
                "--resilience", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["resilience"]["faults"]["total"] == 0

    def test_fault_flags_rejected_on_baseline_engines(self, capsys):
        code = main(
            [
                "run", "pagerank", "--dataset", "WG", "--scale", "0.03",
                "--engine", "bsp", "--fault-rate", "1e-3",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bsp" in err


class TestQueueCapacityErrors:
    ARGS = [
        "run", "pagerank", "--dataset", "WG", "--scale", "0.03",
        "--engine", "sliced", "--num-slices", "2",
        "--queue-capacity", "40", "--no-auto-slice",
    ]

    def test_clean_nonzero_exit_with_hint(self, capsys):
        assert main(self.ARGS) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "--num-slices" in captured.err  # actionable hint
        assert "Traceback" not in captured.err

    def test_json_structured_error(self, capsys):
        assert main(self.ARGS + ["--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        error = payload["error"]
        assert error["type"] == "QueueCapacityError"
        assert error["capacity"] == 40
        assert error["required_slices"] > 2
        assert "--num-slices" in error["suggestion"]

    def test_auto_slice_recovers(self, capsys):
        args = [a for a in self.ARGS if a != "--no-auto-slice"]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["converged"]


class TestGcVerb:
    def test_gc_compacts_an_auto_sliced_journal(self, tmp_path, capsys):
        """The journal's header, not --num-slices, names the slice count
        gc compacts with: auto-slicing gives this run more than two."""
        run_dir = tmp_path / "run"
        run = [
            "run", "pagerank", "--dataset", "WG", "--scale", "0.03",
            "--engine", "sliced", "--num-slices", "2",
            "--queue-capacity", "40", "--checkpoint-dir", str(run_dir),
            "--checkpoint-interval", "2", "--json",
        ]
        assert main(run) == 0
        assert json.loads(capsys.readouterr().out)["result"]["converged"]
        assert main(["gc", str(run_dir), "--keep", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["journal"]["upto"] == report["retained"][0][
            "journal_commit"
        ]
        assert main(["resume", str(run_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["converged"]


class TestCampaignVerb:
    def test_small_campaign_passes(self, capsys):
        code = main(
            [
                "resilience", "--vertices", "80", "--edges", "400",
                "--algorithms", "pagerank,bfs", "--kinds", "drop,bitflip",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CAMPAIGN OK" in out
        assert "recovery 100%" in out

    def test_campaign_json_payload(self, capsys):
        code = main(
            [
                "resilience", "--vertices", "80", "--edges", "400",
                "--algorithms", "bfs", "--kinds", "drop", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["recovery_rate"] == 1.0
        assert payload["runs"]

    def test_bad_algorithm_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["resilience", "--algorithms", "quicksort"]
            )


class TestResumeObservability:
    """`repro resume` takes the same --trace/--metrics flags as run."""

    def _durable_run(self, tmp_path, capsys):
        # SIGKILL the victim mid-run (subprocess harness) so the resume
        # tail has real rounds for the trace/metrics flags to observe
        from .crash import _run_cli

        run_dir = tmp_path / "run"
        proc = _run_cli(
            ["run", "pagerank", "--dataset", "WG", "--scale", "0.03",
             "--checkpoint-dir", str(run_dir), "--checkpoint-interval", "4"],
            extra_env={"REPRO_CRASH_AT_ROUND": "9"},
        )
        assert proc.returncode != 0  # the victim must have died
        capsys.readouterr()
        return run_dir

    def test_resume_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import load_chrome_trace, read_metrics_jsonl

        run_dir = self._durable_run(tmp_path, capsys)
        trace_path = tmp_path / "resume.trace.json"
        metrics_path = tmp_path / "resume.metrics.jsonl"
        assert main(
            ["resume", str(run_dir), "--trace", str(trace_path),
             "--metrics", str(metrics_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["path"] == str(trace_path)
        trace = load_chrome_trace(str(trace_path))
        names = {r.get("name") for r in trace["traceEvents"]}
        # the resumed tail traces its rounds and the resume span itself
        assert "round" in names
        assert "resume" in names
        records = read_metrics_jsonl(str(metrics_path))
        stats = [r for r in records if r.get("type") == "stats"]
        assert len(stats) == 1
        assert stats[0]["engine"] == "functional"
        assert payload["metrics"]["lines"] == len(records)

    def test_resume_trace_categories_filter(self, tmp_path, capsys):
        from repro.obs import load_chrome_trace

        run_dir = self._durable_run(tmp_path, capsys)
        trace_path = tmp_path / "filtered.trace.json"
        assert main(
            ["resume", str(run_dir), "--trace", str(trace_path),
             "--trace-categories", "round"]
        ) == 0
        trace = load_chrome_trace(str(trace_path))
        non_meta = [r for r in trace["traceEvents"] if r["ph"] != "M"]
        assert non_meta
        assert {r["name"] for r in non_meta} == {"round"}

    def test_resume_without_flags_unchanged(self, tmp_path, capsys):
        run_dir = self._durable_run(tmp_path, capsys)
        assert main(["resume", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "trace" not in payload
        assert "metrics" not in payload
