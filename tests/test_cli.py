"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import load_chrome_trace, read_metrics_jsonl


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pagerank"])
        assert args.dataset == "LJ"
        assert args.engine == "functional"
        assert args.scale == 0.2

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort"])

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bfs", "--dataset", "XX"])


class TestDatasets:
    def test_lists_all_proxies(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("WG", "FB", "WK", "LJ", "TW"):
            assert name in out


class TestRun:
    @pytest.mark.parametrize("engine", ["functional", "cycle", "bsp", "ligra"])
    def test_engines(self, capsys, engine):
        code = main(
            [
                "run",
                "bfs",
                "--dataset",
                "WG",
                "--scale",
                "0.03",
                "--engine",
                engine,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: bfs" in out
        assert "values:" in out

    def test_verify_flag(self, capsys):
        code = main(
            [
                "run",
                "cc",
                "--dataset",
                "WG",
                "--scale",
                "0.03",
                "--verify",
            ]
        )
        assert code == 0
        assert "verification" in capsys.readouterr().out

    def test_functional_prints_coalescing(self, capsys):
        main(["run", "pagerank", "--dataset", "WG", "--scale", "0.03"])
        assert "coalesced away" in capsys.readouterr().out

    def test_cycle_prints_cycles(self, capsys):
        main(
            [
                "run",
                "pagerank",
                "--dataset",
                "WG",
                "--scale",
                "0.03",
                "--engine",
                "cycle",
            ]
        )
        assert "cycles:" in capsys.readouterr().out


class TestObservabilityFlags:
    RUN = ["run", "pagerank", "--dataset", "WG", "--scale", "0.03",
           "--engine", "cycle"]

    def test_trace_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.trace.json"
        assert main(self.RUN + ["--trace", str(path)]) == 0
        assert "trace:" in capsys.readouterr().out
        payload = load_chrome_trace(str(path))  # validates the format
        names = {r.get("name") for r in payload["traceEvents"]}
        assert {"round", "event", "dram.txn"} <= names

    def test_trace_categories_filter(self, tmp_path):
        path = tmp_path / "run.trace.json"
        assert main(
            self.RUN + ["--trace", str(path), "--trace-categories", "round"]
        ) == 0
        payload = load_chrome_trace(str(path))
        non_meta = [
            r for r in payload["traceEvents"] if r["ph"] != "M"
        ]
        assert non_meta
        assert {r["name"] for r in non_meta} == {"round"}

    def test_json_to_stdout_replaces_human_output(self, capsys):
        assert main(self.RUN + ["--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # the whole stdout is one JSON document
        assert payload["engine"] == "cycle"
        assert payload["workload"]["algorithm"] == "pagerank"
        assert payload["result"]["converged"] is True
        assert payload["result"]["stats"]["cycles"] > 0
        # --json payloads follow the engine-independent RunResult schema
        from repro.core import validate_run_result

        validate_run_result(payload["result"])

    def test_json_to_file_keeps_human_output(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(self.RUN + ["--json", str(path)]) == 0
        assert "cycles:" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["values"]["finite"] == payload["values"]["total"]

    def test_metrics_round_trip(self, capsys, tmp_path):
        path = tmp_path / "run.metrics.jsonl"
        assert main(
            self.RUN + ["--metrics", str(path), "--metrics-interval", "500"]
        ) == 0
        records = read_metrics_jsonl(str(path))
        samples = [r for r in records if r["type"] == "sample"]
        stats = [r for r in records if r["type"] == "stats"]
        assert samples and len(stats) == 1
        assert stats[0]["engine"] == "cycle"
        cycles = [r["cycle"] for r in samples]
        assert cycles == sorted(cycles)
        assert all(c % 500 == 0 for c in cycles)
        assert "queue_occupancy" in samples[0]

    def test_json_trace_and_metrics_compose(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.jsonl"
        assert main(
            self.RUN
            + ["--json", "--trace", str(trace_path),
               "--metrics", str(metrics_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["events"] == len(
            load_chrome_trace(str(trace_path))["traceEvents"]
        )
        assert payload["metrics"]["lines"] == len(
            read_metrics_jsonl(str(metrics_path))
        )

    def test_functional_engine_trace(self, capsys, tmp_path):
        path = tmp_path / "f.trace.json"
        assert main(
            ["run", "bfs", "--dataset", "WG", "--scale", "0.03",
             "--trace", str(path)]
        ) == 0
        payload = load_chrome_trace(str(path))
        assert any(
            r.get("name") == "round" for r in payload["traceEvents"]
        )


class TestCompare:
    def test_summary_table(self, capsys):
        code = main(
            ["compare", "cc", "--dataset", "WG", "--scale", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GraphPulse+opt vs Ligra" in out
        assert "Graphicionado" in out

    def test_json_output(self, capsys):
        code = main(
            ["compare", "cc", "--dataset", "WG", "--scale", "0.1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"]["algorithm"] == "cc"
        assert payload["summary"]["speedup_vs_ligra"] > 0


class TestProgressFlag:
    RUN = ["run", "pagerank", "--dataset", "WG", "--scale", "0.03"]

    def test_heartbeat_on_stderr_and_snapshot_in_json(self, capsys):
        assert main(self.RUN + ["--progress", "10", "--json"]) == 0
        captured = capsys.readouterr()
        assert "progress: engine=functional round=10" in captured.err
        payload = json.loads(captured.out)
        registry = payload["metrics_registry"]
        rounds = registry["engine.rounds{engine=functional}"]
        assert rounds["type"] == "counter"
        assert rounds["value"] == payload["result"]["rounds"]
        assert "queue.inserted" in registry

    def test_registry_absent_without_progress(self, capsys):
        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics_registry" not in payload

    def test_bad_interval_is_typed_error(self, capsys):
        assert main(self.RUN + ["--progress", "0"]) == 2
        assert "--progress" in capsys.readouterr().err

    def test_bad_metrics_interval_is_typed_error(self, capsys, tmp_path):
        metrics = ["--metrics", str(tmp_path / "m.jsonl")]
        assert main(self.RUN + metrics + ["--metrics-interval", "0"]) == 2
        assert "--metrics-interval" in capsys.readouterr().err

    def test_parallel_sliced_rounds_carry_its_engine_name(self, capsys):
        run = self.RUN + ["--engine", "parallel-sliced", "--num-slices", "4"]
        assert main(run + ["--progress", "10", "--json"]) == 0
        captured = capsys.readouterr()
        assert "progress: engine=parallel-sliced round=10" in captured.err
        payload = json.loads(captured.out)
        registry = payload["metrics_registry"]
        rounds = registry["engine.rounds{engine=parallel-sliced}"]
        assert rounds["value"] == payload["result"]["passes"]
        assert not any("engine=sliced}" in key for key in registry)


class TestOptionPassThrough:
    """Flags an engine does not model reach ``build_engine`` when given,
    and are refused there as a typed error (exit 2)."""

    @pytest.mark.parametrize(
        "engine, flags",
        [
            ("parallel-sliced", ["--queue-capacity", "40", "--no-auto-slice"]),
            ("parallel-sliced", ["--no-auto-slice"]),
            ("functional", ["--queue-capacity", "40"]),
        ],
    )
    def test_unmodelled_flags_are_refused(self, capsys, engine, flags):
        code = main(
            ["run", "pagerank", "--dataset", "WG", "--scale", "0.03",
             "--engine", engine, "--json"] + flags
        )
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ReproError"
        assert "does not accept option" in error["message"]


class TestWorkerTelemetry:
    RUN = ["run", "pagerank", "--dataset", "WG", "--scale", "0.03",
           "--engine", "sliced-mp", "--workers", "2", "--num-slices", "4"]

    def test_worker_stats_in_json(self, capsys):
        from repro.core import WORKER_STATS_KEYS, validate_run_result

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        info = payload["result"]
        validate_run_result(info)
        worker_stats = info["stats"]["worker_stats"]
        assert len(worker_stats) == 2
        for entry in worker_stats:
            assert set(entry) == set(WORKER_STATS_KEYS)
        assert [w["worker"] for w in worker_stats] == [0, 1]
        # every drained event is attributed to exactly one worker
        drained = sum(w["events_drained"] for w in worker_stats)
        assert drained == info["stats"]["events_processed"]
        # fault-free run: no recovery activity
        assert all(w["lease_recoveries"] == 0 for w in worker_stats)
        assert all(w["journal_replays"] == 0 for w in worker_stats)

    def test_human_output_reports_workers(self, capsys):
        assert main(self.RUN) == 0
        assert "workers: 2" in capsys.readouterr().out


class TestBenchVerb:
    BENCH = ["bench", "--engines", "functional,bsp", "--algorithms", "bfs",
             "--dataset", "WG", "--scale", "0.03", "--repeats", "1",
             "--warmup", "0"]

    def test_artifact_and_json(self, capsys, tmp_path, monkeypatch):
        from repro.obs.bench import load_bench, validate_bench

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_test.json"
        assert main(self.BENCH + ["--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_bench(payload)
        assert load_bench(str(out)) == payload
        assert [c["key"] for c in payload["cells"]] == [
            "functional/bfs/WG@0.03",
            "bsp/bfs/WG@0.03",
        ]
        assert all(c["events_per_sec"] > 0 for c in payload["cells"])

    def test_check_passes_against_own_artifact(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(self.BENCH + ["--out", str(baseline)]) == 0
        capsys.readouterr()
        out = tmp_path / "current.json"
        # wide tolerance: single-repeat timings jitter on a loaded host,
        # and this test pins the pairing/report semantics, not the speed
        code = main(
            self.BENCH
            + ["--out", str(out), "--check", str(baseline), "--json",
               "--tolerance", "0.95"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"]["ok"] is True
        assert payload["check"]["compared"] == 2

    def test_check_flags_inflated_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(self.BENCH + ["--out", str(baseline)]) == 0
        capsys.readouterr()
        inflated = json.loads(baseline.read_text())
        for cell in inflated["cells"]:
            cell["events_per_sec"] *= 100.0
        hot = tmp_path / "inflated.json"
        hot.write_text(json.dumps(inflated))
        out = tmp_path / "current.json"
        code = main(
            self.BENCH + ["--out", str(out), "--check", str(hot), "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"]["ok"] is False
        assert len(payload["check"]["regressions"]) == 2

    def test_missing_baseline_is_typed_error(self, capsys, tmp_path):
        out = tmp_path / "current.json"
        code = main(
            self.BENCH
            + ["--out", str(out), "--check", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--engines", "warpspeed"])

    def test_bad_repeats_is_typed_error(self, capsys):
        assert main(self.BENCH[:1] + ["--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err
