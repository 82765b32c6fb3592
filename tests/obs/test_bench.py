"""Unit tests for the bench harness (repro.obs.bench)."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import bench as obs_bench
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchCell,
    check_regression,
    default_artifact_name,
    default_suite,
    host_fingerprint,
    load_bench,
    run_cell,
    run_suite,
    validate_bench,
    work_units,
    write_bench,
)


def _cell_record(key="functional/bfs/WG@0.05", events_per_sec=1000.0):
    """A minimal schema-complete cell record for artifact tests."""
    engine, algorithm, rest = key.split("/")
    dataset, scale = rest.split("@")
    return {
        "engine": engine,
        "algorithm": algorithm,
        "dataset": dataset,
        "scale": float(scale),
        "key": key,
        "warmup": 0,
        "repeats": 1,
        "seconds": [0.5],
        "median_seconds": 0.5,
        "work_units": int(events_per_sec * 0.5),
        "work_unit": "events_processed",
        "events_per_sec": events_per_sec,
        "rounds": 10,
        "rounds_per_sec": 20.0,
        "converged": True,
        "peak_rss_kb": 1024,
    }


def _artifact(cells):
    return {
        "format_version": BENCH_SCHEMA_VERSION,
        "host": {
            "fingerprint": "deadbeef",
            "system": "Linux",
            "machine": "x86_64",
            "python": "3.11",
            "cpus": 4,
        },
        "suite": {"warmup": 0, "repeats": 1},
        "cells": cells,
    }


class TestSuiteShape:
    def test_default_suite_is_cross_product(self):
        cells = default_suite()
        assert len(cells) == 6  # 3 engines x 2 algorithms
        assert len({c.engine for c in cells}) == 3
        assert len({c.algorithm for c in cells}) == 2

    def test_cell_key_is_stable(self):
        cell = BenchCell("sliced", "pagerank", "WG", 0.05)
        assert cell.key == "sliced/pagerank/WG@0.05"

    def test_fingerprint_is_deterministic_hex(self):
        fp = host_fingerprint()
        assert fp == host_fingerprint()
        assert len(fp) == 8
        int(fp, 16)  # hex
        assert default_artifact_name() == f"BENCH_{fp}.json"


class TestWorkUnits:
    def test_prefers_events_processed(self):
        info = {"stats": {"events_processed": 10, "edges_scanned": 99}}
        assert work_units(info) == 10

    def test_falls_back_to_edges_then_rounds(self):
        assert work_units({"stats": {"edges_scanned": 7}}) == 7
        # a message count is not a work unit: every sliced engine
        # reports events_processed
        assert work_units({"stats": {"messages": 5}, "passes": 2}) == 2
        assert work_units({"stats": {}, "rounds": 3}) == 3
        assert work_units({"stats": {}, "passes": 2}) == 2


class TestRunCell:
    def test_measures_a_tiny_cell(self):
        cell = BenchCell("functional", "bfs", "WG", 0.05)
        record = run_cell(cell, warmup=0, repeats=2)
        assert record["key"] == cell.key
        assert len(record["seconds"]) == 2
        assert record["median_seconds"] in record["seconds"]
        assert record["events_per_sec"] > 0
        assert record["work_unit"] == "events_processed"
        assert record["converged"] is True
        assert record["peak_rss_kb"] > 0

    def test_rejects_bad_repeats_and_warmup(self):
        cell = BenchCell("functional", "bfs", "WG", 0.05)
        with pytest.raises(ReproError, match="repeats"):
            run_cell(cell, repeats=0)
        with pytest.raises(ReproError, match="warmup"):
            run_cell(cell, warmup=-1)

    def test_empty_suite_raises(self):
        with pytest.raises(ReproError, match="empty"):
            run_suite([])


class TestArtifactIO:
    def test_write_then_load_round_trip(self, tmp_path):
        payload = _artifact([_cell_record()])
        path = tmp_path / "BENCH_test.json"
        write_bench(payload, str(path))
        assert load_bench(str(path)) == payload

    def test_validate_rejects_wrong_version(self):
        payload = _artifact([_cell_record()])
        payload["format_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="format_version"):
            validate_bench(payload)

    def test_validate_rejects_missing_cell_key(self):
        record = _cell_record()
        del record["events_per_sec"]
        with pytest.raises(ValueError, match="events_per_sec"):
            validate_bench(_artifact([record]))

    def test_validate_rejects_no_cells(self):
        with pytest.raises(ValueError, match="no cells"):
            validate_bench(_artifact([]))

    def test_load_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_bench(str(tmp_path / "absent.json"))

    def test_load_invalid_json_is_typed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_bench(str(path))

    def test_write_refuses_invalid_payload(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench({"format_version": 0}, str(tmp_path / "x.json"))

    def test_real_suite_validates(self, tmp_path):
        payload = run_suite(
            [BenchCell("functional", "bfs", "WG", 0.05)],
            warmup=0,
            repeats=1,
        )
        validate_bench(payload)
        path = write_bench(payload, str(tmp_path / "real.json"))
        with open(path) as handle:
            assert json.load(handle) == payload


class TestRegression:
    def test_identical_artifacts_pass(self):
        current = _artifact([_cell_record(events_per_sec=1000.0)])
        report = check_regression(current, current, tolerance=0.25)
        assert report.ok
        assert report.compared == 1
        assert report.unmatched == []

    def test_slowdown_beyond_tolerance_fails(self):
        baseline = _artifact([_cell_record(events_per_sec=1000.0)])
        current = _artifact([_cell_record(events_per_sec=700.0)])
        report = check_regression(current, baseline, tolerance=0.25)
        assert not report.ok
        (reg,) = report.regressions
        assert reg["key"] == "functional/bfs/WG@0.05"
        assert reg["floor_events_per_sec"] == pytest.approx(750.0)
        assert reg["ratio"] == pytest.approx(0.7)

    def test_slowdown_within_tolerance_passes(self):
        baseline = _artifact([_cell_record(events_per_sec=1000.0)])
        current = _artifact([_cell_record(events_per_sec=800.0)])
        assert check_regression(current, baseline, tolerance=0.25).ok

    def test_speedup_always_passes(self):
        baseline = _artifact([_cell_record(events_per_sec=1000.0)])
        current = _artifact([_cell_record(events_per_sec=5000.0)])
        assert check_regression(current, baseline).ok

    def test_new_cells_are_unmatched_not_failures(self):
        baseline = _artifact([_cell_record(events_per_sec=1000.0)])
        current = _artifact(
            [
                _cell_record(events_per_sec=1000.0),
                _cell_record(key="bsp/bfs/WG@0.05", events_per_sec=1.0),
            ]
        )
        report = check_regression(current, baseline)
        assert report.ok
        assert report.unmatched == ["bsp/bfs/WG@0.05"]
        assert report.compared == 1

    def test_tolerance_validation(self):
        payload = _artifact([_cell_record()])
        with pytest.raises(ReproError, match="tolerance"):
            check_regression(payload, payload, tolerance=1.0)
        with pytest.raises(ReproError, match="tolerance"):
            check_regression(payload, payload, tolerance=-0.1)

    def test_report_to_json_shape(self):
        payload = _artifact([_cell_record()])
        report = check_regression(payload, payload)
        assert report.to_json() == {
            "tolerance": obs_bench.DEFAULT_TOLERANCE,
            "compared": 1,
            "unmatched": [],
            "regressions": [],
            "ok": True,
        }
