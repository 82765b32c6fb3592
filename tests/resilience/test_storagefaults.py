"""The storage-fault chaos layer and the recovery it exists to prove.

Four layers of coverage:

* the injector itself — seeded determinism, the shim protocol, the
  bounded ``retry_transient`` idiom (RES-002's sanctioned shape);
* live-fire chaos: faults injected at the ``ioutil`` choke points while
  a durable run is writing, proving transient errors are absorbed by
  bounded retries and staged corruption is caught by checksums;
* the generation-fallback ladder: post-mortem corruption of the newest
  checkpoint generation(s) must land ``resume_run`` on the newest
  *verifiable* generation (or a clean from-scratch re-run) with final
  vertex state bit-identical to the fault-free reference, on every
  resumable engine family (functional state+queue, sliced journaled);
* the remaining fault kinds: ``readrot`` damages what a checkpoint
  load, a journal scan or a lease read receives while the disk stays
  intact, ``correlated`` damages every sibling generation in one
  firing, and ``crash`` SIGKILLs a run before its publish renames.

The subprocess flavor of the same scenarios (kill + corrupt + CLI
resume) lives in ``test_crash_resume.py``; the retention policy and
``repro gc`` invariants are here too.
"""

import errno
import json
import os
import signal

import numpy as np
import pytest

from repro import ioutil
from repro.analysis import prepare_workload
from repro.cli import main
from repro.core import (
    FunctionalGraphPulse,
    build_sliced,
    validate_resume_payload,
)
from repro.errors import CheckpointCorruptError, OutOfSpaceError, ReproError
from repro.resilience import (
    ResilienceConfig,
    SpillJournal,
    gc_run_dir,
    resume_run,
)
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.durable import DurableCheckpointStore
from repro.resilience.storagefaults import (
    RETRY_ATTEMPTS,
    StorageFaultInjector,
    StorageFaultOp,
    StorageFaultPlan,
    corrupt_file,
    inject_storage_fault,
    injecting,
    install_from_env,
    retry_transient,
    uninstall,
)


@pytest.fixture(autouse=True)
def no_leaked_shim():
    """Every test starts and ends with fault-free IO."""
    assert ioutil.io_shim() is None
    yield
    uninstall()


# ----------------------------------------------------------------------
# retry_transient: the bounded-retry idiom
# ----------------------------------------------------------------------


class TestRetryTransient:
    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "injected")
            return "done"

        delays = []
        assert (
            retry_transient(flaky, sleep=delays.append) == "done"
        )
        assert len(calls) == 3
        # exponential backoff: each wait doubles
        assert delays == [0.002, 0.004]

    def test_non_transient_propagates_immediately(self):
        calls = []

        def lease_race():
            calls.append(1)
            raise FileExistsError(errno.EEXIST, "lease held")

        with pytest.raises(FileExistsError):
            retry_transient(lease_race, sleep=lambda _: None)
        assert len(calls) == 1  # a lost lease race must not be retried

    def test_missing_file_propagates_immediately(self):
        def gone():
            raise FileNotFoundError(errno.ENOENT, "gone")

        with pytest.raises(FileNotFoundError):
            retry_transient(gone, sleep=lambda _: None)

    def test_exhaustion_raises_with_budget_in_message(self):
        calls = []

        def flaky_disk():
            calls.append(1)
            raise OSError(errno.EIO, "io error")

        with pytest.raises(OSError, match="still failing after"):
            retry_transient(
                flaky_disk, sleep=lambda _: None, description="test write"
            )
        assert len(calls) == RETRY_ATTEMPTS

    def test_persistent_enospc_raises_typed_out_of_space(self):
        calls = []

        def full_disk():
            calls.append(1)
            raise OSError(errno.ENOSPC, "full", "/some/artifact")

        with pytest.raises(OutOfSpaceError) as excinfo:
            retry_transient(
                full_disk, sleep=lambda _: None, description="test write"
            )
        assert len(calls) == RETRY_ATTEMPTS
        exc = excinfo.value
        assert exc.errno == errno.ENOSPC
        assert exc.context["attempts"] == RETRY_ATTEMPTS
        assert exc.context["path"] == "/some/artifact"
        # the typed error still satisfies legacy OSError handlers …
        assert isinstance(exc, OSError)
        # … and an outer retry must not re-retry what an inner retry
        # already classified as persistent
        with pytest.raises(OutOfSpaceError):
            retry_transient(
                lambda: retry_transient(full_disk, sleep=lambda _: None),
                sleep=lambda _: None,
            )

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            retry_transient(lambda: None, attempts=0)


# ----------------------------------------------------------------------
# Plans and the injector
# ----------------------------------------------------------------------


class TestFaultPlans:
    def test_op_json_roundtrip(self):
        op = StorageFaultOp(
            kind="torn", path_glob="*.ckpt", op_index=2, offset=17
        )
        assert StorageFaultOp.from_json(op.to_json()) == op

    def test_plan_json_roundtrip(self):
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(kind="bitrot", path_glob="*.ckpt"),
                StorageFaultOp(kind="eio", times=3),
            ),
            seed=11,
        )
        assert StorageFaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown storage fault"):
            StorageFaultOp(kind="gamma-ray")

    def test_unknown_op_key_rejected(self):
        with pytest.raises(ReproError, match="unknown key"):
            StorageFaultOp.from_json({"kind": "torn", "sverity": 1})

    def test_install_from_env_rejects_bad_json(self):
        with pytest.raises(ReproError, match="not valid JSON"):
            install_from_env({"REPRO_STORAGE_FAULTS": "{nope"})

    def test_install_from_env_installs_and_absent_is_noop(self):
        assert install_from_env({}) is None
        plan = StorageFaultPlan(ops=(StorageFaultOp(kind="bitrot"),))
        injector = install_from_env(
            {"REPRO_STORAGE_FAULTS": json.dumps(plan.to_json())}
        )
        assert ioutil.io_shim() is injector
        assert injector.plan == plan


class TestInjectorDeterminism:
    def test_same_seed_same_damage(self):
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="bitrot", nbytes=3),), seed=9
        )
        payload = bytes(range(256)) * 4
        first = StorageFaultInjector(plan).on_append("journal.bin", payload)
        second = StorageFaultInjector(plan).on_append("journal.bin", payload)
        assert first == second
        assert first != payload

    def test_different_seed_different_offset(self):
        payload = bytes(range(256)) * 4
        damaged = {
            StorageFaultInjector(
                StorageFaultPlan(
                    ops=(StorageFaultOp(kind="torn"),), seed=seed
                )
            ).on_append("j", payload)
            for seed in range(8)
        }
        assert len(damaged) > 1  # seeds actually steer the offset

    def test_op_index_counts_matching_operations(self):
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="torn", path_glob="*.ckpt", op_index=1),)
        )
        injector = StorageFaultInjector(plan)
        untouched = injector.on_append("a.ckpt", b"xxxx")
        torn = injector.on_append("b.ckpt", b"yyyy")
        assert untouched == b"xxxx"
        assert len(torn) < 4
        assert [r["path"] for r in injector.injected] == ["b.ckpt"]

    def test_non_matching_glob_never_fires(self):
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="bitrot", path_glob="*.ckpt"),)
        )
        injector = StorageFaultInjector(plan)
        assert injector.on_append("journal.bin", b"data") == b"data"
        assert injector.injected == []


# ----------------------------------------------------------------------
# Live-fire chaos against a durable run
# ----------------------------------------------------------------------


def durable_config(run_dir, engine_options=None, interval=3, resume=False):
    return ResilienceConfig(
        checkpoint_interval=interval,
        checkpoint_dir=str(run_dir),
        run_meta={
            "workload": {
                "algorithm": "pagerank",
                "dataset": "WG",
                "scale": 0.05,
            },
            "engine_options": engine_options or {},
        },
        resume=resume,
    )


@pytest.fixture(scope="module")
def workload():
    return prepare_workload("WG", "pagerank", scale=0.05)


class TestLiveFireChaos:
    def test_staged_checkpoint_bitrot_is_caught_by_crc(
        self, tmp_path, workload
    ):
        """bitrot on the publish hook damages the staged temp file; the
        rename still happens, and the CRC catches it on load."""
        graph, spec = workload
        run_dir = tmp_path / "run"
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="bitrot", path_glob="*.ckpt"),), seed=1
        )
        with injecting(plan) as injector:
            FunctionalGraphPulse(
                graph, spec, resilience=durable_config(run_dir)
            ).run()
        assert [r["site"] for r in injector.injected] == ["publish"]
        store = DurableCheckpointStore(run_dir)
        store.open()
        damaged_seq = None
        for entry in store.manifest["checkpoints"]:
            try:
                store.load(entry["seq"])
            except CheckpointCorruptError:
                damaged_seq = entry["seq"]
        # the corrupted generation may have been pruned by later ones;
        # either way the fault fired and any survivor is detectable
        if damaged_seq is None:
            target = os.path.basename(injector.injected[0]["path"])
            assert target not in {
                e["file"] for e in store.manifest["checkpoints"]
            }

    def test_transient_publish_errors_are_absorbed(self, tmp_path, workload):
        """eio on checkpoint publishes: bounded retry rides it out and
        the run completes with an intact generation chain."""
        graph, spec = workload
        run_dir = tmp_path / "run"
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(
                    kind="eio",
                    path_glob="*.ckpt",
                    times=RETRY_ATTEMPTS - 1,
                ),
            )
        )
        with injecting(plan) as injector:
            result = FunctionalGraphPulse(
                graph, spec, resilience=durable_config(run_dir)
            ).run()
        assert result.converged
        assert len(injector.injected) == RETRY_ATTEMPTS - 1
        store = DurableCheckpointStore(run_dir)
        store.open()
        for entry in store.manifest["checkpoints"]:
            store.load(entry["seq"])  # every retained generation verifies

    def test_transient_journal_errors_never_duplicate_records(
        self, tmp_path
    ):
        """enospc fired on the first two commit attempts: the retry
        re-attempts the whole batch, so replay sees each record once."""
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=3, generation=1, delta=0.5)
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="enospc", times=2),)
        )
        with injecting(plan) as injector:
            journal.commit(0)
        journal.close()
        assert len(injector.injected) == 2
        buffers, _ = SpillJournal.replay(path, 1, 0, lambda a, b: a + b)
        assert buffers[0] == {3: (0.5, 1)}  # applied exactly once

    def test_persistent_journal_failure_exhausts_budget(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="eio", times=RETRY_ATTEMPTS + 2),)
        )
        with injecting(plan):
            with pytest.raises(OSError, match="still failing after"):
                journal.commit(0)
        journal.close()

    def test_torn_journal_append_is_discarded_on_replay(self, tmp_path):
        """A torn commit batch: framing stops at the last good commit."""
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.commit(0)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="torn"),), seed=4
        )
        with injecting(plan):
            journal.commit(1)
        journal.close()
        scan = SpillJournal.scan(path, 1, 0, lambda a, b: a + b)
        assert scan.buffers[0] == {1: (1.0, 0)}
        assert scan.last_commit == 0


# ----------------------------------------------------------------------
# The generation-fallback ladder
# ----------------------------------------------------------------------


def run_durable_functional(tmp_path, workload):
    graph, spec = workload
    reference = FunctionalGraphPulse(graph, spec).run()
    run_dir = tmp_path / "func"
    FunctionalGraphPulse(
        graph, spec, resilience=durable_config(run_dir)
    ).run()
    return run_dir, reference.values


def run_durable_sliced(tmp_path, workload):
    graph, spec = workload
    options = {"num_slices": 2, "queue_capacity": None, "auto_slice": True}
    reference = build_sliced(graph, spec, num_slices=2).run()
    run_dir = tmp_path / "sliced"
    build_sliced(
        graph,
        spec,
        num_slices=2,
        resilience=durable_config(run_dir, options),
    ).run()
    return run_dir, reference.values


FALLBACK_ENGINES = [
    ("functional", run_durable_functional),
    ("sliced", run_durable_sliced),
]


class TestGenerationFallback:
    @pytest.mark.parametrize("engine,setup", FALLBACK_ENGINES)
    def test_corrupt_newest_falls_back_bit_identically(
        self, tmp_path, workload, engine, setup
    ):
        run_dir, reference = setup(tmp_path, workload)
        detail = inject_storage_fault(run_dir, kind="ckpt-bitrot", seed=2)
        assert detail is not None and detail["target"] == "checkpoint"
        outcome = resume_run(run_dir)
        assert outcome.engine == engine
        assert outcome.provenance["fallback"] is True
        assert not outcome.provenance["from_scratch"]
        skipped = outcome.provenance["checkpoints_skipped"]
        assert [s["seq"] for s in skipped] == [detail["seq"]]
        assert outcome.restored is not None
        assert outcome.restored.seq < detail["seq"]
        assert outcome.result.values.tobytes() == reference.tobytes()
        # the corrupt generation was demoted on disk; the resumed run
        # may have re-used its sequence number for a fresh checkpoint,
        # so the invariant is: every manifest entry now verifies
        store = DurableCheckpointStore(run_dir)
        store.open()
        for entry in store.manifest["checkpoints"]:
            store.load(entry["seq"])

    @pytest.mark.parametrize("engine,setup", FALLBACK_ENGINES)
    def test_all_generations_corrupt_runs_from_scratch(
        self, tmp_path, workload, engine, setup
    ):
        run_dir, reference = setup(tmp_path, workload)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for entry in manifest["checkpoints"]:
            corrupt_file(run_dir / entry["file"], kind="bitrot", seed=3)
        outcome = resume_run(run_dir)
        assert outcome.restored is None
        assert outcome.provenance["from_scratch"] is True
        assert len(outcome.provenance["checkpoints_skipped"]) == len(
            manifest["checkpoints"]
        )
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_torn_checkpoint_falls_back_too(self, tmp_path, workload):
        run_dir, reference = run_durable_sliced(tmp_path, workload)
        detail = inject_storage_fault(run_dir, kind="ckpt-torn", seed=7)
        assert detail is not None
        outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is True
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_journal_tail_garbage_is_survived(self, tmp_path, workload):
        run_dir, reference = run_durable_sliced(tmp_path, workload)
        detail = inject_storage_fault(run_dir, kind="journal-tail", seed=5)
        assert detail is not None and detail["target"] == "journal"
        outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is False
        journal = outcome.provenance["journal"]
        assert journal is not None and journal["bytes_discarded"] > 0
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_no_fallback_keeps_strict_corruption_contract(
        self, tmp_path, workload
    ):
        run_dir, _ = run_durable_functional(tmp_path, workload)
        inject_storage_fault(run_dir, kind="ckpt-bitrot", seed=2)
        with pytest.raises(CheckpointCorruptError):
            resume_run(run_dir, fallback=False)

    def test_fault_free_resume_reports_no_fallback(
        self, tmp_path, workload
    ):
        run_dir, reference = run_durable_functional(tmp_path, workload)
        outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is False
        assert outcome.provenance["checkpoints_skipped"] == []
        assert outcome.provenance["generation"] == outcome.restored.seq
        assert outcome.result.values.tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# Recovery provenance through the CLI (+ schema)
# ----------------------------------------------------------------------


class TestResumeProvenancePayload:
    def test_cli_resume_payload_validates_and_names_the_generation(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        ref_values = tmp_path / "ref.npy"
        assert (
            main(
                [
                    "run",
                    "pagerank",
                    "--dataset",
                    "WG",
                    "--scale",
                    "0.05",
                    "--engine",
                    "sliced",
                    "--checkpoint-dir",
                    str(run_dir),
                    "--checkpoint-interval",
                    "2",
                    "--dump-values",
                    str(ref_values),
                ]
            )
            == 0
        )
        capsys.readouterr()
        detail = inject_storage_fault(run_dir, kind="ckpt-bitrot", seed=6)
        assert detail is not None
        resumed_values = tmp_path / "resumed.npy"
        assert (
            main(
                [
                    "resume",
                    str(run_dir),
                    "--dump-values",
                    str(resumed_values),
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        validate_resume_payload(payload)
        resumed = payload["resumed"]
        assert resumed["fallback"] is True
        assert resumed["generation"] == resumed["checkpoint"]
        assert [s["seq"] for s in resumed["checkpoints_skipped"]] == [
            detail["seq"]
        ]
        assert resumed["journal"]["records_replayed"] >= 0
        assert ref_values.read_bytes() == resumed_values.read_bytes()

    def test_validator_rejects_missing_provenance(self):
        with pytest.raises(ValueError, match="resumed block missing"):
            validate_resume_payload(
                {
                    "resumed": {"run_dir": "x", "checkpoint": 1},
                    "result": {},
                }
            )

    def test_validator_rejects_inconsistent_fallback_claim(self):
        with pytest.raises(ValueError, match="fallback"):
            validate_resume_payload(
                {
                    "resumed": {
                        "run_dir": "x",
                        "checkpoint": 1,
                        "round_index": 4,
                        "generation": 1,
                        "fallback": True,
                        "from_scratch": False,
                        "checkpoints_skipped": [],
                        "journal": None,
                    },
                    "result": {},
                }
            )


# ----------------------------------------------------------------------
# Retention policy: repro gc
# ----------------------------------------------------------------------


class TestGc:
    def test_keep_one_drops_older_generations(self, tmp_path, workload):
        run_dir, reference = run_durable_functional(tmp_path, workload)
        store = DurableCheckpointStore(run_dir)
        store.open()
        before = [e["seq"] for e in store.manifest["checkpoints"]]
        assert len(before) >= 2
        report = gc_run_dir(run_dir, keep=1)
        assert [e["seq"] for e in report.retained] == [before[-1]]
        assert [e["seq"] for e in report.dropped] == before[:-1]
        for entry in report.dropped:
            assert not (run_dir / entry["file"]).exists()
        outcome = resume_run(run_dir)
        assert outcome.restored.seq == before[-1]
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_dry_run_touches_nothing(self, tmp_path, workload):
        run_dir, _ = run_durable_functional(tmp_path, workload)
        snapshot = {
            p.name: p.read_bytes() for p in run_dir.iterdir()
        }
        report = gc_run_dir(run_dir, keep=1, dry_run=True)
        assert report.dry_run
        assert len(report.dropped) >= 1
        assert {
            p.name: p.read_bytes() for p in run_dir.iterdir()
        } == snapshot

    def test_corrupt_generation_is_reported_and_removed(
        self, tmp_path, workload
    ):
        run_dir, reference = run_durable_functional(tmp_path, workload)
        detail = inject_storage_fault(run_dir, kind="ckpt-bitrot", seed=8)
        report = gc_run_dir(run_dir)
        assert [c["seq"] for c in report.corrupt] == [detail["seq"]]
        assert not (run_dir / f"checkpoint-{detail['seq']:06d}.ckpt").exists()
        outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is False  # gc already pruned
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_orphan_checkpoints_are_collected(self, tmp_path, workload):
        run_dir, _ = run_durable_functional(tmp_path, workload)
        orphan = run_dir / "checkpoint-000099.ckpt"
        orphan.write_bytes(b"debris")
        report = gc_run_dir(run_dir)
        assert "checkpoint-000099.ckpt" in report.orphans
        assert not orphan.exists()

    def test_keep_below_one_rejected(self, tmp_path, workload):
        run_dir, _ = run_durable_functional(tmp_path, workload)
        with pytest.raises(ReproError):
            gc_run_dir(run_dir, keep=0)

    def test_gc_never_compacts_past_oldest_retained_commit(
        self, tmp_path, workload
    ):
        """THE retention invariant: after gc, every retained generation
        can still replay the journal from its own commit horizon —
        records newer than the oldest retained commit are untouched."""
        graph, spec = workload
        run_dir, reference = run_durable_sliced(tmp_path, workload)
        report = gc_run_dir(run_dir)
        assert report.journal and "upto" in report.journal
        store = DurableCheckpointStore(run_dir)
        store.open()
        entries = store.manifest["checkpoints"]
        boundary = entries[0]["journal_commit"]
        assert report.journal["upto"] == boundary
        for entry in entries:
            # replay to each retained generation's commit still works
            SpillJournal.replay(
                run_dir / "journal.bin",
                2,
                entry["journal_commit"],
                spec.reduce,
            )
        # and the full resume remains bit-identical
        outcome = resume_run(run_dir)
        assert outcome.result.values.tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# Read-side rot, correlated damage and crash-at-publish
# ----------------------------------------------------------------------


def write_generation(store, seq):
    """One small checkpoint generation; up to ten are retained."""
    store.write(
        Checkpoint(
            index=seq,
            round_index=seq * 10,
            at=float(seq),
            state=np.full(4, float(seq)),
            queue_snapshot=[],
            pending_events=0,
        ),
        engine="functional",
        algorithm="pagerank",
        queue_kind="bins",
        totals={"events_processed": 1},
        fault_cursor={},
        journal_commit=None,
        keep=10,
    )


class TestReadRot:
    def test_checkpoint_load_sees_damage_the_disk_does_not(self, tmp_path):
        store = DurableCheckpointStore(tmp_path / "run")
        store.create({"format_version": 1, "checkpoints": []})
        write_generation(store, 0)
        path = store.checkpoint_path(0)
        on_disk = path.read_bytes()
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(
                    kind="readrot",
                    path_glob="checkpoint-*.ckpt",
                    offset=len(on_disk) // 2,
                ),
            )
        )
        with injecting(plan) as injector:
            with pytest.raises(CheckpointCorruptError, match="CRC"):
                store.load(0)
        assert [r["site"] for r in injector.injected] == ["read"]
        assert path.read_bytes() == on_disk
        assert store.load(0).seq == 0  # the next read sees good bytes

    def test_journal_scan_sees_damage_the_disk_does_not(self, tmp_path):
        path = tmp_path / "journal.bin"
        journal = SpillJournal.create(path, num_slices=1)
        journal.spill(0, vertex=1, generation=0, delta=1.0)
        journal.spill(0, vertex=2, generation=0, delta=2.0)
        journal.commit(0)
        journal.close()
        on_disk = path.read_bytes()
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(
                    kind="readrot",
                    path_glob="journal.bin",
                    offset=len(on_disk) // 2,
                ),
            )
        )
        with injecting(plan) as injector:
            with pytest.raises(CheckpointCorruptError):
                SpillJournal.scan(path, 1, 0, lambda a, b: a + b)
        assert [r["site"] for r in injector.injected] == ["read"]
        assert path.read_bytes() == on_disk

    def test_resume_falls_back_past_a_rotted_read(self, tmp_path, workload):
        run_dir, reference = run_durable_functional(tmp_path, workload)
        store = DurableCheckpointStore(run_dir)
        store.open()
        newest = store.manifest["checkpoints"][-1]
        on_disk = (run_dir / newest["file"]).read_bytes()
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(
                    kind="readrot",
                    path_glob="checkpoint-*.ckpt",
                    offset=len(on_disk) // 2,
                ),
            )
        )
        with injecting(plan):
            outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is True
        skipped = outcome.provenance["checkpoints_skipped"]
        assert [s["seq"] for s in skipped] == [newest["seq"]]
        assert "CRC mismatch" in skipped[0]["error"]
        assert outcome.restored.seq == newest["seq"] - 1
        assert outcome.result.values.tobytes() == reference.tobytes()

    def test_rotted_lease_read_is_stale(self, tmp_path):
        """A lease whose bytes arrive damaged cannot prove liveness, so
        its live holder counts as stale (unreadable == stale)."""
        from repro.resilience.lease import is_stale, lease_path, read_lease
        from repro.resilience.substrate import build_substrate

        held = build_substrate().lease_store(tmp_path).acquire(0, owner="w")
        path = lease_path(tmp_path, 0)
        on_disk = path.read_bytes()
        assert not is_stale(path, timeout=3600.0)
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(
                    kind="readrot", path_glob="slice-*.lease", times=2
                ),
            )
        )
        with injecting(plan) as injector:
            assert read_lease(path) is None
            assert is_stale(path, timeout=3600.0)
        assert len(injector.injected) == 2
        assert path.read_bytes() == on_disk
        assert read_lease(path) == held.info
        held.release()


class TestCorrelated:
    def test_one_firing_damages_every_generation(self, tmp_path):
        store = DurableCheckpointStore(tmp_path / "run")
        store.create({"format_version": 1, "checkpoints": []})
        for seq in range(3):
            write_generation(store, seq)
        plan = StorageFaultPlan(
            ops=(
                StorageFaultOp(kind="correlated", path_glob="checkpoint-*.ckpt"),
            ),
            seed=3,
        )
        with injecting(plan) as injector:
            write_generation(store, 3)
        assert len(injector.injected) == 1
        files = injector.injected[0]["files"]
        # three published siblings plus the staged fourth generation
        assert sorted(os.path.basename(f["path"]) for f in files) == [
            f"checkpoint-{seq:06d}.ckpt" for seq in range(4)
        ]
        assert [f.get("staged", False) for f in files] == [
            False, False, False, True
        ]
        assert [e["seq"] for e in store.manifest["checkpoints"]] == [
            0, 1, 2, 3
        ]
        for seq in range(4):
            with pytest.raises(CheckpointCorruptError):
                store.load(seq)


class TestCrashFault:
    def test_crash_on_publish_keeps_the_previous_generation(self, tmp_path):
        """A ``crash`` op on the second checkpoint publish SIGKILLs the
        run before the rename: the manifest still names only the first
        generation, which loads, and the run resumes from it."""
        from repro.resilience.crash import _run_cli as run_cli

        run_dir = tmp_path / "run"
        plan = StorageFaultPlan(
            ops=(StorageFaultOp(kind="crash", path_glob="*.ckpt", op_index=1),)
        )
        proc = run_cli(
            [
                "run",
                "pagerank",
                "--dataset",
                "WG",
                "--scale",
                "0.05",
                "--checkpoint-dir",
                str(run_dir),
                "--checkpoint-interval",
                "3",
            ],
            extra_env={"REPRO_STORAGE_FAULTS": json.dumps(plan.to_json())},
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        store = DurableCheckpointStore(run_dir)
        store.open()
        assert [e["seq"] for e in store.manifest["checkpoints"]] == [0]
        assert store.load(0).seq == 0
        assert not store.checkpoint_path(1).exists()
        outcome = resume_run(run_dir)
        assert outcome.provenance["fallback"] is False
        assert outcome.restored.seq == 0
        assert outcome.result.converged
