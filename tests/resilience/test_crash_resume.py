"""Crash injection against real processes: SIGKILL, resume, compare.

The durability layer's acceptance test.  Each case runs the CLI in a
subprocess, kills it with SIGKILL from inside the engine at a chosen
round (``REPRO_CRASH_AT_ROUND``), resumes via ``repro resume``, and
asserts the resumed run's final vertex state is byte-identical to an
uninterrupted reference and reports the same convergence round.  The
graceful-interrupt path (SIGINT -> exit 130 + resumable JSON) and the
typed failure paths (corrupt checkpoint, foreign directory -> exit 2)
are exercised the same way.
"""

import json
import os
import signal
import subprocess
import time

import pytest

from .crash import _run_cli as run_cli
from .crash import _subprocess_env, repro_command, run_crash_trial

# every engine the durability layer covers, with pagerank (long,
# dense rounds) and sssp (monotone min-plus) per the acceptance bar
CRASH_MATRIX = [
    ("pagerank", "functional", 23),
    ("pagerank", "cycle", 12),
    ("pagerank", "sliced", 7),
    ("sssp", "functional", 2),
    ("sssp", "cycle", 3),
    ("sssp", "sliced", 3),
    ("pagerank", "parallel-sliced", 23),
    ("sssp", "parallel-sliced", 3),
    ("pagerank", "sliced-mp", 7),
    ("sssp", "sliced-mp", 3),
]


@pytest.mark.parametrize("algorithm,engine,crash_round", CRASH_MATRIX)
def test_sigkill_then_resume_is_bit_identical(
    tmp_path, algorithm, engine, crash_round
):
    trial = run_crash_trial(
        algorithm,
        engine,
        crash_round=crash_round,
        checkpoint_interval=2,
        work_dir=tmp_path,
    )
    assert trial.error is None, trial.error
    assert trial.crashed, (
        f"victim survived to convergence before round {crash_round}; "
        f"pick an earlier crash round"
    )
    assert trial.resume_returncode == 0
    assert trial.bit_identical
    assert trial.rounds_match, (
        f"reference converged at {trial.reference_rounds}, "
        f"resumed at {trial.resumed_rounds}"
    )


def test_sigint_is_graceful_and_resumable(tmp_path):
    run_dir = tmp_path / "run"
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
            "--json",
            "-",
        ],
        extra_env={"REPRO_SIGINT_AT_ROUND": "10"},
    )
    assert proc.returncode == 130
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)["interrupted"]
    assert payload["round_index"] == 10
    assert payload["checkpoint"] is not None
    assert payload["resume"] == f"repro resume {run_dir}"

    reference = tmp_path / "reference.npy"
    proc = run_cli(
        [
            "run",
            "pagerank",
            "--dataset",
            "WG",
            "--scale",
            "0.05",
            "--dump-values",
            str(reference),
        ]
    )
    assert proc.returncode == 0
    resumed = tmp_path / "resumed.npy"
    proc = run_cli(
        ["resume", str(run_dir), "--dump-values", str(resumed)]
    )
    assert proc.returncode == 0
    assert reference.read_bytes() == resumed.read_bytes()


def test_sigint_during_resume_is_graceful_and_resumable(tmp_path):
    """A resumed run is a durable run: SIGINT during `repro resume`
    flushes a final checkpoint, exits 130 and names the next resume,
    and that resume still matches the uninterrupted reference."""
    workload = ["pagerank", "--dataset", "WG", "--scale", "0.05"]
    run_dir = tmp_path / "run"
    proc = run_cli(
        ["run", *workload, "--checkpoint-dir", str(run_dir),
         "--checkpoint-interval", "3"],
        extra_env={"REPRO_CRASH_AT_ROUND": "11"},
    )
    assert proc.returncode == -signal.SIGKILL
    proc = run_cli(
        ["resume", str(run_dir), "--json", "-"],
        extra_env={"REPRO_SIGINT_AT_ROUND": "16"},
    )
    assert proc.returncode == 130, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)["interrupted"]
    assert payload["round_index"] == 16
    assert payload["checkpoint"] is not None
    assert payload["resume"] == f"repro resume {run_dir}"

    reference = tmp_path / "reference.npy"
    proc = run_cli(
        ["run", *workload, "--dump-values", str(reference), "--json", "-"]
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(proc.stdout)["result"]
    resumed = tmp_path / "resumed.npy"
    proc = run_cli(
        ["resume", str(run_dir), "--dump-values", str(resumed), "--json", "-"]
    )
    assert proc.returncode == 0, proc.stderr
    assert reference.read_bytes() == resumed.read_bytes()
    result = json.loads(proc.stdout)["result"]
    assert result["rounds"] == expected["rounds"]
    assert result["stats"] == expected["stats"]


def _lease_pids(run_dir):
    pids = set()
    for path in run_dir.glob("slice-*.lease"):
        try:
            pids.add(json.loads(path.read_text())["pid"])
        except (OSError, ValueError, KeyError):
            pass  # released or half-written between glob and read
    return pids


def _gone(pid):
    """Exited, or a zombie nobody reaped (no subreaper in a container)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_sigkilled_sliced_mp_supervisor_releases_its_workers(tmp_path):
    """Workers must notice a SIGKILLed supervisor (their pipe reads
    end-of-file), release their slice leases and exit, so an immediate
    resume can take the run over and finish it bit-identically."""
    workload = [
        "pagerank", "--dataset", "WG", "--scale", "0.05",
        "--engine", "sliced-mp", "--num-slices", "3", "--workers", "3",
        "--checkpoint-interval", "2",
    ]
    # durable sliced runs journal their spills: the reference is durable
    reference = tmp_path / "reference.npy"
    proc = run_cli(
        ["run", *workload, "--checkpoint-dir", str(tmp_path / "ref"),
         "--dump-values", str(reference)]
    )
    assert proc.returncode == 0, proc.stderr

    run_dir = tmp_path / "victim"
    victim = subprocess.Popen(
        repro_command("run", *workload, "--checkpoint-dir", str(run_dir)),
        env=_subprocess_env({"REPRO_CRASH_AT_ROUND": "4"}),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = set()
    try:
        deadline = time.monotonic() + 120
        while victim.poll() is None and time.monotonic() < deadline:
            workers |= _lease_pids(run_dir)
            time.sleep(0.01)
        assert victim.wait(timeout=5) == -signal.SIGKILL
        workers |= _lease_pids(run_dir)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and (
            _lease_pids(run_dir) or not all(_gone(p) for p in workers)
        ):
            time.sleep(0.05)
        assert all(_gone(pid) for pid in workers), workers
        assert not list(run_dir.glob("slice-*.lease"))
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=5)
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)

    resumed = tmp_path / "resumed.npy"
    proc = run_cli(["resume", str(run_dir), "--dump-values", str(resumed)])
    assert proc.returncode == 0, proc.stderr
    assert reference.read_bytes() == resumed.read_bytes()


def test_crash_before_first_checkpoint_restarts_cleanly(tmp_path):
    """A kill before any checkpoint flushes must resume from scratch —
    including on the sliced engine, whose journal must be reset rather
    than replayed on top of the fresh run."""
    trial = run_crash_trial(
        "pagerank",
        "sliced",
        crash_round=1,
        checkpoint_interval=50,  # never due before the crash
        work_dir=tmp_path,
    )
    assert trial.error is None, trial.error
    assert trial.crashed
    assert trial.resumed_from_checkpoint is None
    assert trial.bit_identical and trial.rounds_match


def test_resume_of_corrupt_checkpoint_exits_2_without_fallback(tmp_path):
    """--no-fallback preserves the strict contract: a corrupt newest
    checkpoint is a typed exit-2 failure, not a silent generation hop
    (the default fallback path is proven in test_storagefaults.py)."""
    run_dir = tmp_path / "run"
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
        extra_env={"REPRO_CRASH_AT_ROUND": "10"},
    )
    assert proc.returncode == -signal.SIGKILL
    victim = sorted(run_dir.glob("*.ckpt"))[-1]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    proc = run_cli(["resume", str(run_dir), "--no-fallback", "--json", "-"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "CheckpointCorruptError"


def test_storage_fault_trial_falls_back_and_recovers(tmp_path):
    """The crash-campaign cell with a post-mortem fault: kill, corrupt
    the newest checkpoint, and verify the resume walks back one
    generation yet still reaches bit-identical final state."""
    trial = run_crash_trial(
        "pagerank",
        "sliced",
        crash_round=7,
        checkpoint_interval=2,
        work_dir=tmp_path,
        storage_fault="ckpt-bitrot",
        fault_seed=11,
    )
    assert trial.error is None, trial.error
    assert trial.crashed
    assert trial.fault_detail is not None
    assert trial.fallback
    assert trial.checkpoints_skipped == 1
    assert trial.bit_identical and trial.rounds_match
    assert trial.recovered


def test_resume_of_non_run_directory_exits_2(tmp_path):
    proc = run_cli(["resume", str(tmp_path / "nothing-here"), "--json", "-"])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ManifestMismatchError"


def test_checkpoint_dir_refuses_existing_run(tmp_path):
    run_dir = tmp_path / "run"
    args = [
        "run",
        "pagerank",
        "--dataset",
        "WG",
        "--scale",
        "0.05",
        "--checkpoint-dir",
        str(run_dir),
    ]
    assert run_cli(args).returncode == 0
    proc = run_cli(args)
    assert proc.returncode == 2
    assert "repro resume" in proc.stderr
