"""Crash-injection harness: kill real runs, resume them, verify bits.

This is the durability layer's end-to-end proof.  Everything in
:mod:`repro.resilience.durable` is exercised in-process by the unit
tests, but the core promise — *kill the process at any round, resume,
get bit-identical final vertex state and the same convergence round* —
can only be demonstrated on an actual process death.  The harness runs
the CLI in subprocesses:

1. an uninterrupted **reference** run dumps its final values
   (``--dump-values``, raw float64 bits) and its run summary;
2. a **victim** run with ``--checkpoint-dir`` is SIGKILLed from inside
   the engine (``REPRO_CRASH_AT_ROUND=N`` in its environment — a hard
   death on a round boundary, like power loss mid-campaign);
3. ``repro resume <run-dir>`` continues the victim to convergence and
   dumps its values;
4. the trial passes iff the resumed value file is **byte-identical** to
   the reference and the resumed summary reports the same ``rounds``
   and ``passes`` (whole-run counters: ``None`` where the engine has no
   such counter).

Beyond process death, a trial can also damage the dead run's storage
before resuming (``storage_fault``): post-mortem bit rot or a torn
truncation of the newest checkpoint generation (forcing the resume
fallback ladder one generation back) or a torn journal tail.  Faults
come from :mod:`repro.resilience.storagefaults` and are seeded, so a
campaign replays byte-for-byte.

``run_crash_campaign`` sweeps trials over algorithms x engines with
deterministically drawn crash rounds *and* storage faults from
:data:`DEFAULT_FAULT_MIX`, reporting recovery-rate curves by kill round
and by fault kind (the EXPERIMENTS.md recovery-rate study); the CI
smoke jobs and the tier-2 crash tests run single
:func:`run_crash_trial` cells.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.resilience.storagefaults import inject_storage_fault

__all__ = [
    "CrashTrial",
    "CrashCampaignResult",
    "DEFAULT_FAULT_MIX",
    "repro_command",
    "run_crash_trial",
    "run_crash_campaign",
    "format_crash_report",
]

#: the campaign's default storage-fault mix: one fault-free control per
#: draw plus every post-mortem corruption kind the resume ladder must
#: absorb (see :func:`repro.resilience.storagefaults.inject_storage_fault`)
DEFAULT_FAULT_MIX: Tuple[Optional[str], ...] = (
    None,
    "ckpt-bitrot",
    "ckpt-torn",
    "journal-tail",
)


def repro_command(*args: str) -> List[str]:
    """A ``python -m repro ...`` argv for the current interpreter."""
    return [sys.executable, "-m", "repro", *args]


def _subprocess_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Child environment whose PYTHONPATH can import this very package."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{package_root}{os.pathsep}{previous}" if previous else package_root
    )
    env.pop("REPRO_CRASH_AT_ROUND", None)
    env.pop("REPRO_SIGINT_AT_ROUND", None)
    if extra:
        env.update(extra)
    return env


def _run_cli(
    args: Sequence[str],
    *,
    extra_env: Optional[Dict[str, str]] = None,
    timeout: float = 300.0,
) -> subprocess.CompletedProcess:
    return subprocess.run(
        repro_command(*args),
        env=_subprocess_env(extra_env),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@dataclass
class CrashTrial:
    """One kill-and-resume cell."""

    algorithm: str
    engine: str
    dataset: str
    scale: float
    crash_round: int
    #: the victim actually died to SIGKILL (False: it converged first,
    #: which makes the trial a plain determinism check)
    crashed: bool = False
    resume_returncode: Optional[int] = None
    bit_identical: bool = False
    rounds_match: bool = False
    reference_rounds: Optional[int] = None
    reference_passes: Optional[int] = None
    resumed_rounds: Optional[int] = None
    resumed_passes: Optional[int] = None
    resumed_from_checkpoint: Optional[int] = None
    #: post-mortem storage fault injected between kill and resume
    storage_fault: Optional[str] = None
    #: what the injection actually damaged (None: nothing to damage)
    fault_detail: Optional[Dict[str, Any]] = None
    #: the resume fell back past >= 1 corrupt checkpoint generation
    fallback: bool = False
    checkpoints_skipped: int = 0
    error: Optional[str] = None

    @property
    def recovered(self) -> bool:
        return (
            self.resume_returncode == 0
            and self.bit_identical
            and self.rounds_match
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "engine": self.engine,
            "dataset": self.dataset,
            "scale": self.scale,
            "crash_round": self.crash_round,
            "crashed": self.crashed,
            "resume_returncode": self.resume_returncode,
            "bit_identical": self.bit_identical,
            "rounds_match": self.rounds_match,
            "reference_rounds": self.reference_rounds,
            "reference_passes": self.reference_passes,
            "resumed_rounds": self.resumed_rounds,
            "resumed_passes": self.resumed_passes,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "storage_fault": self.storage_fault,
            "fault_detail": self.fault_detail,
            "fallback": self.fallback,
            "checkpoints_skipped": self.checkpoints_skipped,
            "recovered": self.recovered,
            "error": self.error,
        }


def _engine_args(engine: str) -> List[str]:
    args = ["--engine", engine]
    if engine in ("sliced", "parallel-sliced"):
        args += ["--num-slices", "2"]
    elif engine == "sliced-mp":
        args += ["--num-slices", "2", "--workers", "2"]
    return args


def run_crash_trial(
    algorithm: str,
    engine: str,
    *,
    dataset: str = "WG",
    scale: float = 0.05,
    crash_round: int = 7,
    checkpoint_interval: int = 3,
    work_dir: Path,
    reference: Optional[Tuple[Path, int, Optional[int]]] = None,
    storage_fault: Optional[str] = None,
    fault_seed: int = 0,
) -> CrashTrial:
    """Kill one run at ``crash_round``, resume it, compare to reference.

    ``reference`` reuses an earlier trial's uninterrupted run (values
    file, rounds, passes) so a sweep pays for each workload's reference
    once.
    ``storage_fault`` names a post-mortem corruption (one of
    :data:`repro.resilience.storagefaults` run-dir fault kinds) applied
    between the kill and the resume, so the trial also exercises the
    checkpoint-generation fallback and journal torn-tail recovery.
    """
    trial = CrashTrial(
        algorithm=algorithm,
        engine=engine,
        dataset=dataset,
        scale=scale,
        crash_round=crash_round,
        storage_fault=storage_fault,
    )
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = [
        algorithm,
        "--dataset",
        dataset,
        "--scale",
        str(scale),
        *_engine_args(engine),
    ]

    # 1. uninterrupted reference (no --checkpoint-dir: also proves the
    #    durable machinery is zero-overhead when off)
    if reference is None:
        ref_values = work_dir / "reference.npy"
        proc = _run_cli(
            ["run", *workload, "--dump-values", str(ref_values), "--json", "-"]
        )
        if proc.returncode != 0:
            trial.error = f"reference run failed: {proc.stderr.strip()}"
            return trial
        ref_result = json.loads(proc.stdout)["result"]
        trial.reference_rounds = ref_result["rounds"]
        trial.reference_passes = ref_result["passes"]
    else:
        ref_values, trial.reference_rounds, trial.reference_passes = (
            reference
        )

    # 2. the victim: SIGKILLed from inside the engine at crash_round.
    # A campaign cell can draw the same crash round twice; each trial
    # still needs a virgin run dir (a durable dir refuses reuse).
    run_dir = work_dir / f"run-{algorithm}-{engine}-r{crash_round}"
    attempt = 1
    while run_dir.exists():
        run_dir = work_dir / f"run-{algorithm}-{engine}-r{crash_round}-{attempt}"
        attempt += 1
    proc = _run_cli(
        [
            "run",
            *workload,
            "--checkpoint-dir",
            str(run_dir),
            "--checkpoint-interval",
            str(checkpoint_interval),
        ],
        extra_env={"REPRO_CRASH_AT_ROUND": str(crash_round)},
    )
    trial.crashed = proc.returncode == -signal.SIGKILL
    if not trial.crashed and proc.returncode != 0:
        trial.error = f"victim run failed: {proc.stderr.strip()}"
        return trial

    # 2b. optional post-mortem storage damage: corrupt what the victim
    #     left on disk before the resume ever sees it
    if storage_fault is not None:
        trial.fault_detail = inject_storage_fault(
            run_dir, kind=storage_fault, seed=fault_seed
        )

    # 3. resume to convergence
    resumed_values = run_dir / "resumed.npy"
    proc = _run_cli(
        [
            "resume",
            str(run_dir),
            "--dump-values",
            str(resumed_values),
            "--json",
            "-",
        ]
    )
    trial.resume_returncode = proc.returncode
    if proc.returncode != 0:
        trial.error = f"resume failed: {proc.stderr.strip()}"
        return trial
    resumed_summary = json.loads(proc.stdout)
    trial.resumed_from_checkpoint = resumed_summary["resumed"]["checkpoint"]
    trial.fallback = bool(resumed_summary["resumed"].get("fallback"))
    trial.checkpoints_skipped = len(
        resumed_summary["resumed"].get("checkpoints_skipped") or []
    )
    trial.resumed_rounds = resumed_summary["result"]["rounds"]
    trial.resumed_passes = resumed_summary["result"]["passes"]
    trial.rounds_match = (trial.resumed_rounds, trial.resumed_passes) == (
        trial.reference_rounds,
        trial.reference_passes,
    )

    # 4. byte-for-byte equality of the final vertex state
    trial.bit_identical = (
        Path(ref_values).read_bytes() == resumed_values.read_bytes()
    )
    if not trial.bit_identical:
        reference_array = np.load(ref_values)
        resumed_array = np.load(resumed_values)
        differing = int(
            np.sum(
                reference_array.view(np.int64)
                != resumed_array.view(np.int64)
            )
        )
        trial.error = f"{differing} vertex values differ bitwise"
    return trial


@dataclass
class CrashCampaignResult:
    """A sweep of crash trials plus its scoreboard."""

    trials: List[CrashTrial] = field(default_factory=list)

    @property
    def kill_count(self) -> int:
        return sum(1 for t in self.trials if t.crashed)

    @property
    def recovery_rate(self) -> float:
        if not self.trials:
            return 1.0
        return sum(1 for t in self.trials if t.recovered) / len(self.trials)

    @staticmethod
    def _rate(trials: Sequence[CrashTrial]) -> Dict[str, Any]:
        recovered = sum(1 for t in trials if t.recovered)
        return {
            "trials": len(trials),
            "recovered": recovered,
            "rate": recovered / len(trials) if trials else 1.0,
        }

    def recovery_by_round(self) -> Dict[int, Dict[str, Any]]:
        """Recovery-rate curve over the kill round."""
        rounds = sorted({t.crash_round for t in self.trials})
        return {
            r: self._rate([t for t in self.trials if t.crash_round == r])
            for r in rounds
        }

    def recovery_by_fault(self) -> Dict[str, Dict[str, Any]]:
        """Recovery-rate curve over the injected storage-fault kind."""
        kinds = sorted(
            {t.storage_fault or "none" for t in self.trials}
        )
        return {
            k: self._rate(
                [
                    t
                    for t in self.trials
                    if (t.storage_fault or "none") == k
                ]
            )
            for k in kinds
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trials": [t.to_dict() for t in self.trials],
            "kills": self.kill_count,
            "recovery_rate": self.recovery_rate,
            "recovery_by_round": {
                str(r): cell for r, cell in self.recovery_by_round().items()
            },
            "recovery_by_fault": self.recovery_by_fault(),
        }


def run_crash_campaign(
    *,
    algorithms: Sequence[str] = ("pagerank", "sssp"),
    engines: Sequence[str] = ("functional", "cycle", "sliced"),
    dataset: str = "WG",
    scale: float = 0.05,
    trials_per_cell: int = 1,
    max_crash_round: int = 12,
    checkpoint_interval: int = 3,
    storage_faults: Sequence[Optional[str]] = DEFAULT_FAULT_MIX,
    seed: int = 0,
    work_dir: Path,
) -> CrashCampaignResult:
    """Sweep kill-and-resume trials over algorithms x engines.

    Crash rounds and storage faults are drawn from a seeded generator,
    so a campaign is as reproducible as everything else in the
    repository.  Each trial draws one entry from ``storage_faults``
    (``None`` entries are fault-free controls); pass ``(None,)`` for a
    pure kill/resume sweep.  Each workload's uninterrupted reference
    run happens once and is shared across that cell's trials.
    """
    rng = np.random.default_rng(seed)
    campaign = CrashCampaignResult()
    work_dir = Path(work_dir)
    for algorithm in algorithms:
        for engine in engines:
            cell_dir = work_dir / f"{algorithm}-{engine}"
            reference: Optional[Tuple[Path, int, Optional[int]]] = None
            for _ in range(trials_per_cell):
                crash_round = int(rng.integers(1, max_crash_round + 1))
                fault = storage_faults[
                    int(rng.integers(0, len(storage_faults)))
                ]
                fault_seed = int(rng.integers(0, 2**31))
                trial = run_crash_trial(
                    algorithm,
                    engine,
                    dataset=dataset,
                    scale=scale,
                    crash_round=crash_round,
                    checkpoint_interval=checkpoint_interval,
                    work_dir=cell_dir,
                    reference=reference,
                    storage_fault=fault,
                    fault_seed=fault_seed,
                )
                campaign.trials.append(trial)
                if trial.error is None and reference is None:
                    reference = (
                        cell_dir / "reference.npy",
                        trial.reference_rounds,
                        trial.reference_passes,
                    )
    return campaign


def format_crash_report(campaign: CrashCampaignResult) -> str:
    """The EXPERIMENTS.md recovery-rate table."""
    rows = []
    for trial in campaign.trials:
        rows.append(
            [
                trial.algorithm,
                trial.engine,
                trial.crash_round,
                "killed" if trial.crashed else "survived",
                trial.storage_fault or "-",
                trial.resumed_from_checkpoint
                if trial.resumed_from_checkpoint is not None
                else "-",
                "yes" if trial.fallback else "-",
                "yes" if trial.bit_identical else "NO",
                "yes" if trial.rounds_match else "NO",
                "OK" if trial.recovered else (trial.error or "FAILED"),
            ]
        )
    table = format_table(
        [
            "algorithm",
            "engine",
            "crash@",
            "fate",
            "fault",
            "resume ckpt",
            "fell back",
            "bit-identical",
            "round match",
            "verdict",
        ],
        rows,
        title="crash-resume campaign",
    )
    curves = []
    by_round = campaign.recovery_by_round()
    if by_round:
        curve = "  ".join(
            f"r{r}: {cell['recovered']}/{cell['trials']}"
            for r, cell in by_round.items()
        )
        curves.append(f"recovery by kill round:   {curve}")
    by_fault = campaign.recovery_by_fault()
    if by_fault:
        curve = "  ".join(
            f"{kind}: {cell['recovered']}/{cell['trials']}"
            for kind, cell in by_fault.items()
        )
        curves.append(f"recovery by storage fault: {curve}")
    tail = "\n".join(curves)
    return (
        f"{table}\n"
        f"kills: {campaign.kill_count}/{len(campaign.trials)}   "
        f"recovery rate: {campaign.recovery_rate:.0%}"
        + (f"\n{tail}" if tail else "")
    )
