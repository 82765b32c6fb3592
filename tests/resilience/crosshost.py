"""Cross-host failover harness: SIGKILL a supervisor, another finishes.

The ``sliced-hosts`` engine's end-to-end proof, the cross-host analogue
of :mod:`tests.resilience.crash`.  Where the crash harness kills one
process and *resumes the same run directory*, this harness kills one of
several independent **supervisor processes** sharing a substrate
directory and lets a *different* host carry the run to convergence:

1. an uninterrupted **reference** run on the sequential ``sliced``
   engine dumps its final values (``--dump-values``, raw float64 bits);
2. a **victim** supervisor runs ``--engine sliced-hosts`` alone and is
   SIGKILLed from inside a step (``REPRO_KILL_HOST=STEP:POINT`` — the
   point selects which publish the death interrupts: before any,
   between the journal commit and the shard, or between the shard and
   the cursor, i.e. each distinct takeover case);
3. a **survivor** supervisor is pointed at the same directory; it must
   observe the dead peer's lease, fence its epoch (``break_stale``),
   finish the remaining steps and dump its values;
4. the trial passes iff the survivor's value file is **byte-identical**
   to the sequential reference, the pass counts match, and the survivor
   reports at least one fenced takeover.

:func:`run_host_pair_trial` is the live-concurrency complement: two
supervisors race on the same directory with nobody killed, proving the
lease protocol serializes them onto the exact sequential schedule.
"""

from __future__ import annotations

import json
import signal
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from .crash import _run_cli, _subprocess_env, repro_command

__all__ = [
    "HostFailoverTrial",
    "HostPairTrial",
    "run_host_failover_trial",
    "run_host_pair_trial",
]


def _workload_args(
    algorithm: str, dataset: str, scale: float
) -> list:
    return [algorithm, "--dataset", dataset, "--scale", str(scale)]


def _hosts_args(
    hosts_dir: Path, host_id: str, num_slices: int, lease_timeout: float
) -> list:
    return [
        "--engine",
        "sliced-hosts",
        "--num-slices",
        str(num_slices),
        "--hosts-dir",
        str(hosts_dir),
        "--host-id",
        host_id,
        "--lease-timeout",
        str(lease_timeout),
    ]


@dataclass
class HostFailoverTrial:
    """One kill-the-host cell."""

    algorithm: str
    dataset: str
    scale: float
    num_slices: int
    kill_step: int
    kill_point: str
    #: the victim actually died to SIGKILL mid-step (False: it finished
    #: the run before reaching the kill step)
    killed: bool = False
    survivor_returncode: Optional[int] = None
    bit_identical: bool = False
    passes_match: bool = False
    reference_passes: Optional[int] = None
    survivor_passes: Optional[int] = None
    #: stale epochs the survivor fenced (must be >= 1 after a kill)
    takeovers: Optional[int] = None
    steps_total: Optional[int] = None
    steps_by_survivor: Optional[int] = None
    error: Optional[str] = None

    @property
    def recovered(self) -> bool:
        return (
            self.killed
            and self.survivor_returncode == 0
            and self.bit_identical
            and self.passes_match
            and bool(self.takeovers)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "scale": self.scale,
            "num_slices": self.num_slices,
            "kill_step": self.kill_step,
            "kill_point": self.kill_point,
            "killed": self.killed,
            "survivor_returncode": self.survivor_returncode,
            "bit_identical": self.bit_identical,
            "passes_match": self.passes_match,
            "reference_passes": self.reference_passes,
            "survivor_passes": self.survivor_passes,
            "takeovers": self.takeovers,
            "steps_total": self.steps_total,
            "steps_by_survivor": self.steps_by_survivor,
            "recovered": self.recovered,
            "error": self.error,
        }


def run_host_failover_trial(
    algorithm: str,
    *,
    dataset: str = "WG",
    scale: float = 0.05,
    num_slices: int = 3,
    kill_step: int = 7,
    kill_point: str = "journal",
    lease_timeout: float = 1.0,
    work_dir: Path,
) -> HostFailoverTrial:
    """SIGKILL one supervisor mid-step; a fresh one must finish the run.

    The victim runs alone first so the kill deterministically fires at
    ``kill_step`` (with a racing peer, whichever host claims the step
    executes it, and the kill might never trigger).  Dying inside a
    step means dying while *holding that step's lease*, so the survivor
    is forced through the full fencing path: observe the dead pid,
    ``break_stale`` the slot, re-acquire at a higher epoch, and replay
    or redo whatever the victim half-published.
    """
    trial = HostFailoverTrial(
        algorithm=algorithm,
        dataset=dataset,
        scale=scale,
        num_slices=num_slices,
        kill_step=kill_step,
        kill_point=kill_point,
    )
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = _workload_args(algorithm, dataset, scale)

    # 1. sequential reference: the oracle the survivor must match
    ref_values = work_dir / "reference.npy"
    proc = _run_cli(
        [
            "run",
            *workload,
            "--engine",
            "sliced",
            "--num-slices",
            str(num_slices),
            "--dump-values",
            str(ref_values),
            "--json",
            "-",
        ]
    )
    if proc.returncode != 0:
        trial.error = f"reference run failed: {proc.stderr.strip()}"
        return trial
    trial.reference_passes = json.loads(proc.stdout)["result"]["passes"]

    # 2. the victim: killed while holding the step's lease
    hosts_dir = work_dir / "hosts"
    proc = _run_cli(
        [
            "run",
            *workload,
            *_hosts_args(hosts_dir, "victim", num_slices, lease_timeout),
        ],
        extra_env={"REPRO_KILL_HOST": f"{kill_step}:{kill_point}"},
    )
    trial.killed = proc.returncode == -signal.SIGKILL
    if not trial.killed:
        trial.error = (
            f"victim finished (rc {proc.returncode}) before step "
            f"{kill_step}; pick an earlier kill step"
        )
        return trial

    # 3. the survivor: must fence the dead epoch and finish
    survived_values = work_dir / "survived.npy"
    proc = _run_cli(
        [
            "run",
            *workload,
            *_hosts_args(hosts_dir, "survivor", num_slices, lease_timeout),
            "--dump-values",
            str(survived_values),
            "--json",
            "-",
        ]
    )
    trial.survivor_returncode = proc.returncode
    if proc.returncode != 0:
        trial.error = f"survivor failed: {proc.stderr.strip()}"
        return trial
    summary = json.loads(proc.stdout)
    trial.survivor_passes = summary["result"]["passes"]
    trial.passes_match = trial.survivor_passes == trial.reference_passes
    stats = summary["result"]["stats"]
    trial.takeovers = stats["takeovers"]
    trial.steps_total = stats["steps"]
    trial.steps_by_survivor = stats["steps_executed"]

    # 4. byte-for-byte equality against the sequential oracle
    trial.bit_identical = (
        ref_values.read_bytes() == survived_values.read_bytes()
    )
    if not trial.bit_identical:
        trial.error = "survivor values differ bitwise from sequential"
    return trial


@dataclass
class HostPairTrial:
    """Two live supervisors racing on one directory, nobody killed."""

    algorithm: str
    bit_identical: bool = False
    steps_total: Optional[int] = None
    steps_by_host: Optional[Dict[str, int]] = None
    takeovers: int = 0
    error: Optional[str] = None

    @property
    def serialized(self) -> bool:
        """Both hosts saw the one sequential schedule, no false fencing."""
        return (
            self.error is None
            and self.bit_identical
            and self.takeovers == 0
        )


def run_host_pair_trial(
    algorithm: str,
    *,
    dataset: str = "WG",
    scale: float = 0.05,
    num_slices: int = 3,
    lease_timeout: float = 2.0,
    timeout: float = 300.0,
    work_dir: Path,
) -> HostPairTrial:
    """Race two live supervisors on one substrate directory.

    Both must converge to values byte-identical to the sequential
    ``sliced`` oracle, and neither may fence the other (takeovers stay
    zero): with every peer alive and heartbeating, lease contention is
    resolved purely by acquisition, never by epoch breaking.
    """
    trial = HostPairTrial(algorithm=algorithm)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = _workload_args(algorithm, dataset, scale)

    ref_values = work_dir / "reference.npy"
    proc = _run_cli(
        [
            "run",
            *workload,
            "--engine",
            "sliced",
            "--num-slices",
            str(num_slices),
            "--dump-values",
            str(ref_values),
        ]
    )
    if proc.returncode != 0:
        trial.error = f"reference run failed: {proc.stderr.strip()}"
        return trial

    hosts_dir = work_dir / "hosts"
    procs = {}
    for host in ("a", "b"):
        values = work_dir / f"host-{host}.npy"
        procs[host] = (
            subprocess.Popen(
                repro_command(
                    "run",
                    *workload,
                    *_hosts_args(hosts_dir, host, num_slices, lease_timeout),
                    "--dump-values",
                    str(values),
                    "--json",
                    "-",
                ),
                env=_subprocess_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            ),
            values,
        )
    steps_by_host: Dict[str, int] = {}
    reference_bytes = ref_values.read_bytes()
    trial.bit_identical = True
    for host, (proc, values) in procs.items():
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            trial.error = f"host {host} timed out"
            return trial
        if proc.returncode != 0:
            trial.error = f"host {host} failed: {stderr.strip()}"
            return trial
        stats = json.loads(stdout)["result"]["stats"]
        steps_by_host[host] = stats["steps_executed"]
        trial.steps_total = stats["steps"]
        trial.takeovers += stats["takeovers"]
        if values.read_bytes() != reference_bytes:
            trial.bit_identical = False
            trial.error = f"host {host} values differ from sequential"
    trial.steps_by_host = steps_by_host
    return trial
