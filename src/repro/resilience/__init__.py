"""Resilience: fault injection, invariant watchdogs, checkpoint/recovery.

The subsystem threads through every layer of the simulated stack — the
functional engine, the cycle-accurate accelerator, the coalescing
queue, the DRAM system and the sliced runtime — behind a single
optional ``resilience=ResilienceConfig(...)`` engine argument.  See
:mod:`repro.resilience.harness` for the site-oriented API and DESIGN.md
for the fault model and the soundness argument for delta re-injection.
"""

from . import storagefaults
from .campaign import CampaignResult, RunReport, format_report, run_campaign
from .checkpoint import Checkpoint, CheckpointManager
from .durable import (
    DurableCheckpointManager,
    DurableCheckpointStore,
    GcReport,
    InterruptGuard,
    RestoredRun,
    ResumeOutcome,
    build_manifest,
    deserialize_checkpoint,
    gc_run_dir,
    resume_run,
    serialize_checkpoint,
    stop_requested,
)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultRecord
from .harness import ResilienceConfig, ResilienceHarness
from .invariants import RepairPlan, compute_repairs, state_invalid
from .journal import JournalScan, SpillJournal
from .storagefaults import (
    STORAGE_FAULT_KINDS,
    StorageFaultInjector,
    StorageFaultOp,
    StorageFaultPlan,
    corrupt_file,
    inject_storage_fault,
    injecting,
    retry_transient,
)
from .lease import (
    DEFAULT_LEASE_TIMEOUT,
    LeaseInfo,
    SliceLease,
    break_stale,
    is_stale,
    lease_path,
    read_lease,
)
from .watchdog import build_diagnostic

__all__ = [
    "DurableCheckpointManager",
    "DurableCheckpointStore",
    "GcReport",
    "InterruptGuard",
    "RestoredRun",
    "ResumeOutcome",
    "JournalScan",
    "SpillJournal",
    "build_manifest",
    "deserialize_checkpoint",
    "gc_run_dir",
    "resume_run",
    "serialize_checkpoint",
    "stop_requested",
    "STORAGE_FAULT_KINDS",
    "StorageFaultInjector",
    "StorageFaultOp",
    "StorageFaultPlan",
    "corrupt_file",
    "inject_storage_fault",
    "injecting",
    "retry_transient",
    "storagefaults",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "RepairPlan",
    "compute_repairs",
    "state_invalid",
    "Checkpoint",
    "CheckpointManager",
    "DEFAULT_LEASE_TIMEOUT",
    "LeaseInfo",
    "SliceLease",
    "break_stale",
    "is_stale",
    "lease_path",
    "read_lease",
    "build_diagnostic",
    "ResilienceConfig",
    "ResilienceHarness",
    "CampaignResult",
    "RunReport",
    "run_campaign",
    "format_report",
]
