"""Cross-host failover against real processes: SIGKILL one supervisor,
a different one finishes the run bit-identically.

The ``sliced-hosts`` acceptance tests.  Each case runs CLI supervisors
in subprocesses against one shared substrate directory; the kill point
selects which durable publish the death interrupts, forcing each of the
three takeover cases (nothing durable / journal only / journal+shard).
The oracle is always the sequential ``sliced`` engine's value dump.
"""

import pytest

from .crosshost import (
    run_host_failover_trial,
    run_host_pair_trial,
)

# each point kills the victim at a different spot in the step's publish
# sequence, so the survivor exercises a different takeover case
KILL_POINTS = ("pre", "journal", "shard")


# step 7 is mid-pass; step 6 starts pass 2 of 3 slices, so its takeover
# meets the pass-start compaction and the consume-all records
KILLS = [pytest.param(7, point, id=point) for point in KILL_POINTS] + [
    pytest.param(6, point, id=f"pass-start-{point}") for point in KILL_POINTS
]


@pytest.mark.parametrize("kill_step,kill_point", KILLS)
def test_sigkill_host_survivor_is_bit_identical(
    tmp_path, kill_step, kill_point
):
    trial = run_host_failover_trial(
        "pagerank",
        kill_step=kill_step,
        kill_point=kill_point,
        work_dir=tmp_path,
    )
    assert trial.error is None, trial.error
    assert trial.killed
    assert trial.survivor_returncode == 0
    assert trial.takeovers >= 1, "survivor never fenced the dead epoch"
    assert trial.bit_identical
    assert trial.passes_match, (
        f"reference converged in {trial.reference_passes} passes, "
        f"survivor in {trial.survivor_passes}"
    )
    assert trial.recovered


def test_sigkill_host_sssp_recovers(tmp_path):
    trial = run_host_failover_trial(
        "sssp", kill_step=4, kill_point="journal", work_dir=tmp_path
    )
    assert trial.error is None, trial.error
    assert trial.recovered


def test_two_live_hosts_serialize_without_fencing(tmp_path):
    trial = run_host_pair_trial("pagerank", work_dir=tmp_path)
    assert trial.error is None, trial.error
    assert trial.bit_identical
    assert trial.takeovers == 0, (
        "live hosts fenced each other; staleness detection is broken"
    )
    assert trial.serialized
