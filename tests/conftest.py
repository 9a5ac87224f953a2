"""Shared fixtures: index tables and the heavyweight replicate sets.

The M=10^4 replicate sets are session-scoped because the acceptance module and
the operating-characteristics tests assert different statistics of the same
simulations.  All seeds are fixed constants declared here.
"""

import json
import os

import numpy as np
import pytest

from bandit_trials import compute_index_table, engine
from bandit_trials.engine import TrialScenario, run_replicates
from bandit_trials.inference import calibrate_critical_value
from bandit_trials.policies import PolicySpec

WORKERS = min(2, os.cpu_count() or 1)

# Base seed for the acceptance-grade runs, fixed before any measurement.
ACCEPT_SEED = 20260810
M_FULL = 10_000

# One entry per acceptance criterion run: its number, pass, line and
# ``within`` checks.  The lines are echoed after the run summary, and the
# entries written to acceptance.json in the rootdir.
ACCEPTANCE: list[dict] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for entry in ACCEPTANCE:
            terminalreporter.write_line(entry["line"])
        path = config.rootpath / "acceptance.json"
        path.write_text(json.dumps(ACCEPTANCE, indent=2) + "\n")


def two_arm(kind, mu1, T=116):
    return TrialScenario(mu=(0.0, mu1), sigma=1.0, T=T, policy=PolicySpec(kind))


def four_arm(kind, mu, T=302):
    return TrialScenario(mu=mu, sigma=1.0, T=T, policy=PolicySpec(kind))


def running_means(replicates):
    """(n, K+1, T) running mean of each arm in each traced replicate, NaN
    before the arm's first observation.

    Per-arm cumulative sums make the same additions in the same order as the
    engine's running sums, so the means are theirs bit for bit.
    """
    arms = np.arange(replicates.scenario.K + 1)[None, :, None]
    on_arm = replicates.allocations[:, None, :] == arms
    sums = np.cumsum(np.where(on_arm, replicates.outcomes[:, None, :], 0.0), axis=2)
    with np.errstate(invalid="ignore"):
        return sums / np.cumsum(on_arm, axis=2)


def record_pool(monkeypatch):
    """Put an in-process stand-in for the engine's process pool; return the
    lists it fills with each pool's size and each task's block."""
    created, tasks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def map(self, fn, blocks):
            tasks.extend(blocks)
            return map(fn, blocks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return created, tasks


LFC = (0.0, 0.178, 0.178, 0.545)
NULL4 = (0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def workers():
    return WORKERS


@pytest.fixture(scope="session")
def table995():
    return compute_index_table(0.995, 302)


@pytest.fixture(scope="session")
def table09():
    return compute_index_table(0.9, 60)


@pytest.fixture(scope="session")
def fr2_h0():
    # every trace is kept: criterion 9 rebuilds the running means from them
    return run_replicates(two_arm("FR", 0.0), None, ACCEPT_SEED + 101, M_FULL,
                          workers=WORKERS, keep_trajectory=True, traces=M_FULL)


@pytest.fixture(scope="session")
def fr2_h1():
    return run_replicates(two_arm("FR", 0.545), None, ACCEPT_SEED + 102, M_FULL,
                          workers=WORKERS)


@pytest.fixture(scope="session")
def gi2_calibration(table995):
    """(critical, replicates) for GI under the two-arm global null: the
    calibration's replicates, with bias sums."""
    replicates = run_replicates(two_arm("GI", 0.0), table995, ACCEPT_SEED + 103, M_FULL,
                                workers=WORKERS, keep_trajectory=True)
    return calibrate_critical_value(replicates, 0.05), replicates


@pytest.fixture(scope="session")
def gi2_h1(table995):
    return run_replicates(two_arm("GI", 0.545), table995, ACCEPT_SEED + 104, M_FULL,
                          workers=WORKERS, keep_trajectory=True)


@pytest.fixture(scope="session")
def rgi2_h1(table995):
    return run_replicates(two_arm("RGI", 0.545), table995, ACCEPT_SEED + 105, M_FULL,
                          workers=WORKERS, keep_trajectory=True)
