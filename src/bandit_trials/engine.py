"""Sequential trial simulation: arrival, allocation, outcomes, traces.

One replicate processes patients 1..T in order.  The first K+1 patients are
an initialization phase giving every arm exactly one observation: UCB-family
rules assign patient t to arm t-1 as their definitions require, all other
rules use a uniformly random arm order.  From patient K+2 on, the scenario's
allocation rule, bound by ``policies.make_allocator``, picks the arm; the
outcome is drawn N(mu_k, sigma^2) and is observable before the next
allocation (batched rules see a stale probability vector instead, refreshed
per block).

Randomness discipline: each replicate owns two independent streams derived
from (master_seed, replicate): one for policy randomness (initialization
order, exploration bumps, control-guard coin flips, tie-breaks, arm
sampling), one for outcome noise.  Patient t's outcome uses the t-th noise
variate whatever the policy did, so designs can be compared under common
random numbers and results are identical for any worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gittins import GittinsTable
from .inference import ZVector, z_statistic
from .policies import ArmState, PolicySpec, make_allocator

__all__ = ["TrialScenario", "TrialRecord", "run_trial", "run_replicates", "write_trace_csv"]


@dataclass(frozen=True)
class TrialScenario:
    """One simulated trial configuration.

    ``mu`` lists the K+1 true arm means with index 0 the control.
    """

    K: int
    mu: tuple[float, ...]
    sigma: float
    T: int
    policy: PolicySpec
    hypothesis_label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) != self.K + 1:
            raise ValueError(f"mu must list K+1={self.K + 1} means, got {len(self.mu)}")
        if self.T < self.K + 1:
            raise ValueError("T must cover the initialization phase (T >= K+1)")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        self.policy.check_arms(self.K)

    @property
    def is_global_null(self) -> bool:
        return max(self.mu) == min(self.mu)


@dataclass(frozen=True)
class TrialRecord:
    """Full trace of one replicate plus its final statistics."""

    allocations: np.ndarray          # arm index per patient, length T
    outcomes: np.ndarray             # observed outcome per patient, length T
    arm_means: tuple[float, ...]     # final per-arm sample means
    arm_counts: tuple[int, ...]      # final per-arm observation counts
    z: ZVector
    mean_trajectory: np.ndarray | None  # (K+1, T) running means, NaN before first obs
    scenario: TrialScenario          # the configuration simulated, policy settings included


def run_trial(scenario: TrialScenario, table: GittinsTable | None = None,
              seed: int | np.random.SeedSequence = 0,
              keep_trajectory: bool = False) -> TrialRecord:
    """Simulate one complete trial and return its trace.

    ``seed`` may be an integer or a SeedSequence; two child streams are
    spawned from it (policy randomness, outcome noise).
    """
    spec = scenario.policy
    if spec.needs_table:
        if table is None:
            raise ValueError(f"policy {spec.kind} requires a Gittins index table")
        if table.n_max < scenario.T:
            raise ValueError(
                f"index table covers n <= {table.n_max} but the trial may observe "
                f"one arm {scenario.T} times; rebuild with n_max >= T")
        if table.discount != spec.discount:
            raise ValueError(
                f"table discount {table.discount} does not match policy discount "
                f"{spec.discount}")

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    policy_ss, outcome_ss = ss.spawn(2)
    rng = np.random.default_rng(policy_ss)
    noise = np.random.default_rng(outcome_ss).standard_normal(scenario.T)

    K, T, sigma = scenario.K, scenario.T, scenario.sigma
    mu = scenario.mu
    n_arms = K + 1
    arms = [ArmState() for _ in range(n_arms)]
    decide = make_allocator(spec, arms, sigma, T, table, rng)

    if spec.round_robin_init:
        init_order = list(range(n_arms))
    else:
        init_order = rng.permutation(n_arms).tolist()

    allocations = np.empty(T, dtype=np.int16)
    outcomes = np.empty(T, dtype=np.float64)
    trajectory = np.full((n_arms, T), np.nan) if keep_trajectory else None
    current_means = [math.nan] * n_arms

    for t in range(1, T + 1):
        k = init_order[t - 1] if t <= n_arms else decide(t)
        y = mu[k] + sigma * noise[t - 1]
        if not math.isfinite(y):
            raise ValueError(f"non-finite outcome at patient {t}; check the random stream")
        arm = arms[k]
        arm.add(y)
        allocations[t - 1] = k
        outcomes[t - 1] = y
        if keep_trajectory:
            current_means[k] = arm.sum / arm.n
            trajectory[:, t - 1] = current_means

    z = ZVector(np.array([z_statistic(arms[k], arms[0], sigma) for k in range(1, n_arms)]))
    return TrialRecord(
        allocations=allocations,
        outcomes=outcomes,
        arm_means=tuple(a.sum / a.n for a in arms),
        arm_counts=tuple(a.n for a in arms),
        z=z,
        mean_trajectory=trajectory,
        scenario=scenario,
    )


def _replicate_seed(master_seed: int, r: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master_seed, r))


def _run_chunk(scenario: TrialScenario, table: GittinsTable | None, master_seed: int,
               start: int, stop: int, keep_trajectory: bool) -> list[TrialRecord]:
    return [run_trial(scenario, table, _replicate_seed(master_seed, r), keep_trajectory)
            for r in range(start, stop)]


def run_replicates(scenario: TrialScenario, table: GittinsTable | None,
                   master_seed: int, M: int, *, workers: int = 1,
                   keep_trajectory: bool = False) -> list[TrialRecord]:
    """Simulate M independent replicates, reproducibly.

    Replicate r derives its streams from (master_seed, r), so the result is
    bitwise identical for any positive ``workers`` and any chunking.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if workers <= 1 or M < 4:
        return _run_chunk(scenario, table, master_seed, 0, M, keep_trajectory)

    chunk = max(1, math.ceil(M / (workers * 4)))
    bounds = [(start, min(start + chunk, M)) for start in range(0, M, chunk)]
    records: list[TrialRecord] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, scenario, table, master_seed, a, b, keep_trajectory)
                   for a, b in bounds]
        for future in futures:
            records.extend(future.result())
    return records


def write_trace_csv(record: TrialRecord, trace_path: str | Path,
                    summary_path: str | Path | None = None) -> None:
    """Dump one replicate: per-patient rows, plus an optional per-arm summary."""
    trace_path = Path(trace_path)
    with trace_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "arm", "outcome"])
        for t, (arm, outcome) in enumerate(zip(record.allocations, record.outcomes), start=1):
            writer.writerow([t, int(arm), f"{outcome:.12g}"])
    if summary_path is not None:
        with Path(summary_path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["arm", "n", "mean"])
            for arm, (n, mean) in enumerate(zip(record.arm_counts, record.arm_means)):
                writer.writerow([arm, n, f"{mean:.12g}"])
