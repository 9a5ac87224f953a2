"""Sequential trial simulation: arrival, allocation, outcomes, traces.

A replicate processes patients 1..T in order.  The first K+1 patients are
an initialization phase giving every arm exactly one observation: UCB-family
rules assign patient t to arm t-1 as their definitions require, all other
rules use a uniformly random arm order.  From patient K+2 on, the scenario's
allocation rule (``policies.Allocator``) picks the arm; the outcome is drawn
N(mu_k, sigma^2) and is observable before the next allocation (batched
rules see a stale probability vector instead, refreshed per block of
patients).

Replicates are stepped together in blocks of up to ``BLOCK``: the loop runs
over patients, and each step updates the (R, K+1) ``sums`` and ``counts``
of all R replicates of the block with array operations.  ``run_trial`` is
the R=1 case of the same code.  With several workers, ``run_replicates``
cuts the replicates into chunks of whole blocks (only the last block of the
run may be short) and runs them in a process pool.  Calls made inside a
``shared_pool`` block, as every CLI command is, share one pool, which is
shut down and its workers joined when the block ends.

Randomness discipline: each replicate owns two independent streams derived
from (master_seed, replicate): one for policy randomness (initialization
order, exploration bumps, control-guard coin flips, tie-breaks, arm
sampling), one for outcome noise.  Both are drawn before the block's first
patient, each replicate from its own streams and in the order it would
consume them stepping alone (``policies.draw_policy_variates``).  Patient
t's outcome uses the t-th noise variate whatever the policy did, so designs
can be compared under common random numbers, and results are identical for
any worker count, block size and chunking.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gittins import GittinsTable
from .inference import ZVector, z_statistic
from .policies import Allocator, PolicySpec, draw_policy_variates

__all__ = ["TrialScenario", "TrialRecord", "run_trial", "run_replicates", "shared_pool",
           "write_trace_csv"]

# Replicates stepped together.  A block's largest arrays are its RBI/RGI
# exponentials and kept mean trajectories, (BLOCK, T, K+1) each, and TS's
# quadrature arrays, (BLOCK, K+1, grid points): 2.5 MB and about 4.5 MB at
# K=3, T=302.  Larger blocks gain little once per-step overhead is spread
# over a few hundred replicates.
BLOCK = 256

# Pools of the innermost ``shared_pool`` block, by worker count.
_shared_pools: ContextVar[dict[int, ProcessPoolExecutor] | None] = ContextVar(
    "shared_pools", default=None)


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


def _check_table(scenario: TrialScenario, table: GittinsTable | None) -> None:
    spec = scenario.policy
    if not spec.needs_table:
        return
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


def _run_block(scenario: TrialScenario, table: GittinsTable | None,
               seeds: list[np.random.SeedSequence],
               keep_trajectory: bool) -> list[TrialRecord]:
    """Step one replicate per seed through patients 1..T together."""
    spec = scenario.policy
    K, T, sigma = scenario.K, scenario.T, scenario.sigma
    n_arms = K + 1
    R = len(seeds)

    noise = np.empty((R, T))
    policy_rngs = []
    for r, ss in enumerate(seeds):
        # the children ss.spawn(2) would give, built directly: same streams, less work
        policy_ss, outcome_ss = (
            np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                   pool_size=ss.pool_size) for i in (0, 1))
        policy_rngs.append(np.random.Generator(np.random.PCG64(policy_ss)))
        noise[r] = np.random.Generator(np.random.PCG64(outcome_ss)).standard_normal(T)
    allocate = Allocator(spec, sigma, T, table,
                         draw_policy_variates(spec, K, T, policy_rngs))

    # per-patient columns are written as rows here and transposed at the end;
    # (sums, counts) are updated through flat indices row * (K+1) + arm
    noise = np.ascontiguousarray(noise.T)
    mu = np.array(scenario.mu)
    row_starts = np.arange(R) * n_arms
    sums = np.zeros((R, n_arms))
    counts = np.zeros((R, n_arms), dtype=np.int64)
    flat_sums, flat_counts = sums.reshape(-1), counts.reshape(-1)
    allocations = np.empty((T, R), dtype=np.int16)
    outcomes = np.empty((T, R))
    trajectory = np.full((T, R, n_arms), np.nan) if keep_trajectory else None
    current_means = np.full(R * n_arms, np.nan)

    for t in range(1, T + 1):
        k = allocate(sums, counts, t)
        y = mu[k] + sigma * noise[t - 1]
        if not np.isfinite(y).all():
            raise ValueError(f"non-finite outcome at patient {t}; check the random stream")
        cells = row_starts + k
        flat_sums[cells] += y
        flat_counts[cells] += 1
        allocations[t - 1] = k
        outcomes[t - 1] = y
        if keep_trajectory:
            current_means[cells] = flat_sums[cells] / flat_counts[cells]
            trajectory[t - 1] = current_means.reshape(R, n_arms)

    allocations = np.ascontiguousarray(allocations.T)
    outcomes = np.ascontiguousarray(outcomes.T)
    if keep_trajectory:
        trajectory = np.ascontiguousarray(trajectory.transpose(1, 2, 0))
    z = z_statistic(sums, counts, sigma)
    means = sums / counts
    return [
        TrialRecord(
            allocations=allocations[r],
            outcomes=outcomes[r],
            arm_means=tuple(means[r].tolist()),
            arm_counts=tuple(counts[r].tolist()),
            z=ZVector(z[r]),
            mean_trajectory=None if trajectory is None else trajectory[r],
            scenario=scenario,
        )
        for r in range(R)
    ]


def run_trial(scenario: TrialScenario, table: GittinsTable | None = None,
              seed: int | np.random.SeedSequence = 0,
              keep_trajectory: bool = False) -> TrialRecord:
    """Simulate one complete trial and return its trace.

    ``seed`` may be an integer or a SeedSequence; its first two children
    (``spawn_key`` + (0,) and + (1,)) seed the policy randomness and the
    outcome noise.
    """
    _check_table(scenario, table)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return _run_block(scenario, table, [ss], keep_trajectory)[0]


def _replicate_seed(master_seed: int, r: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master_seed, r))


def _run_chunk(scenario: TrialScenario, table: GittinsTable | None, master_seed: int,
               start: int, stop: int, keep_trajectory: bool) -> list[TrialRecord]:
    records: list[TrialRecord] = []
    for first in range(start, stop, BLOCK):
        seeds = [_replicate_seed(master_seed, r) for r in range(first, min(first + BLOCK, stop))]
        records.extend(_run_block(scenario, table, seeds, keep_trajectory))
    return records


@contextmanager
def shared_pool():
    """Let the ``run_replicates`` calls made inside the block share worker processes.

    The pool for a worker count starts on the first call that needs it and
    serves every later call with that count.  On exit each pool is shut down
    and its workers joined, so their CPU time and memory are accounted to
    the caller as reaped children.  Outside such a block every call starts
    and stops its own pool.
    """
    pools: dict[int, ProcessPoolExecutor] = {}
    token = _shared_pools.set(pools)
    try:
        yield
    finally:
        _shared_pools.reset(token)
        for pool in pools.values():
            pool.shutdown(cancel_futures=True)


def run_replicates(scenario: TrialScenario, table: GittinsTable | None,
                   master_seed: int, M: int, *, workers: int = 1,
                   keep_trajectory: bool = False) -> list[TrialRecord]:
    """Simulate M independent replicates, reproducibly.

    Replicate r derives its streams from (master_seed, r), so the result is
    bitwise identical for any positive ``workers`` and any chunking.  With
    several workers the replicates are cut into chunks of whole blocks,
    about four per worker, and run in a process pool (see ``shared_pool``).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    _check_table(scenario, table)
    if workers <= 1 or M <= BLOCK:
        return _run_chunk(scenario, table, master_seed, 0, M, keep_trajectory)

    chunk = BLOCK * math.ceil(M / (workers * 4 * BLOCK))
    bounds = [(start, min(start + chunk, M)) for start in range(0, M, chunk)]
    pools = _shared_pools.get()
    if pools is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _gather(pool, scenario, table, master_seed, bounds, keep_trajectory)
    if workers not in pools:
        pools[workers] = ProcessPoolExecutor(max_workers=workers)
    return _gather(pools[workers], scenario, table, master_seed, bounds, keep_trajectory)


def _gather(pool: ProcessPoolExecutor, scenario: TrialScenario, table: GittinsTable | None,
            master_seed: int, bounds: list[tuple[int, int]],
            keep_trajectory: bool) -> list[TrialRecord]:
    futures = [pool.submit(_run_chunk, scenario, table, master_seed, a, b, keep_trajectory)
               for a, b in bounds]
    records: list[TrialRecord] = []
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
