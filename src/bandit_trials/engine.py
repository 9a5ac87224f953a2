"""Sequential trial simulation: arrival, allocation, outcomes, reduction.

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
of all R replicates of the block with array operations.  A block returns
only what the reports need (``Replicates``: per-replicate contrasts, counts
and mean outcome, bias sums, a few traces), and ``run_trial`` returns the
one-row ``Replicates`` of a block of R=1, its trace kept.  With several
workers, ``run_replicates`` cuts the replicates into chunks of whole blocks
(only the last block of the run may be short) and runs them in a process
pool.  Calls made inside a ``shared_pool`` block, as every CLI command is,
share one pool, which is shut down and its workers joined when the block
ends; a call made outside one runs in a block of its own.

Randomness discipline: each replicate owns two independent streams derived
from (master_seed, replicate): one for policy randomness (initialization
order, exploration bumps, control-guard coin flips, tie-breaks, arm
sampling), one for outcome noise.  Stream i (0 policy, 1 noise) is numpy's
PCG64 seeded by the SeedSequence child ``SeedSequence(entropy,
spawn_key=(i,))``, that is ``SeedSequence(entropy).spawn(2)``: entropy
(master_seed, r) for replicate r of ``run_replicates``, and ``run_trial``'s
``seed`` (an integer or a tuple of them).  No SeedSequence object is
built: ``_stream_seeds`` runs numpy's SeedSequence hash on columns of a
whole block, and each PCG64 is seeded from its words.  Both streams
are drawn before the block's first patient, each replicate from its own
streams and in the order it would consume them stepping alone
(``policies.draw_policy_variates``).  Patient t's outcome uses the t-th
noise variate whatever the policy did, so designs can be compared under
common random numbers, and results are identical for any worker count,
block size and chunking.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .gittins import GittinsTable, GittinsTableError
from .inference import z_statistic
from .policies import Allocator, PolicySpec, draw_policy_variates

__all__ = ["TrialScenario", "Replicates", "run_trial", "run_replicates", "shared_pool",
           "write_trace_csv"]

# Replicates stepped together.  A block's largest arrays are its RBI/RGI
# exponentials and kept mean trajectories, (BLOCK, T, K+1) each, 2.5 MB at
# K=3, T=302, and TS's quadrature arrays, (rows, K+1, grid points) for each
# group of the block's rows that share a point count: at most 1.2 MB each
# there at the largest point count measured in such trials (141).  Larger
# blocks gain little once per-step overhead is spread over a few hundred
# replicates.
BLOCK = 256

# numpy's SeedSequence: default pool size, hash and mixing constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Pools of the innermost ``shared_pool`` block, by worker count.
_shared_pools: ContextVar[dict[int, ProcessPoolExecutor] | None] = ContextVar(
    "shared_pools", default=None)


@dataclass(frozen=True)
class TrialScenario:
    """One simulated trial configuration.

    ``mu`` lists the K+1 true arm means with index 0 the control, so it
    fixes K, the number of experimental arms.
    """

    mu: tuple[float, ...]
    sigma: float
    T: int
    policy: PolicySpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) < 2:
            raise ValueError("mu must list a control and at least one experimental arm")
        if not all(math.isfinite(m) for m in self.mu):
            raise ValueError(f"arm means must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.T < self.K + 1:
            raise ValueError("T must cover the initialization phase (T >= K+1)")
        self.policy.check_arms(self.K)

    @property
    def K(self) -> int:
        return len(self.mu) - 1

    @property
    def is_global_null(self) -> bool:
        return max(self.mu) == min(self.mu)


@dataclass(frozen=True)
class Replicates:
    """M replicates of one scenario, reduced to what their reports need.

    Row r of the (M, ...) arrays is replicate r.  ``bias_sums[k, i]`` sums
    arm k's running mean after patient K+2+i over the replicates; None
    unless the run kept trajectories.  The (n, T) traces are those of the
    first n replicates, n being the run's ``traces`` (at most M).
    """

    scenario: TrialScenario
    z: np.ndarray                    # (M, K) contrasts of arms 1..K with the control
    counts: np.ndarray               # (M, K+1) observations per arm
    mean_outcome: np.ndarray         # (M,) mean outcome of the trial's patients
    bias_sums: np.ndarray | None     # (K+1, T-K-1)
    allocations: np.ndarray          # (n, T) arm index per patient
    outcomes: np.ndarray             # (n, T) observed outcome per patient

    @property
    def M(self) -> int:
        return len(self.z)


def _merge(blocks: list[Replicates]) -> Replicates:
    """Join block results in replicate order, adding their bias sums in block order."""
    bias_sums = None
    if blocks[0].bias_sums is not None:
        bias_sums = np.zeros_like(blocks[0].bias_sums)
        for block in blocks:
            bias_sums += block.bias_sums

    def join(name):
        return np.concatenate([getattr(block, name) for block in blocks])

    return Replicates(blocks[0].scenario, join("z"), join("counts"), join("mean_outcome"),
                      bias_sums, join("allocations"), join("outcomes"))


def _check_table(scenario: TrialScenario, table: GittinsTable | None) -> None:
    spec = scenario.policy
    if not spec.needs_table:
        return
    if table is None:
        raise ValueError(f"policy {spec.kind} requires a Gittins index table")
    if table.n_max < scenario.T:
        raise GittinsTableError(
            f"index table covers n <= {table.n_max} but the trial may observe "
            f"one arm {scenario.T} times; rebuild with n_max >= T")


def _uint32_words(value) -> list[int]:
    """An integer, or a sequence of them, as SeedSequence reads entropy and
    spawn keys: each integer's 32-bit words, least significant first."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [word for item in value for word in _uint32_words(item)]
    raise TypeError(f"seed entropy must be integers, got {type(value).__name__}")


def _stream_seeds(run_entropy: list) -> np.ndarray:
    """PCG64 seed words of streams 0 and 1 of R replicates, as a (2, R, 4) uint64 array.

    ``run_entropy`` holds the replicates' entropy words, each an int shared
    by all R or an (R,) uint32 column.  Row [i, r] equals
    ``SeedSequence(entropy_r, spawn_key=(i,)).generate_state(4, np.uint64)``:
    numpy's entropy assembly, ``mix_entropy`` and ``generate_state``, one
    array operation per step for the whole block.
    """
    def column(word):
        return np.asarray(word, dtype=np.uint32).reshape(-1)

    # a spawn key (the child index) is present, so the run entropy is padded
    # to the pool size
    entropy = [column(word) for word in run_entropy]
    entropy += [column(0)] * (_POOL_SIZE - len(entropy))
    entropy.append(np.arange(2, dtype=np.uint32)[:, None])

    # the hash constants do not depend on the data, so they stay Python ints
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ (value >> 16))
    # every pool word has mixed in the child index, so each is (2, R)
    state = np.stack(state, axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed words from ``_stream_seeds``: all that PCG64 asks of its seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64's 4 uint64 words only")
        return self.words


def _run_block(scenario: TrialScenario, table: GittinsTable | None,
               seed_words: np.ndarray, keep_trajectory: bool, traces: int) -> Replicates:
    """Step one replicate per row of ``seed_words`` (see ``_stream_seeds``)
    through patients 1..T together, keeping the first ``traces`` traces and,
    with ``keep_trajectory``, bias sums."""
    spec = scenario.policy
    K, T, sigma = scenario.K, scenario.T, scenario.sigma
    n_arms = K + 1
    R = seed_words.shape[1]

    noise = np.empty((R, T))
    policy_rngs = []
    for r, (policy_words, outcome_words) in enumerate(zip(*seed_words)):
        policy_rngs.append(np.random.Generator(np.random.PCG64(_SeedWords(policy_words))))
        noise[r] = np.random.Generator(
            np.random.PCG64(_SeedWords(outcome_words))).standard_normal(T)
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
    bias_sums = np.empty((n_arms, T - K - 1)) if keep_trajectory else None

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
        if keep_trajectory and t > n_arms:
            # a reduction over axis 0 adds the rows one after another
            bias_sums[:, t - n_arms - 1] = (sums / counts).sum(axis=0)

    # rows of contiguous outcomes: each mean is the same pairwise sum as a lone trace's
    outcomes = np.ascontiguousarray(outcomes.T)
    return Replicates(
        scenario=scenario,
        z=z_statistic(sums, counts, sigma),
        counts=counts,
        mean_outcome=outcomes.mean(axis=1),
        bias_sums=bias_sums,
        allocations=np.ascontiguousarray(allocations[:, :traces].T),
        outcomes=outcomes[:traces].copy(),
    )


def run_trial(scenario: TrialScenario, table: GittinsTable | None = None,
              seed: int | tuple[int, ...] = 0) -> Replicates:
    """Simulate one complete trial: a ``Replicates`` of M=1 with its trace.

    ``seed`` is SeedSequence entropy, an integer or a tuple of them; the
    first two children of ``SeedSequence(seed)`` seed the policy randomness
    and the outcome noise.  ``run_trial(s, table, (master_seed, r))``
    replays replicate r of ``run_replicates(s, table, master_seed, M)``.
    """
    _check_table(scenario, table)
    return _run_block(scenario, table, _stream_seeds(_uint32_words(seed)), False, 1)


def _block_seeds(master_words: list[int], first: int, stop: int) -> np.ndarray:
    """``_stream_seeds`` of replicates first..stop-1, replicate r's entropy
    being (master_seed, r)."""
    # Blocks start at multiples of BLOCK, which divides 2**32, so every r of
    # a block has as many 32-bit words as the last one.
    r = np.arange(first, stop, dtype=np.uint64)
    r_words = [(r >> np.uint64(32 * j) & np.uint64(_MASK32)).astype(np.uint32)
               for j in range(len(_uint32_words(stop - 1)))]
    return _stream_seeds(master_words + r_words)


def _run_chunk(scenario: TrialScenario, table: GittinsTable | None, master_words: list[int],
               keep_trajectory: bool, traces: int, start: int, stop: int) -> list[Replicates]:
    return [_run_block(scenario, table,
                       _block_seeds(master_words, first, min(first + BLOCK, stop)),
                       keep_trajectory, max(traces - first, 0))
            for first in range(start, stop, BLOCK)]


@contextmanager
def shared_pool():
    """Let the ``run_replicates`` calls made inside the block share worker processes.

    The pool for a worker count starts on the first call that needs it and
    serves every later call with that count.  On exit each pool is shut down
    and its workers joined, so their CPU time and memory are accounted to
    the caller as reaped children.  A call made outside such a block enters
    one of its own.
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
                   keep_trajectory: bool = False, traces: int = 0) -> Replicates:
    """Simulate M independent replicates, reproducibly, each block reduced
    where it runs (see ``Replicates``).

    Replicate r derives its streams from (master_seed, r), and bias sums
    add each block's replicates in order, then the blocks in order, so the
    result is bitwise identical for any positive ``workers`` and any
    chunking.  With several workers the replicates are cut into chunks of
    whole blocks, about four per worker, and run in a process pool (see
    ``shared_pool``).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if traces < 0:
        raise ValueError(f"traces must be >= 0, got {traces}")
    _check_table(scenario, table)
    run = partial(_run_chunk, scenario, table, _uint32_words(master_seed),
                  keep_trajectory, traces)
    if workers == 1 or M <= BLOCK:
        return _merge(run(0, M))

    chunk = BLOCK * math.ceil(M / (workers * 4 * BLOCK))
    with nullcontext() if _shared_pools.get() is not None else shared_pool():
        pools = _shared_pools.get()
        if workers not in pools:
            pools[workers] = ProcessPoolExecutor(max_workers=workers)
        futures = [pools[workers].submit(run, start, min(start + chunk, M))
                   for start in range(0, M, chunk)]
        return _merge([block for future in futures for block in future.result()])


def write_trace_csv(replicates: Replicates, r: int, trace_path: str | Path,
                    summary_path: str | Path) -> None:
    """Dump traced replicate r: per-patient rows, and a per-arm summary beside them."""
    allocations, outcomes, counts = (replicates.allocations[r], replicates.outcomes[r],
                                     replicates.counts[r])
    with Path(trace_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "arm", "outcome"])
        for t, (arm, outcome) in enumerate(zip(allocations, outcomes), start=1):
            writer.writerow([t, int(arm), f"{outcome:.12g}"])
    # bincount adds in patient order, as the engine's running sums do
    means = np.bincount(allocations, weights=outcomes, minlength=counts.size) / counts
    with Path(summary_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "n", "mean"])
        for arm, (n, mean) in enumerate(zip(counts, means)):
            writer.writerow([arm, n, f"{mean:.12g}"])
