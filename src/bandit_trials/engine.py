"""Sequential trial simulation: arrival, allocation, outcomes, reduction.

A replicate processes patients 1..T in order.  The first K+1 patients are
an initialization phase giving every arm exactly one observation: UCB-family
rules assign patient t to arm t-1 as their definitions require, all other
rules use a uniformly random arm order.  From patient K+2 on, the scenario's
allocation rule (``policies.Allocator``) picks the arm; the outcome is drawn
N(mu_k, sigma^2) and is observable before the next allocation (batched
rules see a stale probability vector instead, refreshed per block of
patients).

Replicate r of a master seed is the only identity a trial has, and a block
of replicates the only unit of work.  ``run_replicates`` cuts a run into
groups of ``BLOCK`` replicates, [0, BLOCK), [BLOCK, 2 BLOCK), ..., and
steps them in blocks of g groups, g = min(``STEP_GROUPS``, ceil(groups /
workers)) (only the last group and block may be short).  The loop runs over
patients, and each step updates the (R, K+1) ``sums`` and ``counts`` of all
R replicates of the block with array operations, so numpy's fixed cost per
call is spread over up to 1024 rows.  A block returns only what the reports
need (``Replicates``: per-replicate contrasts, counts and mean outcome,
bias sums per 256-row group, a few traces).  A block records allocations
only for the rows it traces, the run's first ``traces`` replicates; it
keeps every row's outcomes, which its mean outcomes reduce.  A scenario's
bounds on the arm means and sigma (``TrialScenario``) keep every value a
run produces finite, so the run checks none of them.
``run_trial(scenario, table, (master_seed, r))`` runs the one-row block
[r, r+1) through the same block function and returns its ``Replicates``,
trace kept.  With several workers, each block is one task of a process
pool of at most one worker per block.  Calls made inside a ``shared_pool``
block, as every CLI command is, share one pool, which is shut down and its
workers joined when the block ends; a call made outside one runs in a block
of its own.

Randomness discipline: each replicate owns two independent streams derived
from (master_seed, r): one for policy randomness (initialization order,
exploration bumps, control-guard coin flips, tie-breaks, arm sampling), one
for outcome noise.  Stream i (0 policy, 1 noise) is numpy's PCG64 seeded by
the SeedSequence child ``SeedSequence((master_seed, r), spawn_key=(i,))``,
that is ``SeedSequence((master_seed, r)).spawn(2)[i]``.  No SeedSequence
object is built: each block derives its own seeds, as ``_stream_seeds``
runs numpy's SeedSequence hash on columns of each 256-row group of the
block, and each PCG64 is seeded from its words.  Both streams are drawn
before the block's first patient, each replicate from its own streams and
in the order it would consume them stepping alone
(``policies.draw_policy_variates``).  Patient t's outcome uses the t-th
noise variate whatever the policy did, so designs can be compared under
common random numbers.  Every per-replicate array (contrasts, counts, mean
outcome, traces) is identical for any worker count and block size.  The
bias sums are too: the reduction group is fixed at ``BLOCK`` rows whatever
the stepping block, each group sums its own replicates in order, and the
groups are added in order.
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

# Replicates reduced together: the bias sums add each group of BLOCK
# replicates (aligned to multiples of BLOCK in r) in replicate order and
# then the groups in order, and each group derives its own stream seeds, so
# no seeding straddles a 2**32 boundary of r.
BLOCK = 256
# Groups stepped together, at most: a stepping block of up to 1024 rows
# spreads numpy's fixed cost per call at each patient over 4x the rows of
# one group.  A block's largest arrays, at 1024 rows and K=3, T=302: RBI/
# RGI's draws, one (R, T-K-1, K+2) buffer of exponentials and selection
# uniforms, 12.2 MB; TS's quadrature arrays, (rows, K+1, grid points) for
# each set of the block's rows that share a point count, at most 4.6 MB
# each at the largest point count measured in such trials (141); the (T, R)
# noise and the (R, T) outcomes, 2.5 MB each.
STEP_GROUPS = 4

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

    Every arm mean lies within +-1e100 and sigma within [1e-100, 1e100].
    Inside these bounds no value a run produces overflows.  A float64
    standard normal drawn from 53-bit uniforms is below 40 in size (numpy's
    ziggurat gives at most about 13.7), so each outcome, running mean and
    mean outcome is below 4.1e101 in size.  An arm sum over T < 2**63
    patients, and a bias sum over fewer than 2**63 replicates, stays below
    4e120.  A contrast divides a difference below 8.2e101 by
    sigma sqrt(1/n_k + 1/n_0) >= 1e-100 * 2**-31.5, so it stays below 3e211.
    Every value is below about 1e215, far from float64's 1.8e308.
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
        if max(map(abs, self.mu)) > 1e100 or not 1e-100 <= self.sigma <= 1e100:
            raise ValueError(f"arm means {self.mu} or sigma {self.sigma} overflow or underflow "
                             "the arithmetic; the means must lie within +-1e100 and sigma "
                             "within [1e-100, 1e100]")
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
    unless the run kept trajectories.  A stepping block's own result holds
    one such sum per group of ``BLOCK`` replicates, (groups, K+1, T-K-1),
    which ``_merge`` adds in order.  The (n, T) traces are those of the
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
    """Join block results in replicate order, adding their groups' bias sums in order."""
    bias_sums = None
    if blocks[0].bias_sums is not None:
        bias_sums = np.zeros_like(blocks[0].bias_sums[0])
        for block in blocks:
            for group_sums in block.bias_sums:
                bias_sums += group_sums

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


def _uint32_words(value: int) -> list[int]:
    """A non-negative integer's 32-bit words, least significant first: how
    SeedSequence reads an integer of its entropy."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seed entropy must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _stream_seeds(master_words: list[int], first: int, stop: int) -> np.ndarray:
    """PCG64 seed words of streams 0 and 1 of replicates first..stop-1, as a
    (2, R, 4) uint64 array.

    Replicate r's entropy is (master_seed, r), ``master_words`` being
    ``_uint32_words(master_seed)``.  Row [i, r - first] equals
    ``SeedSequence((master_seed, r), spawn_key=(i,)).generate_state(4, np.uint64)``:
    numpy's entropy assembly, ``mix_entropy`` and ``generate_state``, one
    array operation per step for the whole block.
    """
    # Every r of the range must have as many 32-bit words as the last one:
    # true of one replicate, and of a group of at most BLOCK replicates
    # starting at a multiple of BLOCK, which divides 2**32.
    n_words = len(_uint32_words(stop - 1))
    r = np.arange(first, stop, dtype=np.uint64)
    r_words = [(r >> np.uint64(32 * j) & np.uint64(_MASK32)).astype(np.uint32)
               for j in range(n_words)]

    def column(word):
        return np.asarray(word, dtype=np.uint32).reshape(-1)

    # a spawn key (the child index) is present, so the run entropy is padded
    # to the pool size
    entropy = [column(word) for word in master_words + r_words]
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


class _Generators:
    """One stream's generators for a block's replicates, in replicate order,
    each built only when it is reached, so at most one is alive at a time."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        for words in self.words:
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _run_block(scenario: TrialScenario, table: GittinsTable | None, master_words: list[int],
               keep_trajectory: bool, traces: int, first: int, stop: int) -> Replicates:
    """Step replicates first..stop-1 of the master seed with words
    ``master_words`` through patients 1..T together, keeping the traces of
    the run's first ``traces`` replicates and, with ``keep_trajectory``,
    bias sums per group of ``BLOCK`` replicates.  ``first`` is a multiple
    of ``BLOCK``, or the block is one replicate."""
    spec = scenario.policy
    K, T, sigma = scenario.K, scenario.T, scenario.sigma
    n_arms = K + 1
    R = stop - first
    groups = [slice(start, min(start + BLOCK, R)) for start in range(0, R, BLOCK)]
    policy_words, outcome_words = np.concatenate(
        [_stream_seeds(master_words, first + rows.start, first + rows.stop) for rows in groups],
        axis=1)

    # patient t's noise is row t-1, each replicate's column drawn in one call
    noise = np.empty((T, R))
    for r, rng in enumerate(_Generators(outcome_words)):
        noise[:, r] = rng.standard_normal(T)
    allocate = Allocator(spec, sigma, T, table,
                         draw_policy_variates(spec, K, T, _Generators(policy_words)))

    # (sums, counts) are updated through flat indices row * (K+1) + arm
    mu = np.array(scenario.mu)
    row_starts = np.arange(R) * n_arms
    sums = np.zeros((R, n_arms))
    counts = np.zeros((R, n_arms), dtype=np.int64)
    flat_sums, flat_counts = sums.reshape(-1), counts.reshape(-1)
    # allocations of the traced rows only: the run's first ``traces`` replicates
    kept = min(max(traces - first, 0), R)
    allocations = np.empty((T, kept), dtype=np.int16)
    outcomes = np.empty((R, T))
    bias_sums = np.empty((len(groups), n_arms, T - K - 1)) if keep_trajectory else None

    for t in range(1, T + 1):
        k = allocate(sums, counts, t)
        y = mu[k] + sigma * noise[t - 1]
        cells = row_starts + k
        flat_sums[cells] += y
        flat_counts[cells] += 1
        allocations[t - 1] = k[:kept]
        outcomes[:, t - 1] = y
        if keep_trajectory and t > n_arms:
            means = sums / counts
            for g, rows in enumerate(groups):
                # a reduction over axis 0 adds the rows one after another
                bias_sums[g, :, t - n_arms - 1] = means[rows].sum(axis=0)

    z = z_statistic(sums, counts, sigma)
    # rows of contiguous outcomes: each mean is the same pairwise sum as a lone trace's
    mean_outcome = outcomes.mean(axis=1)
    return Replicates(
        scenario=scenario,
        z=z,
        counts=counts,
        mean_outcome=mean_outcome,
        bias_sums=bias_sums,
        allocations=np.ascontiguousarray(allocations.T),
        outcomes=outcomes[:kept].copy(),
    )


def run_trial(scenario: TrialScenario, table: GittinsTable | None,
              seed: tuple[int, int]) -> Replicates:
    """Replay replicate r of master seed m, ``seed = (m, r)``: the one-row
    ``Replicates`` of row r of ``run_replicates(scenario, table, m, M)``, any
    M > r, with its trace."""
    try:
        master_seed, r = seed
    except (TypeError, ValueError):
        raise TypeError(f"seed must be a (master_seed, r) pair, got {seed!r}") from None
    # the seed derivation holds replicate indices as uint64
    if r >= 2**64:
        raise ValueError(f"replicate index r must be below 2**64, got {r}")
    _check_table(scenario, table)
    return _run_block(scenario, table, _uint32_words(master_seed), False, r + 1, r, r + 1)


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
    add each group of ``BLOCK`` replicates in order, then the groups in
    order, so the result is bitwise identical for any positive ``workers``
    and any stepping block.  A stepping block holds ``BLOCK`` * g
    replicates, g = min(``STEP_GROUPS``, ceil(groups / workers)): no more
    rows per task than spreading the run's groups evenly over the workers
    takes.  With several workers and blocks, each block is one task of a
    process pool of at most one worker per block (see ``shared_pool``).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if traces < 0:
        raise ValueError(f"traces must be >= 0, got {traces}")
    _check_table(scenario, table)
    run = partial(_run_block, scenario, table, _uint32_words(master_seed),
                  keep_trajectory, traces)
    n_groups = -(-M // BLOCK)
    step = BLOCK * min(STEP_GROUPS, -(-n_groups // workers))
    firsts = range(0, M, step)
    stops = [min(first + step, M) for first in firsts]
    workers = min(workers, len(firsts))
    if workers == 1:
        return _merge(list(map(run, firsts, stops)))

    with nullcontext() if _shared_pools.get() is not None else shared_pool():
        pools = _shared_pools.get()
        if workers not in pools:
            pools[workers] = ProcessPoolExecutor(max_workers=workers)
        return _merge(list(pools[workers].map(run, firsts, stops)))


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
