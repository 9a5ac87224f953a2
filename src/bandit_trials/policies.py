"""Patient-allocation rules for multi-armed trials with normal outcomes.

Every rule is an array function over a block of R replicates stepped
together.  The state is two (R, K+1) arrays, ``sums`` and ``counts``: each
arm's running outcome sum and observation count in each replicate.  At
patient t a rule maps (state, t, pre-drawn variates) to (R, K+1) scores or
probabilities, and one vectorised selector picks every replicate's arm.
:class:`Allocator` steps a rule over a block; ``Allocator.values`` gives the
scores or probabilities it allocates from, recomputed every patient (every
``BATCH`` for TSB and TPB).  Each rule exists once: its own allocation and
the merit stage of the guarded rules both evaluate it via :func:`_rule_values`.

Each rule reduces to one of three shapes:

* deterministic index rules (UCB, KLU, CB, GI) and semi-randomised index
  rules (RBI, RGI) produce per-arm scores whose argmax is selected, ties
  broken uniformly at random (:func:`select_from_scores`);
* randomised rules (FR, TS, TP and their batched variants TSB, TPB) produce
  per-arm probabilities that the next arm is sampled from
  (:func:`sample_from_probabilities`);
* control-guarded rules (CG, CUC) first flip a coin for the control arm and
  otherwise fall back to an inner index rule's argmax over all arms.

Random numbers: :func:`draw_policy_variates` draws every replicate's
variates from its own generator before the first patient: its
initialization order, then all of its uniforms in one call (see there), so
a replicate's allocations do not depend on the block it is stepped in.
RBI/RGI's unit exponentials are drawn by inversion, -log1p(-u), one
uniform each.

All rules assume every arm has at least one observation; the trial engine
guarantees that by allocating the first K+1 patients one per arm.

Allocation-time count convention: the dynamic-index lookup (GI, RGI, CG)
and the exploration bump of the semi-randomised rules (RBI, RGI) use the
serial number of the arm's *next* observation, n+1 -- the convention of the
designs whose operating characteristics this library reproduces -- while
the UCB/KLU confidence widths and the TS posteriors N(mean, sigma^2/n) use
the current count n.

Log index of UCB/KLU: ln t, with t the 1-based index of the patient being
allocated.  Auer, Cesa-Bianchi & Fischer (2002) count the plays made so far,
which is t-1 here.  The choice leaves acceptance criterion 8 unchanged: at
its fixed seeds the UCB gap C(302)-C(64) is 0.0757 under ln t and 0.0796
under ln(t-1), and both clear its Monte Carlo threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit, log_ndtr, ndtr

from .gittins import GittinsTable
from .inference import _contrasts

__all__ = [
    "POLICY_KINDS",
    "BATCH",
    "PolicySpec",
    "PolicyDraws",
    "draw_policy_variates",
    "Allocator",
    "ts_probabilities",
    "tp_probabilities",
    "select_from_scores",
    "sample_from_probabilities",
]

# The order is part of every CLI seed: ``cli._derived_seed`` takes a rule's
# position here, so reordering the tuple or inserting a kind moves every stream.
POLICY_KINDS = ("FR", "TS", "TSB", "RBI", "RGI", "UCB", "KLU", "CB", "GI",
                "CG", "CUC", "TP", "TPB")
# Patients between refreshes of a batched rule's (TSB, TPB) weights.
BATCH = 20
_BATCH_INNER = {"TSB": "TS", "TPB": "TP"}
_GUARD_INNER = {"CG": "GI", "CUC": "UCB"}
# Flags of the base rules; a batched or guarded variant takes its inner rule's.
_RANDOMIZED = frozenset({"FR", "TS", "TP"})
_NEEDS_TABLE = frozenset({"GI", "RGI"})
_ROUND_ROBIN_INIT = frozenset({"UCB", "KLU"})
_BUMPED = frozenset({"RBI", "RGI"})

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Most elements in one (rows, K+1, points) array of the TS quadrature, 8 MB
# of float64: a 1024-row four-arm block stays one chunk up to 256 points.
TS_CHUNK_ELEMENTS = 2**20


@dataclass(frozen=True)
class PolicySpec:
    """Allocation rule selection.

    The batched kinds (TSB, TPB) refresh their weights every ``BATCH``
    patients.  The guarded kinds (CG, CUC) choose the control outright with
    probability 1/(K+1).  The index rules' discount is the index table's
    (``GittinsTable.discount``).
    """

    kind: str

    def __post_init__(self) -> None:
        kind = self.kind.upper()
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        object.__setattr__(self, "kind", kind)

    @property
    def is_randomized(self) -> bool:
        return self.inner_kind in _RANDOMIZED

    @property
    def is_batched(self) -> bool:
        return self.kind in _BATCH_INNER

    @property
    def is_guarded(self) -> bool:
        return self.kind in _GUARD_INNER

    @property
    def inner_kind(self) -> str:
        return _BATCH_INNER.get(self.kind) or _GUARD_INNER.get(self.kind) or self.kind

    @property
    def needs_table(self) -> bool:
        return self.inner_kind in _NEEDS_TABLE

    @property
    def round_robin_init(self) -> bool:
        return self.inner_kind in _ROUND_ROBIN_INIT

    def check_arms(self, n_experimental: int) -> None:
        """Raise ValueError when the rule is undefined for this many arms."""
        if self.inner_kind == "TP" and n_experimental < 2:
            raise ValueError("TP/TPB are defined for multi-arm trials only (K >= 2)")


def ts_probabilities(sums, counts, sigma: float, t: int, T: int) -> np.ndarray:
    """Tempered posterior probability-of-best allocation weights.

    ``sums`` and ``counts`` have shape (..., K+1), one row per trial; the
    weights have the same shape, and each row's weights depend on that row
    alone.  Arm k's posterior is N(mean_k, sigma^2/n_k), and its chance p_k
    of being best is raised to the stabilising exponent c = t/(2T) and
    normalized; c = 0 gives the uniform vector.  No random numbers are
    drawn.

    * K = 1: p_1 = Phi(x) and p_0 = Phi(-x), x = (mean_1 - mean_0) /
      (sigma sqrt(1/n_0 + 1/n_1)).  The weights are taken in log space,
      w_k proportional to exp(c log Phi(+-x)), so they are exact to rounding
      even where a p is below the smallest double.
    * K >= 2: p_k is the integral of f_k(y) prod_{j != k} F_j(y) dy, f and F
      the posterior densities and CDFs, taken by the trapezoid rule on one
      grid per row, shared by its arms.  The grid spans every arm's mean
      +- 8 posterior s.d., and its spacing is at most half the smallest
      s.d.: each row's point count comes from that row alone, rounded up to
      a multiple of 16, and rows of equal count are evaluated together, in
      chunks whose (rows, K+1, points) arrays hold at most
      ``TS_CHUNK_ELEMENTS`` elements (a larger row runs alone, its memory
      unbounded).  Against an adaptive log-space quadrature the weights
      agree to within 1e-13 on states of real four-arm trials.  The best
      arm's probability is at least 1/(K+1) unless the grid collapses onto
      the means (each mean +- 8 s.d. rounds to the mean); that, and a grid
      whose size overflows, is a ValueError naming the patient.
    """
    counts = np.asarray(counts)
    means = np.asarray(sums, dtype=float) / counts
    c = t / (2.0 * T)
    if means.shape[-1] == 2:
        x = _contrasts(means, counts, sigma)[..., 0]
        # w_1 / (w_0 + w_1) with log(w_1 / w_0) = c (log Phi(x) - log Phi(-x))
        log_odds = c * (log_ndtr(x) - log_ndtr(-x))
        return np.stack((expit(-log_odds), expit(log_odds)), axis=-1)
    rows = means.reshape(-1, means.shape[-1])
    sds = sigma / np.sqrt(counts.reshape(rows.shape))
    lo = (rows - 8.0 * sds).min(axis=-1, keepdims=True)
    hi = (rows + 8.0 * sds).max(axis=-1, keepdims=True)
    needed = np.ceil(2.0 * (hi - lo) / sds.min(axis=-1, keepdims=True))[:, 0] + 1
    # a count that is NaN, infinite or beyond intp fails here, not as a garbage index below
    if not (needed < np.iinfo(np.intp).max).all():
        raise ValueError(f"TS weights for patient {t + 1}: the quadrature grid's size overflows; "
                         "the arm means or sigma overflow or underflow the arithmetic")
    n_points = (np.ceil(needed / 16) * 16).astype(np.intp)
    p_best = np.empty(rows.shape)
    for n in np.unique(n_points):
        group = np.flatnonzero(n_points == n)
        step = max(1, TS_CHUNK_ELEMENTS // (rows.shape[-1] * int(n)))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            p_best[chunk] = _trapezoid_p_best(rows[chunk], sds[chunk], lo[chunk], hi[chunk], n)
    weights = (p_best ** c).reshape(means.shape)
    total = weights.sum(axis=-1, keepdims=True)
    # every mean +- 8 s.d. rounds to the mean: a grid of no width, every p_best 0
    if not (total > 0).all():
        raise ValueError(f"TS weights for patient {t + 1}: the quadrature grid collapsed onto "
                         "the arm means; the means are too large for their posterior s.d.")
    return weights / total


def _trapezoid_p_best(means, sds, lo, hi, n_points: int) -> np.ndarray:
    """Each row's chance of each arm being best, (R, K+1), by the trapezoid
    rule on ``n_points`` points from ``lo`` to ``hi`` (R, 1)."""
    # np.linspace's arithmetic, one row at a time
    dy = (hi - lo) / (n_points - 1)
    y = np.arange(n_points) * dy + lo
    y[:, -1] = hi[:, 0]
    z = (y[:, None, :] - means[..., None]) / sds[..., None]
    cdf = ndtr(z)
    # row k: arm k's density (up to its factor 1/(sqrt(2 pi) s_k)) times
    # every other arm's CDF
    integrand = np.exp(-0.5 * z * z)
    for j in range(means.shape[-1]):
        integrand[:, :j, :] *= cdf[:, j:j + 1, :]
        integrand[:, j + 1:, :] *= cdf[:, j:j + 1, :]
    trapezoid = integrand.sum(axis=-1) - 0.5 * (integrand[..., 0] + integrand[..., -1])
    return trapezoid * (dy / _SQRT_2PI) / sds


def tp_probabilities(sums, counts, sigma: float, t: int, T: int) -> np.ndarray:
    """Control-balancing randomised weights for multi-arm trials.

    ``sums`` and ``counts`` have shape (..., K+1), one row per trial.
    Experimental arm k gets weight proportional to
    P[mu_k > mu_0 | data]^gamma with gamma = 3 (t/T)^1.75, normalized over
    the experimental arms; the control weight is
    (1/K) exp[(max_k (n_k - n_0))^eta] with eta = 0.25 (t/T), the base
    floored at zero and 0^0 taken as 0 so the t = 0 vector is uniform.
    """
    counts = np.asarray(counts)
    K = counts.shape[-1] - 1
    if K < 2:
        raise ValueError("this rule is defined for multi-arm trials only (K >= 2)")
    frac = t / T
    gamma = 3.0 * frac ** 1.75
    eta = 0.25 * frac
    means = np.asarray(sums, dtype=float) / counts
    p_beats_control = 0.5 * (1.0 + erf(_contrasts(means, counts, sigma) / _SQRT2))
    tempered = p_beats_control ** gamma
    total = tempered.sum(axis=-1, keepdims=True)
    experimental = np.divide(tempered, total, out=np.full(tempered.shape, 1.0 / K),
                             where=total > 0.0)

    count_edge = counts[..., 1:].max(axis=-1) - counts[..., 0]
    base = np.maximum(count_edge, 0).astype(float)
    exponent = np.where((base == 0.0) & (eta == 0.0), 0.0, np.power(base, eta))
    control_weight = np.exp(exponent) / K

    probs = np.concatenate((control_weight[..., None], experimental), axis=-1)
    return probs / probs.sum(axis=-1, keepdims=True)


def _rule_values(kind: str, sums, counts, sigma: float, t: int, T: int,
                 bonuses: np.ndarray | None = None, bumps=None) -> np.ndarray:
    """Scores or probabilities of rule ``kind`` for patient t, shape (..., K+1).

    ``kind`` is FR, TS, TP or an index rule.  ``bonuses`` is the index
    table's values (GI, RGI); ``bumps`` holds the decision's unit
    exponentials E, one per arm (RBI, RGI).  TS and TP are tempered by the
    t-1 patients already allocated.  For an arm with n observations and
    mean m:

    * CB: m;  GI: m + sigma v(n+1);  RGI: GI + E/(n+1);  RBI: m + E/(n+1);
    * UCB: m + sigma sqrt(2 ln t / n);
    * KLU: m + sigma sqrt(max(2 (ln t + 3 ln ln t), 0) / n).

    ``ts_probabilities`` and ``tp_probabilities`` are looked up by their
    module names at each call, so a wrapper installed on those names sees
    every evaluation.
    """
    if kind == "FR":
        return np.full(np.shape(counts), 1.0 / np.shape(counts)[-1])
    if kind == "TS":
        return ts_probabilities(sums, counts, sigma, t - 1, T)
    if kind == "TP":
        return tp_probabilities(sums, counts, sigma, t - 1, T)
    means = sums / counts
    if kind == "CB":
        return means
    if kind == "GI":
        # table entry n+1, the arm's next observation: bonuses[n] 0-indexed
        return means + sigma * bonuses[counts]
    if kind == "RGI":
        return means + sigma * bonuses[counts] + bumps / (counts + 1)
    if kind == "RBI":
        return means + bumps / (counts + 1)
    if kind == "UCB":
        width = sigma * math.sqrt(2.0 * math.log(t))
    else:  # KLU
        log_t = math.log(t)
        width = sigma * math.sqrt(max(2.0 * (log_t + 3.0 * math.log(log_t)), 0.0))
    return means + width / np.sqrt(counts)


def select_from_scores(scores: np.ndarray, u) -> np.ndarray:
    """Argmax of each row of ``scores`` (..., K+1), ties broken by ``u`` (...).

    A row with m tied maxima takes the floor(u m)-th of them, so a row with
    one maximum takes it whatever u is, which is all that is computed when no
    row is tied.  Each decision consumes its uniform, tie or not, so
    selection streams stay aligned between runs whose scores differ by a
    constant.  The loops run over the K+1 arms, not the rows: numpy reduces
    a short last axis row by row.
    """
    columns = [scores[..., j] for j in range(scores.shape[-1])]
    top = columns[0]
    first = np.zeros(top.shape, dtype=np.intp)
    for j, column in enumerate(columns[1:], start=1):
        first = np.where(column > top, j, first)
        top = np.maximum(top, column)
    if np.count_nonzero(scores == top[..., None]) == top.size:
        return first
    hits = [column == top for column in columns]
    n_ties = np.zeros(top.shape, dtype=np.intp)
    for hit in hits:
        n_ties += hit
    pick = (u * n_ties).astype(np.intp)  # 0 for a unique maximum
    # the chosen arm is the number of arms whose running tie count is <= pick
    seen = np.zeros(top.shape, dtype=np.intp)
    choice = np.zeros(top.shape, dtype=np.intp)
    for hit in hits:
        seen += hit
        choice += seen <= pick
    return choice


def sample_from_probabilities(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw from each row of ``probs`` (..., K+1), one uniform per row.

    Returns the first arm whose cumulative probability exceeds u, or the last
    arm when rounding leaves the total at or below u.  The cumulative sums
    add the arms in order, one column at a time.
    """
    u = np.asarray(u)
    cumulative = probs[..., 0]
    choice = (cumulative <= u).astype(np.intp)
    for j in range(1, probs.shape[-1] - 1):
        cumulative = cumulative + probs[..., j]
        choice += cumulative <= u
    return choice


@dataclass(frozen=True)
class PolicyDraws:
    """Every random number a block's rule consumes, drawn before patient 1.

    ``init`` (R, K+1) holds the arms of patients 1..K+1.  ``uniforms`` holds
    one uniform per decision (R, T-K-1), or for CG/CUC a pool of two per
    decision (R, 2(T-K-1)), read through a cursor.  ``bumps``
    (R, T-K-1, K+1) holds RBI/RGI's unit exponentials, else None; for those
    rules ``bumps`` and ``uniforms`` are views of one (R, T-K-1, K+2) array,
    each decision's row holding its K+1 exponentials and then its selection
    uniform.
    """

    init: np.ndarray
    uniforms: np.ndarray
    bumps: np.ndarray | None = None


def draw_policy_variates(spec: PolicySpec, K: int, T: int, rngs) -> PolicyDraws:
    """Draw each replicate's policy variates up front, one generator per replicate.

    ``rngs`` is a sized iterable of the block's generators in replicate
    order, read one after another, so it may build each only when reached.
    Each generator is read as:

    * the initialization order, a permutation of the K+1 arms, unless the
      rule assigns patient t to arm t-1 (UCB, KLU, CUC);
    * then one call for every uniform of the trial:
      * RBI/RGI: (T-K-1, K+2) uniforms, a row per decision: K+1 unit
        exponentials by inversion, -log1p(-u), and then the selection
        uniform;
      * CG/CUC: a pool of two per decision, read through a cursor: the
        guard uniform and, only when the guard did not fire, the selection
        uniform; the unused tail of the pool is never read;
      * every other rule: one uniform per decision.
    """
    n_arms = K + 1
    n_decisions = T - n_arms
    bumped = spec.kind in _BUMPED
    if bumped:
        raw = np.empty((len(rngs), n_decisions, n_arms + 1))
    else:
        raw = np.empty((len(rngs), 2 * n_decisions if spec.is_guarded else n_decisions))
    init = np.empty((len(rngs), n_arms), dtype=np.intp)
    if spec.round_robin_init:
        init[:] = np.arange(n_arms)
    for r, rng in enumerate(rngs):
        if not spec.round_robin_init:
            init[r] = rng.permutation(n_arms)
        rng.random(out=raw[r])
    if not bumped:
        return PolicyDraws(init, raw)
    # -log1p(-u) in place over the block: no second array of exponentials
    bumps = raw[..., :n_arms]
    np.negative(bumps, out=bumps)
    np.log1p(bumps, out=bumps)
    np.negative(bumps, out=bumps)
    return PolicyDraws(init, raw[..., n_arms], bumps)


class Allocator:
    """Rule ``spec`` bound to one block of replicates and its pre-drawn variates.

    ``allocate(sums, counts, t)`` returns each replicate's arm for patient t,
    shape (R,), from the block's state before that patient.  Patients
    1..K+1 follow ``draws.init``.  ``T`` is the trial size, which the
    tempering of the randomised rules needs; ``table`` serves GI, RGI and
    CG.  The rule's state lives here: its last values and their refresh
    interval (``BATCH`` for TSB and TPB, else 1), and a guarded rule's cursor.
    """

    def __init__(self, spec: PolicySpec, sigma: float, T: int,
                 table: GittinsTable | None, draws: PolicyDraws):
        self.spec = spec
        self.sigma = sigma
        self.T = T
        self.draws = draws
        n_rows, self.n_arms = draws.init.shape
        self._bonuses = table.values if spec.needs_table else None
        self._rows = np.arange(n_rows)
        self._cursor = np.zeros(n_rows, dtype=np.intp)
        self._refresh = BATCH if spec.is_batched else 1
        self._values = np.full((n_rows, self.n_arms), 1.0 / self.n_arms)

    def values(self, sums, counts, t: int) -> np.ndarray:
        """The (R, K+1) scores or probabilities patient t > K+1 is allocated from.

        They start uniform and are recomputed from the state only at t with
        (t-1) % refresh == 0; outcomes accrue to the state in between but
        stay invisible until then.  A guarded rule's are its inner index
        rule's scores.
        """
        if (t - 1) % self._refresh == 0:
            draws = self.draws
            bumps = None if draws.bumps is None else draws.bumps[:, t - self.n_arms - 1]
            self._values = _rule_values(self.spec.inner_kind, sums, counts, self.sigma, t,
                                        self.T, self._bonuses, bumps)
        return self._values

    def __call__(self, sums, counts, t: int) -> np.ndarray:
        if t <= self.n_arms:
            return self.draws.init[:, t - 1]
        values = self.values(sums, counts, t)
        uniforms = self.draws.uniforms
        if self.spec.is_guarded:
            # With probability 1/(K+1) the control is chosen outright;
            # otherwise the inner index rule's argmax over all arms wins, so
            # the control can also be chosen on merit and its long-run share
            # exceeds 1/(K+1).
            cursor = self._cursor
            fired = uniforms[self._rows, cursor] < 1.0 / self.n_arms
            merit = select_from_scores(values, uniforms[self._rows, cursor + 1])
            self._cursor = cursor + 2 - fired
            return np.where(fired, 0, merit)
        u = uniforms[:, t - self.n_arms - 1]
        if self.spec.is_randomized:
            return sample_from_probabilities(values, u)
        return select_from_scores(values, u)
