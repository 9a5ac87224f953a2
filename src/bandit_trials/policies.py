"""Patient-allocation rules for multi-armed trials with normal outcomes.

This module owns every rule: how it scores or weights the arms, which
random numbers it draws and in what order, and how the arm is chosen.
:func:`make_allocator` binds a rule to one trial's arm states; the trial
engine only validates its inputs, loops over patients and fans replicates
out, and knows nothing of any particular rule.  Each index rule has exactly
one scoring implementation, shared by its own allocation, the merit stage
of the guarded rules and :func:`policy_scores`.

Each rule reduces to one of three shapes:

* deterministic index rules (UCB, KLU, CB, GI) and semi-randomised index
  rules (RBI, RGI) produce a per-arm score vector whose argmax is selected,
  ties broken uniformly at random;
* randomised rules (FR, TS, TP and their batched variants TSB, TPB) produce
  a per-arm probability vector that the next arm is sampled from;
* control-guarded rules (CG, CUC) first flip a coin for the control arm and
  otherwise fall back to an inner index rule's argmax over all arms.

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

Scoring is pure given (state, rng), and a bound allocator holds only its
own trial's state, so replicates can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .gittins import GittinsTable, GittinsTableError

__all__ = [
    "POLICY_KINDS",
    "ArmState",
    "PolicySpec",
    "make_allocator",
    "policy_scores",
    "ts_probabilities",
    "tp_probabilities",
    "BatchedPolicy",
    "select_from_scores",
    "sample_from_probabilities",
]

POLICY_KINDS = ("FR", "TS", "TSB", "RBI", "RGI", "UCB", "KLU", "CB", "GI",
                "CG", "CUC", "TP", "TPB")
_RANDOMIZED = frozenset({"FR", "TS", "TSB", "TP", "TPB"})
_BATCH_INNER = {"TSB": "TS", "TPB": "TP"}
_GUARD_INNER = {"CG": "GI", "CUC": "UCB"}
_NEEDS_TABLE = frozenset({"GI", "RGI", "CG"})
_ROUND_ROBIN_INIT = frozenset({"UCB", "KLU", "CUC"})

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


class ArmState:
    """Sufficient statistic (running sum, observation count) of one arm."""

    __slots__ = ("sum", "n")

    def __init__(self, total: float = 0.0, n: int = 0):
        if n < 0:
            raise ValueError("observation count cannot be negative")
        self.sum = float(total)
        self.n = int(n)

    @property
    def mean(self) -> float:
        if self.n < 1:
            raise ValueError("mean undefined before the first observation")
        return self.sum / self.n

    def add(self, outcome: float) -> None:
        self.sum += outcome
        self.n += 1

    def __repr__(self) -> str:
        return f"ArmState(sum={self.sum!r}, n={self.n})"


@dataclass(frozen=True)
class PolicySpec:
    """Allocation rule selection plus its tuning knobs.

    ``batch`` defaults to 20 for the batched kinds (TSB, TPB) and 1
    otherwise; ``control_guard_prob=None`` resolves to 1/(K+1) at allocation
    time (pass 1/K explicitly for the stricter guard).
    """

    kind: str
    discount: float = 0.995
    batch: int | None = None
    control_guard_prob: float | None = None

    def __post_init__(self) -> None:
        kind = self.kind.upper()
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        object.__setattr__(self, "kind", kind)
        if self.batch is None:
            object.__setattr__(self, "batch", 20 if kind in _BATCH_INNER else 1)
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if self.control_guard_prob is not None and not 0.0 < self.control_guard_prob < 1.0:
            raise ValueError("control_guard_prob must lie in (0, 1)")

    @property
    def is_randomized(self) -> bool:
        return self.kind in _RANDOMIZED

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
        return self.kind in _NEEDS_TABLE

    @property
    def round_robin_init(self) -> bool:
        return self.kind in _ROUND_ROBIN_INIT

    def guard_prob(self, n_experimental: int) -> float:
        if self.control_guard_prob is not None:
            return self.control_guard_prob
        return 1.0 / (n_experimental + 1)

    def check_arms(self, n_experimental: int) -> None:
        """Raise ValueError when the rule is undefined for this many arms."""
        if self.inner_kind == "TP" and n_experimental < 2:
            raise ValueError("TP/TPB are defined for multi-arm trials only (K >= 2)")


def ts_probabilities(arms, sigma: float, t: int, T: int) -> np.ndarray:
    """Tempered posterior probability-of-best allocation weights.

    Arm k's posterior is N(mean_k, sigma^2/n_k), with density f_k and CDF
    F_k, and its chance of being best is the integral of
    f_k(y) prod_{j != k} F_j(y) dy.  The integral is taken by the trapezoid
    rule on one grid shared by all arms: it spans every arm's mean +- 8
    posterior s.d. and its spacing is at most half the smallest s.d., which
    puts the error near rounding level (the integrand is smooth and its
    tails beyond the grid are below 1e-15).  No random numbers are drawn.
    The probabilities are raised to the stabilising exponent c = t/(2T) and
    normalized; the best arm's probability is at least 1/(K+1), so the
    total never vanishes.
    """
    means = np.array([a.mean for a in arms])
    sds = sigma / np.sqrt(np.array([a.n for a in arms], dtype=float))
    lo = float((means - 8.0 * sds).min())
    hi = float((means + 8.0 * sds).max())
    y, dy = np.linspace(lo, hi, math.ceil(2.0 * (hi - lo) / sds.min()) + 1, retstep=True)
    z = (y - means[:, None]) / sds[:, None]
    cdf = ndtr(z)
    # row k: arm k's density (up to its factor 1/(sqrt(2 pi) s_k)) times
    # every other arm's CDF
    integrand = np.exp(-0.5 * z * z)
    for j in range(len(arms)):
        integrand[:j] *= cdf[j]
        integrand[j + 1:] *= cdf[j]
    trapezoid = integrand.sum(axis=1) - 0.5 * (integrand[:, 0] + integrand[:, -1])
    p_best = trapezoid * (dy / _SQRT_2PI) / sds
    c = t / (2.0 * T)
    weights = p_best ** c  # 0**0 == 1.0, so c == 0 yields the uniform vector
    return weights / weights.sum()


def tp_probabilities(arms, sigma: float, t: int, T: int) -> np.ndarray:
    """Control-balancing randomised weights for multi-arm trials.

    Experimental arm k gets weight proportional to
    P[mu_k > mu_0 | data]^gamma with gamma = 3 (t/T)^1.75, normalized over
    the experimental arms; the control weight is
    (1/K) exp[(max_k (n_k - n_0))^eta] with eta = 0.25 (t/T), the base
    floored at zero and 0^0 taken as 0 so the t = 0 vector is uniform.
    """
    K = len(arms) - 1
    if K < 2:
        raise ValueError("this rule is defined for multi-arm trials only (K >= 2)")
    frac = t / T
    gamma = 3.0 * frac ** 1.75
    eta = 0.25 * frac
    control = arms[0]
    p_beats_control = [
        _norm_cdf((arm.mean - control.mean)
                  / (sigma * math.sqrt(1.0 / arm.n + 1.0 / control.n)))
        for arm in arms[1:]
    ]
    tempered = np.array(p_beats_control) ** gamma
    total = tempered.sum()
    experimental = tempered / total if total > 0.0 else np.full(K, 1.0 / K)

    count_edge = max(arm.n for arm in arms[1:]) - control.n
    base = float(max(count_edge, 0))
    exponent = 0.0 if (base == 0.0 and eta == 0.0) else base ** eta
    control_weight = math.exp(exponent) / K

    probs = np.empty(K + 1)
    probs[0] = control_weight
    probs[1:] = experimental
    return probs / probs.sum()


def _probability_rule(kind: str):
    """The weight function of TS/TSB (``kind`` "TS") or TP/TPB ("TP").

    Both take (arms, sigma, t, T) with t the patients already allocated.
    The function is looked up by its module name each time a rule is
    bound, so a wrapper installed on that name sees every call.
    """
    return ts_probabilities if kind == "TS" else tp_probabilities


def _index_scorer(kind: str, arms, sigma: float, table: GittinsTable | None,
                  rng: np.random.Generator):
    """Bind index rule ``kind`` to the live arm states.

    Returns score(t) -> per-arm scores at patient index t.  This is the only
    implementation of each index: the rule's own allocation, the merit stage
    of the guarded rules and :func:`policy_scores` all call it.  Scalar math
    throughout: it runs once per patient decision.  For an arm with n
    observations and mean m, and E a unit exponential drawn per arm and
    decision:

    * CB: m;  GI: m + sigma v(n+1);  RGI: GI + E/(n+1);  RBI: m + E/(n+1);
    * UCB: m + sigma sqrt(2 ln t / n);
    * KLU: m + sigma sqrt(max(2 (ln t + 3 ln ln t), 0) / n).
    """
    if kind == "CB":

        def score(t: int) -> list[float]:
            return [a.sum / a.n for a in arms]

    elif kind == "GI":
        # table entry n+1, the arm's next observation: bonuses[n] 0-indexed
        bonuses = table.values.tolist()

        def score(t: int) -> list[float]:
            return [a.sum / a.n + sigma * bonuses[a.n] for a in arms]

    elif kind == "RGI":
        bonuses = table.values.tolist()
        n_arms = len(arms)

        def score(t: int) -> list[float]:
            bumps = rng.standard_exponential(n_arms)
            return [a.sum / a.n + sigma * bonuses[a.n] + bump / (a.n + 1)
                    for a, bump in zip(arms, bumps)]

    elif kind == "RBI":
        n_arms = len(arms)

        def score(t: int) -> list[float]:
            bumps = rng.standard_exponential(n_arms)
            return [a.sum / a.n + bump / (a.n + 1) for a, bump in zip(arms, bumps)]

    elif kind == "UCB":

        def score(t: int) -> list[float]:
            width = sigma * math.sqrt(2.0 * math.log(t))
            return [a.sum / a.n + width / math.sqrt(a.n) for a in arms]

    elif kind == "KLU":

        def score(t: int) -> list[float]:
            log_t = math.log(t)
            width = sigma * math.sqrt(max(2.0 * (log_t + 3.0 * math.log(log_t)), 0.0))
            return [a.sum / a.n + width / math.sqrt(a.n) for a in arms]

    else:
        raise ValueError(f"{kind} does not produce a plain score vector")
    return score


def policy_scores(spec: PolicySpec, arms, sigma: float, t: int, T: int,
                  table: GittinsTable | None = None,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Evaluate one allocation rule at the current trial state.

    ``t`` is the 1-based index of the patient being allocated; the tempering
    exponents of TS and TP use the t-1 patients already allocated, while the
    UCB/KLU logarithms use t itself.  Returns allocation probabilities for
    randomised rules (``spec.is_randomized``) and per-arm scores for index
    rules.  Guarded rules (CG, CUC) are two-stage selections, not vectors;
    allocate them with :func:`make_allocator`.
    """
    if any(a.n < 1 for a in arms):
        raise ValueError("every arm needs an observation before scoring; "
                         "the initialization phase was skipped")
    kind = spec.kind
    if kind == "FR":
        return np.full(len(arms), 1.0 / len(arms))
    if spec.inner_kind in ("TS", "TP"):
        return _probability_rule(spec.inner_kind)(arms, sigma, t - 1, T)
    if spec.is_guarded:
        raise ValueError(f"{kind} is a two-stage selection, not a score vector; "
                         "allocate it with make_allocator")
    if spec.needs_table:
        needed = max(a.n for a in arms) + 1
        if table is None or table.n_max < needed:
            raise GittinsTableError(f"{kind} needs an index table covering n = {needed}")
    return np.array(_index_scorer(kind, arms, sigma, table, rng)(t))


def select_from_scores(scores, rng: np.random.Generator) -> int:
    """Argmax with uniform tie-breaking.

    Exactly one uniform draw is consumed per call, tie or not, so selection
    streams stay aligned between runs whose scores differ by a constant.
    """
    u = rng.random()
    best = max(scores)
    ties = [i for i, s in enumerate(scores) if s == best]
    if len(ties) == 1:
        return ties[0]
    return ties[int(u * len(ties))]


def sample_from_probabilities(probs, rng: np.random.Generator) -> int:
    """Draw one arm index from a probability vector using one uniform."""
    u = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return last


class BatchedPolicy:
    """Blocked view of a randomised rule: probabilities refresh every ``b`` patients.

    The vector starts uniform, is recomputed from the current arm states at
    patient indices t with (t-1) % b == 0 (t > 1), and is reused in between;
    outcomes keep accruing to the arm states but stay invisible to the rule
    until the next refresh.  Trailing patients after the last full block use
    the final refreshed vector.
    """

    def __init__(self, spec: PolicySpec, n_arms: int):
        if spec.inner_kind not in ("TS", "TP"):
            raise ValueError("batched allocation expects a TS/TSB/TP/TPB spec")
        self.batch = spec.batch
        self._weights = _probability_rule(spec.inner_kind)
        self._probs = np.full(n_arms, 1.0 / n_arms)

    def probabilities(self, arms, sigma: float, t: int, T: int) -> np.ndarray:
        if t > 1 and (t - 1) % self.batch == 0:
            self._probs = self._weights(arms, sigma, t - 1, T)
        return self._probs


def make_allocator(spec: PolicySpec, arms, sigma: float, T: int,
                   table: GittinsTable | None, rng: np.random.Generator):
    """Bind the rule ``spec`` to the live arm states of one trial.

    Returns decide(t) -> arm index for patient t > K+1, drawing every random
    number the rule needs from ``rng``.  ``T`` is the trial size, which the
    tempering of the randomised rules needs.
    """
    kind = spec.kind
    n_arms = len(arms)

    if kind == "FR":
        uniform = [1.0 / n_arms] * n_arms

        def decide(t: int) -> int:
            return sample_from_probabilities(uniform, rng)

    elif kind in ("TS", "TP"):
        weights = _probability_rule(kind)

        def decide(t: int) -> int:
            return sample_from_probabilities(weights(arms, sigma, t - 1, T), rng)

    elif spec.is_batched:
        batched = BatchedPolicy(spec, n_arms)

        def decide(t: int) -> int:
            return sample_from_probabilities(batched.probabilities(arms, sigma, t, T), rng)

    elif spec.is_guarded:
        # With probability ``guard`` the control is chosen outright; otherwise
        # the inner index rule's argmax over all arms wins, so the control can
        # also be chosen on merit and its long-run share exceeds ``guard``.
        guard = spec.guard_prob(n_arms - 1)
        score = _index_scorer(spec.inner_kind, arms, sigma, table, rng)

        def decide(t: int) -> int:
            if rng.random() < guard:
                return 0
            return select_from_scores(score(t), rng)

    else:
        score = _index_scorer(kind, arms, sigma, table, rng)

        def decide(t: int) -> int:
            return select_from_scores(score(t), rng)

    return decide
