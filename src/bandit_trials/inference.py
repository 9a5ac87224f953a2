"""Test statistics, critical values, and Monte Carlo calibration.

Hypotheses are one-sided superiority tests of K experimental arms against a
control: arm k is declared effective when its standardized contrast exceeds
a critical value.  For equal randomisation the critical value controlling
the family-wise error rate has a closed quadrature form; for adaptive
designs it is calibrated empirically: ``calibrate_critical_value`` reduces
simulated null trials (a ``Replicates`` from ``engine.run_replicates``) to a
percentile of their largest contrasts, with the distribution-free 95%
interval of that percentile.  This module simulates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrik, ndtr, ndtri

__all__ = [
    "CriticalValue",
    "z_statistic",
    "fwer_critical_value",
    "sample_size",
    "calibrate_critical_value",
]

# fewest replicates a calibration accepts
MIN_CALIBRATION_M = 100


@dataclass(frozen=True)
class CriticalValue:
    """A rejection threshold at one-sided level ``alpha``.

    ``ci95`` is set for a calibrated value only: the distribution-free 95%
    interval of the percentile, ``{"lower", "upper", "ranks"}`` (see
    ``calibrate_critical_value``).
    """

    value: float
    alpha: float
    ci95: dict | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not math.isfinite(self.value):
            raise ValueError("critical value must be finite")

    @property
    def se(self) -> float | None:
        """Monte Carlo standard error of a calibrated value, read off ``ci95``
        as its width over 2 z_0.975; None for an analytic or file value."""
        if self.ci95 is None:
            return None
        return float((self.ci95["upper"] - self.ci95["lower"]) / (2 * ndtri(0.975)))


def z_statistic(sums, counts, sigma: float) -> np.ndarray:
    """Standardized contrasts of arms 1..K against the control arm 0.

    ``sums`` and ``counts`` hold each arm's outcome sum and observation
    count, shape (..., K+1); returns (mean_k - mean_0) / (sigma
    sqrt(1/n_k + 1/n_0)) for k = 1..K, shape (..., K).
    """
    counts = np.asarray(counts)
    if (counts < 1).any():
        raise ValueError("test statistic undefined: an arm was never sampled")
    return _contrasts(np.asarray(sums, dtype=float) / counts, counts, sigma)


def _contrasts(means, counts, sigma: float) -> np.ndarray:
    """``z_statistic`` from the arms' means (..., K+1), without its count check."""
    return (means[..., 1:] - means[..., :1]) \
        / (sigma * np.sqrt(1.0 / counts[..., 1:] + 1.0 / counts[..., :1]))


def _max_z_cdf(c: float, K: int, nodes: np.ndarray, weights: np.ndarray) -> float:
    # Z_j = (e_j - e_0)/sqrt(2) with iid standard normals reproduces the
    # equicorrelated (rho = 1/2) law, so
    # P[max Z <= c] = E_u[ndtr(sqrt(2) c + u)^K], u standard normal.
    return float(weights @ ndtr(math.sqrt(2.0) * c + nodes) ** K)


def fwer_critical_value(K: int, alpha: float) -> CriticalValue:
    """Critical value controlling the family-wise error rate under equal
    randomisation.

    Solves P[max_j Z_j <= C] = 1 - alpha for the K-variate standard normal
    with all pairwise correlations 1/2 (the large-trial law of the contrasts
    when arm sizes are balanced), via a one-dimensional reduction and
    bisection.  The expectation over u ~ N(0, 1) is a trapezoid rule on
    u_i = -10 + i/20, i = 0..400, with weights phi(u_i)/20; for this
    analytic Gaussian-weighted integrand the rule converges exponentially
    (Trefethen & Weideman, SIAM Review 56(3), 2014).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    nodes = -10.0 + np.arange(401) / 20.0
    weights = np.exp(-0.5 * nodes**2) / (20.0 * math.sqrt(2.0 * math.pi))
    target = 1.0 - alpha
    lo, hi = -10.0, 10.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if _max_z_cdf(mid, K, nodes, weights) < target:
            lo = mid
        else:
            hi = mid
    return CriticalValue(0.5 * (lo + hi), alpha)


def sample_size(K: int, sigma: float, delta1: float, c_alpha: float, beta: float) -> int:
    """Total trial size for an equal-randomisation design.

    Evaluates (K+1) * 2 sigma^2 (C + z_beta)^2 / delta1^2 and rounds up to
    the next integer (e.g. 116 for the one-experimental-arm reference design
    and 302 for the three-arm design).  A size below K+1, too few for the
    initialization phase's one patient per arm, is an error.
    """
    for name, value in (("sigma", sigma), ("delta1", delta1)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    z_beta = float(ndtri(1.0 - beta))
    try:
        total = (K + 1) * (2.0 * sigma**2 * (c_alpha + z_beta) ** 2 / delta1**2)
    except (OverflowError, ZeroDivisionError):
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"the trial size for sigma={sigma} and delta1={delta1} is not a finite "
                         "number; they overflow or underflow the arithmetic")
    size = math.ceil(total - 1e-9)
    if size < K + 1:
        raise ValueError(f"the trial size for sigma={sigma} and delta1={delta1} is {size}, below "
                         f"the K+1 = {K + 1} patients of the initialization phase")
    return size


def _percentile_interval_ranks(M: int, q: float) -> tuple[int, int]:
    """1-based order-statistic ranks (l, u) bracketing the q-quantile of M draws.

    With B ~ Binomial(M, q) the number of draws at or below the true
    quantile, X_(l) <= xi_q <= X_(u) holds exactly when l <= B <= u-1, so
    taking l and u-1 as the 2.5% and 97.5% binomial quantiles gives coverage
    of at least 95% for any continuous law (the distribution-free interval;
    no extra simulation).  Ranks are clipped to 1..M, which only matters
    when q sits within a few draws of either end.
    """
    lower = _binomial_quantile(0.025, M, q)
    upper = _binomial_quantile(0.975, M, q) + 1
    return max(lower, 1), min(upper, M)


def _binomial_quantile(level: float, n: int, p: float) -> int:
    """Smallest k with P[Binomial(n, p) <= k] >= level, computed as
    ``scipy.stats.binom.ppf`` does: ``bdtrik`` rounded up, then one step down
    if ``bdtr`` shows the integer below already reaches the level."""
    k = math.ceil(bdtrik(level, n, p))
    return k - 1 if k > 0 and bdtr(k - 1, n, p) >= level else k


def calibrate_critical_value(replicates, alpha: float) -> CriticalValue:
    """Empirical critical value of an adaptive design under the global null.

    ``replicates`` are simulated trials of a scenario whose true means are
    all equal (see ``engine.run_replicates``); returns the nearest-rank
    (1-alpha) percentile of their per-trial max contrast.  Its ``ci95`` holds
    the distribution-free 95% interval of the percentile (see
    ``_percentile_interval_ranks``) as ``{"lower", "upper", "ranks"}``, so
    its Monte Carlo error travels with the value.
    """
    if not replicates.scenario.is_global_null:
        raise ValueError("calibration requires a global-null scenario (all means equal); "
                         f"got mu={replicates.scenario.mu}")
    M = replicates.M
    if M < MIN_CALIBRATION_M:
        raise ValueError(f"calibration needs M >= {MIN_CALIBRATION_M} replicates")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    # nearest-rank order statistic, 1-based; the guard keeps a product that
    # rounds just above an integer ((1 - 0.059) * 1000 = 941.0000000000001)
    # from taking the next rank, and an alpha within 1e-9 / M of 1 reads the
    # smallest statistic, not (through index -1) the largest
    rank = max(1, math.ceil((1.0 - alpha) * M - 1e-9))
    ordered = np.sort(replicates.z.max(axis=1))
    lower_rank, upper_rank = _percentile_interval_ranks(M, 1.0 - alpha)
    return CriticalValue(float(ordered[rank - 1]), alpha, ci95={
        "lower": float(ordered[lower_rank - 1]),
        "upper": float(ordered[upper_rank - 1]),
        "ranks": [lower_rank, upper_rank],
    })
