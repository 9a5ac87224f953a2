"""Test statistics, critical values, and Monte Carlo calibration.

Hypotheses are one-sided superiority tests of K experimental arms against a
control: arm k is declared effective when its standardized contrast exceeds
a critical value.  For equal randomisation the critical value controlling
the family-wise error rate has a closed quadrature form; for adaptive
designs it is calibrated empirically as a percentile of the largest
contrasts of simulated null trials, read off ``run_replicates``'s z array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import bdtr, bdtrik, ndtr, ndtri

__all__ = [
    "CriticalValue",
    "Histogram",
    "CalibrationSummary",
    "z_statistic",
    "fwer_critical_value",
    "sample_size",
    "calibrate_critical_value",
    "default_histogram_edges",
]

_METHODS = ("analytic-mvn", "empirical-percentile", "fixed")


@dataclass(frozen=True)
class CriticalValue:
    """A rejection threshold plus how it was obtained."""

    value: float
    method: str
    alpha: float
    provenance: dict | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not math.isfinite(self.value):
            raise ValueError("critical value must be finite")


def z_statistic(sums, counts, sigma: float) -> np.ndarray:
    """Standardized contrasts of arms 1..K against the control arm 0.

    ``sums`` and ``counts`` hold each arm's outcome sum and observation
    count, shape (..., K+1); returns (mean_k - mean_0) / (sigma
    sqrt(1/n_k + 1/n_0)) for k = 1..K, shape (..., K).
    """
    counts = np.asarray(counts)
    if (counts < 1).any():
        raise ValueError("test statistic undefined: an arm was never sampled")
    means = np.asarray(sums, dtype=float) / counts
    return (means[..., 1:] - means[..., :1]) \
        / (sigma * np.sqrt(1.0 / counts[..., 1:] + 1.0 / counts[..., :1]))


def _max_z_cdf(c: float, K: int, nodes: np.ndarray, weights: np.ndarray) -> float:
    # Z_j = (e_j - e_0)/sqrt(2) with iid standard normals reproduces the
    # equicorrelated (rho = 1/2) law, so
    # P[max Z <= c] = E_u[ndtr(sqrt(2) c + u)^K], u standard normal.
    return float(weights @ ndtr(math.sqrt(2.0) * (c + nodes)) ** K)


def fwer_critical_value(K: int, alpha: float) -> CriticalValue:
    """Critical value controlling the family-wise error rate under equal
    randomisation.

    Solves P[max_j Z_j <= C] = 1 - alpha for the K-variate standard normal
    with all pairwise correlations 1/2 (the large-trial law of the contrasts
    when arm sizes are balanced), via a one-dimensional Gaussian quadrature
    reduction and bisection.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x, w = hermgauss(128)
    nodes = x  # with the sqrt(2) folded into _max_z_cdf's argument
    weights = w / math.sqrt(math.pi)
    target = 1.0 - alpha
    lo, hi = -10.0, 10.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if _max_z_cdf(mid, K, nodes, weights) < target:
            lo = mid
        else:
            hi = mid
    return CriticalValue(0.5 * (lo + hi), "analytic-mvn", alpha)


def sample_size(K: int, sigma: float, delta1: float, c_alpha: float, beta: float) -> int:
    """Total trial size for an equal-randomisation design.

    Evaluates (K+1) * 2 sigma^2 (C + z_beta)^2 / delta1^2 and rounds up to
    the next integer (e.g. 116 for the one-experimental-arm reference design
    and 302 for the three-arm design).
    """
    if delta1 <= 0:
        raise ValueError("delta1 must be positive")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    z_beta = float(ndtri(1.0 - beta))
    total = (K + 1) * (2.0 * sigma**2 * (c_alpha + z_beta) ** 2 / delta1**2)
    return math.ceil(total - 1e-9)


def default_histogram_edges() -> np.ndarray:
    """Calibration binning: [-6, 6] in steps of 0.2 with overflow bins."""
    interior = np.round(np.arange(-6.0, 6.0 + 0.1, 0.2), 10)
    return np.concatenate(([-np.inf], interior, [np.inf]))


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, edges: np.ndarray | None = None) -> "Histogram":
        edges = default_histogram_edges() if edges is None else np.asarray(edges, dtype=float)
        counts, _ = np.histogram(values, bins=edges)
        return cls(edges=edges, counts=counts)


@dataclass(frozen=True)
class CalibrationSummary:
    """Distribution summary of the calibrated statistic (Z, or max Z for K > 1)."""

    values: np.ndarray
    mean: float
    sd: float
    histogram: Histogram


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


def calibrate_critical_value(null_scenario, table, master_seed: int, M: int,
                             alpha: float, *, workers: int = 1):
    """Empirical critical value of an adaptive design under the global null.

    Simulates ``M`` independent trials of ``null_scenario`` (which must have
    all true means equal), collects the per-trial max contrast, and returns
    the nearest-rank (1-alpha) percentile together with a distribution
    summary.  ``provenance["ci95"]`` holds the distribution-free 95% interval
    of the percentile (see ``_percentile_interval_ranks``) as
    ``{"lower", "upper", "ranks"}``, so its Monte Carlo error travels with the
    value.  Replicate r is seeded from (master_seed, r), so results do not
    depend on worker count.
    """
    from .engine import run_replicates

    mu = null_scenario.mu
    if max(mu) != min(mu):
        raise ValueError("calibration requires a global-null scenario (all means equal); "
                         f"got mu={mu}")
    if M < 100:
        raise ValueError("calibration needs M >= 100 replicates")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    stats = run_replicates(null_scenario, table, master_seed, M, workers=workers).z.max(axis=1)
    rank = math.ceil((1.0 - alpha) * M)  # nearest-rank order statistic, 1-based
    ordered = np.sort(stats)
    value = float(ordered[rank - 1])
    lower_rank, upper_rank = _percentile_interval_ranks(M, 1.0 - alpha)
    summary = CalibrationSummary(
        values=stats,
        mean=float(stats.mean()),
        sd=float(stats.std(ddof=1)),
        histogram=Histogram.of(stats),
    )
    critical = CriticalValue(
        value=value,
        method="empirical-percentile",
        alpha=alpha,
        provenance={
            "M": M,
            "master_seed": master_seed,
            "policy": null_scenario.policy.kind,
            "K": null_scenario.K,
            "T": null_scenario.T,
            "hypothesis": null_scenario.hypothesis_label,
            "ci95": {
                "lower": float(ordered[lower_rank - 1]),
                "upper": float(ordered[upper_rank - 1]),
                "ranks": [lower_rank, upper_rank],
            },
        },
    )
    return critical, summary
