"""Test statistics, analytic and empirical critical values, sample size."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from bandit_trials.engine import Replicates, run_replicates
from bandit_trials.inference import (
    CriticalValue,
    _percentile_interval_ranks,
    calibrate_critical_value,
    fwer_critical_value,
    sample_size,
    z_statistic,
)

from .conftest import WORKERS, two_arm


class TestZStatistic:
    # arm states as (sums, counts) with the control first

    def test_equal_means_give_zero(self):
        assert z_statistic([2.0 * 5, 2.0 * 8], [5, 8], 1.0)[0] == 0.0

    def test_pinned_value(self):
        # 0.545 / sqrt(2/58)
        z = z_statistic([0.0, 0.545 * 58], [58, 58], 1.0)[0]
        assert z == pytest.approx(2.934914819888305, abs=1e-5)

    def test_inverse_linear_in_sigma(self):
        sums, counts = [1.0 * 9, 3.0 * 6], [9, 6]
        assert z_statistic(sums, counts, 2.0)[0] == pytest.approx(
            z_statistic(sums, counts, 1.0)[0] / 2.0)

    def test_unsampled_arm_rejected(self):
        with pytest.raises(ValueError, match="never sampled"):
            z_statistic([1.0, 0.0], [1, 0], 1.0)

    def test_block_of_trials(self):
        # one row per trial, one contrast per experimental arm
        sums = np.array([[0.0, 1.0, 2.0], [3.0, 3.0, 0.0]])
        counts = np.array([[1, 1, 4], [3, 1, 2]])
        z = z_statistic(sums, counts, 1.0)
        assert z.shape == (2, 2)
        for row in range(2):
            for k in (1, 2):
                n0, nk = counts[row, 0], counts[row, k]
                expected = (sums[row, k] / nk - sums[row, 0] / n0) / math.sqrt(1 / nk + 1 / n0)
                assert z[row, k - 1] == expected


def mc_max_equicorrelated_quantile(K, alpha, draws, seed):
    """Monte Carlo oracle: quantile of max of K standard normals with
    pairwise correlation 1/2, built from K+1 iid normals."""
    rng = np.random.default_rng(seed)
    top = np.empty(draws)
    chunk = 1_000_000
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        e = rng.standard_normal((m, K + 1))
        z = (e[:, 1:] - e[:, :1]) / math.sqrt(2.0)
        top[done:done + m] = z.max(axis=1)
        done += m
    return float(np.quantile(top, 1 - alpha))


def gauss_hermite_critical_value(K, alpha):
    """The FWER critical value by a 128-node Gauss-Hermite rule and the same
    bisection: the computation the trapezoid rule replaced, kept as its oracle."""
    x, w = hermgauss(128)
    weights = w / math.sqrt(math.pi)
    lo, hi = -10.0, 10.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if float(weights @ ndtr(math.sqrt(2.0) * (mid + x)) ** K) < 1.0 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFwerCriticalValue:
    @pytest.mark.parametrize("K", range(1, 13))
    def test_bit_identical_to_gauss_hermite(self, K):
        for alpha in (0.001, 0.005, 0.01, 0.02, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5):
            assert fwer_critical_value(K, alpha).value == gauss_hermite_critical_value(K, alpha)

    def test_single_arm_matches_normal_quantile(self):
        c = fwer_critical_value(1, 0.05)
        assert c.value == pytest.approx(1.6449, abs=1e-3)
        assert c.value == pytest.approx(float(ndtri(0.95)), abs=1e-3)

    def test_three_arm_value(self):
        assert fwer_critical_value(3, 0.05).value == pytest.approx(2.0621, abs=5e-3)

    def test_two_arm_against_mc_oracle(self):
        oracle = mc_max_equicorrelated_quantile(2, 0.05, 10_000_000, seed=15)
        assert fwer_critical_value(2, 0.05).value == pytest.approx(oracle, abs=5e-3)

    def test_monotone_in_k_and_alpha(self):
        values_k = [fwer_critical_value(k, 0.05).value for k in (1, 2, 3, 5, 8)]
        assert all(a < b for a, b in zip(values_k, values_k[1:]))
        values_a = [fwer_critical_value(3, a).value for a in (0.01, 0.05, 0.10, 0.20)]
        assert all(a > b for a, b in zip(values_a, values_a[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fwer_critical_value(0, 0.05)
        with pytest.raises(ValueError):
            fwer_critical_value(2, 0.0)


class TestSampleSize:
    def test_reference_designs(self):
        assert sample_size(1, 1.0, 0.545, 1.645, 0.10) == 116
        assert sample_size(3, 1.0, 0.545, 2.0621, 0.10) == 302

    def test_unit_case(self):
        # (K+1) * 2 sigma^2 (C + z_beta)^2 / delta^2 with C+z_beta = 1,
        # delta = sqrt(2): exactly 2
        assert sample_size(1, 1.0, math.sqrt(2.0), 1.0, 0.5) == 2

    def test_inverse_square_scaling_before_rounding(self):
        z_beta = float(ndtri(0.90))
        raw = 2 * 2 * (1.645 + z_beta) ** 2 / (2 * 0.545) ** 2
        assert sample_size(1, 1.0, 2 * 0.545, 1.645, 0.10) == math.ceil(raw - 1e-9)

    @pytest.mark.parametrize("K, sigma, delta1, size", [
        (1, 1e-200, 0.5, 0), (3, 1.0, 100.0, 1), (1, 1e-3, 0.5, 1)])
    def test_size_below_initialization_phase_rejected(self, K, sigma, delta1, size):
        with pytest.raises(ValueError, match=f"is {size}, below the K\\+1 = {K + 1} patients"):
            sample_size(K, sigma, delta1, 1.645, 0.1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sample_size(1, 1.0, 0.0, 1.645, 0.1)
        with pytest.raises(ValueError):
            sample_size(1, 1.0, 0.5, 1.645, 1.0)

    @pytest.mark.parametrize("sigma, delta1, name", [
        (0.0, 0.5, "sigma"), (-1.0, 0.5, "sigma"), (math.nan, 0.5, "sigma"),
        (math.inf, 0.5, "sigma"), (1.0, math.inf, "delta1"), (1.0, math.nan, "delta1"),
        (1.0, -0.5, "delta1"),
    ])
    def test_sigma_and_delta_finite_and_positive(self, sigma, delta1, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            sample_size(1, sigma, delta1, 1.645, 0.1)


class TestCalibration:
    def test_refuses_non_null_scenario(self, table995):
        replicates = run_replicates(two_arm("GI", 0.545), table995, 1, 200)
        with pytest.raises(ValueError, match="global-null"):
            calibrate_critical_value(replicates, 0.05)

    def test_requires_enough_replicates(self):
        replicates = run_replicates(two_arm("FR", 0.0, T=6), None, 1, 50)
        with pytest.raises(ValueError, match="M >= 100"):
            calibrate_critical_value(replicates, 0.05)

    def test_requires_alpha_in_unit_interval(self):
        replicates = run_replicates(two_arm("FR", 0.0, T=6), None, 1, 100)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                calibrate_critical_value(replicates, alpha)

    def test_nearest_rank_small_sample(self):
        replicates = run_replicates(two_arm("CB", 0.0, T=8), None, 16, 100)
        critical = calibrate_critical_value(replicates, 0.05)
        assert critical.value == float(np.sort(replicates.z.max(axis=1))[94])

    @pytest.mark.parametrize("M", [100, 300, 1000, 2500, 10_000])
    def test_nearest_rank_over_alpha_grid(self, M):
        # statistic r + 1 at row r, so the value read is the rank itself;
        # (1 - alpha) * M rounds above an integer for some alphas (0.059 at 1000)
        empty = np.empty((0, 0))
        replicates = Replicates(two_arm("FR", 0.0), np.arange(1.0, M + 1)[:, None],
                                empty, empty, None, empty, empty)
        for k in range(1, 1000):
            expected = math.ceil(Fraction(1000 - k, 1000) * M)
            assert calibrate_critical_value(replicates, k / 1000).value == expected, k

    def test_alpha_near_one_reads_the_smallest_statistic(self):
        # (1 - alpha) * M is 1e-10 here, which the rounding guard takes to
        # rank 0; the nearest rank is 1, the smallest statistic
        empty = np.empty((0, 0))
        replicates = Replicates(two_arm("FR", 0.0), np.arange(100.0, 0.0, -1.0)[:, None],
                                empty, empty, None, empty, empty)
        assert calibrate_critical_value(replicates, 0.999999999999).value == 1.0

    @pytest.mark.parametrize("M", [100, 10_000])
    def test_percentile_interval(self, M):
        replicates = run_replicates(two_arm("CB", 0.0, T=6), None, 23, M)
        critical = calibrate_critical_value(replicates, 0.05)
        ci = critical.ci95
        lower, upper = ci["ranks"]
        # l is the 2.5% and u-1 the 97.5% quantile of Binomial(M, 0.95), the
        # count of draws at or below the true 95th percentile
        assert binom.cdf(lower - 1, M, 0.95) < 0.025 <= binom.cdf(lower, M, 0.95)
        assert binom.cdf(upper - 2, M, 0.95) < 0.975 <= binom.cdf(upper - 1, M, 0.95)
        ordered = np.sort(replicates.z.max(axis=1))
        assert ci["lower"] == float(ordered[lower - 1])
        assert ci["upper"] == float(ordered[upper - 1])
        assert ci["lower"] <= critical.value <= ci["upper"]

    @pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
    def test_interval_ranks_match_binomial_ppf(self, q):
        sizes = np.array([*range(100, 3001), 10**4, 10**5, 10**6])
        lower = binom.ppf(0.025, sizes, q).astype(int)
        upper = binom.ppf(0.975, sizes, q).astype(int) + 1
        for M, lo, hi in zip(sizes.tolist(), lower.tolist(), upper.tolist()):
            assert _percentile_interval_ranks(M, q) == (max(lo, 1), min(hi, M)), M

    def test_fr_calibration_recovers_normal_quantile(self):
        replicates = run_replicates(two_arm("FR", 0.0), None, 18, 10_000, workers=WORKERS)
        critical = calibrate_critical_value(replicates, 0.05)
        stats = replicates.z.max(axis=1)
        assert critical.value == pytest.approx(1.645, abs=0.05)
        assert stats.mean() == pytest.approx(0.0, abs=0.05)
        assert stats.std(ddof=1) == pytest.approx(1.0, abs=0.05)

    def test_self_consistency_on_fresh_seeds(self):
        scenario = two_arm("CB", 0.0, T=40)
        critical = calibrate_critical_value(
            run_replicates(scenario, None, 19, 2000, workers=WORKERS), 0.05)
        fresh = run_replicates(scenario, None, 20, 2000, workers=WORKERS)
        rate = float(np.mean(fresh.z.max(axis=1) > critical.value))
        assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 2000)


class TestCriticalValueType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalValue(1.0, 1.5)
        with pytest.raises(ValueError):
            CriticalValue(float("inf"), 0.05)

    def test_standard_error(self):
        # a calibrated value's s.e. is its interval's width over 2 z_0.975;
        # at M = 10^4 that is close to the asymptotic s.e. of the normal 95th
        # percentile, sqrt(0.05 * 0.95 / M) / phi(z_0.95)
        replicates = run_replicates(two_arm("FR", 0.0, T=20), None, 24, 10_000,
                                    workers=WORKERS)
        critical = calibrate_critical_value(replicates, 0.05)
        ci = critical.ci95
        assert critical.se == (ci["upper"] - ci["lower"]) / (2 * ndtri(0.975))
        z95 = ndtri(0.95)
        asymptotic = math.sqrt(0.05 * 0.95 / 10_000) / (math.exp(-z95**2 / 2)
                                                        / math.sqrt(2 * math.pi))
        assert critical.se == pytest.approx(asymptotic, rel=0.25)
        assert fwer_critical_value(1, 0.05).se is None
        assert CriticalValue(1.7, 0.05).se is None
