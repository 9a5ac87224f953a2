"""Aggregation into operating characteristics, bias curves, histograms."""

import math

import numpy as np
import pytest
from scipy import stats

from bandit_trials.engine import Replicates, run_replicates
from bandit_trials.operating import (
    OperatingCharacteristics,
    aggregate,
    bias_trajectories,
    write_bias_csv,
    write_results_csv,
)

from .conftest import WORKERS, running_means, two_arm


def synthetic(scenario, trials):
    """Two-arm replicates from (control share, z, outcome level) per trial."""
    T = scenario.T
    n0 = [int(round(share * T)) for share, _, _ in trials]
    return Replicates(
        scenario=scenario,
        z=np.array([[z] for _, z, _ in trials]),
        counts=np.array([[n, T - n] for n in n0]),
        mean_outcome=np.array([level for _, _, level in trials]),
        bias_sums=None,
        allocations=np.empty((0, T), dtype=np.int16),
        outcomes=np.empty((0, T)),
    )


class TestAggregate:
    def test_two_synthetic_records(self):
        scenario = two_arm("FR", 0.0, T=10)
        oc = aggregate(synthetic(scenario, [(0.4, 0.0, 1.0), (0.6, 2.0, 3.0)]), 1.645)
        assert oc.e_pstar == pytest.approx(0.5)
        assert oc.sd_pstar == pytest.approx(0.14142135, abs=1e-6)
        assert oc.e_outcome == pytest.approx(2.0)
        assert oc.global_rejection_rate == pytest.approx(0.5)
        assert oc.M == 2

    def test_permutation_invariant(self):
        scenario = two_arm("FR", 0.0, T=10)
        trials = [(0.3, 1.0, 0.5), (0.5, -1.0, 0.2), (0.9, 2.5, 1.5)]
        fwd = aggregate(synthetic(scenario, trials), 1.0)
        rev = aggregate(synthetic(scenario, trials[::-1]), 1.0)
        for field in ("rejection_rate", "global_rejection_rate", "e_pstar",
                      "sd_pstar", "e_outcome", "sd_outcome"):
            assert getattr(fwd, field) == pytest.approx(getattr(rev, field), rel=1e-12)

    def test_best_arm_is_control_under_null(self):
        scenario = two_arm("FR", 0.0, T=10)
        oc = aggregate(synthetic(scenario, [(0.7, 0.0, 0.0)]), 1.645)
        assert oc.e_pstar == pytest.approx(0.7)

    def test_marginal_vs_global_rates_under_alternative(self):
        scenario = two_arm("FR", 0.545, T=10)
        oc = aggregate(synthetic(scenario, [(0.5, 1.0, 0.0), (0.5, 2.0, 0.0)]), 1.645)
        assert oc.rejection_rate == pytest.approx(0.5)

    def test_fr_proportion_near_uniform(self):
        scenario = two_arm("FR", 0.545, T=60)
        oc = aggregate(run_replicates(scenario, None, 23, 2000, workers=WORKERS), 1.645)
        assert abs(oc.e_pstar - 0.5) < 3 * oc.sd_pstar / math.sqrt(2000)

    def test_outcome_bounded_by_arm_means(self, table995):
        for kind in ("FR", "GI"):
            scenario = two_arm(kind, 0.545, T=40)
            oc = aggregate(run_replicates(scenario, table995, 24, 1500, workers=WORKERS), 1.645)
            margin = 3 * oc.sd_outcome / math.sqrt(1500)
            assert oc.e_outcome <= 0.545 + margin
            assert oc.e_outcome >= 0.0 - margin

    def test_cb_proportion_spread_near_bernoulli_limit(self):
        scenario = two_arm("CB", 0.0)
        oc = aggregate(run_replicates(scenario, None, 25, 4000, workers=WORKERS), 1.782)
        assert 0.40 <= oc.sd_pstar <= 0.50


class TestStandardErrors:
    def test_synthetic_records(self):
        # four records: control shares 0.4, 0.4, 0.6, 0.6; z 0, 3, 3, 3 against
        # C = 2; outcome levels 1, 2, 3, 4
        scenario = two_arm("FR", 0.0, T=10)
        oc = aggregate(synthetic(scenario, [(0.4, 0.0, 1.0), (0.4, 3.0, 2.0),
                                            (0.6, 3.0, 3.0), (0.6, 3.0, 4.0)]), 2.0)
        assert oc.rejection_rate == 0.75
        assert oc.rejection_rate_se == pytest.approx(math.sqrt(0.75 * 0.25 / 4), rel=1e-12)
        assert oc.global_rejection_rate_se == oc.rejection_rate_se
        # sample sds (ddof 1): p* = 0.4, 0.4, 0.6, 0.6 and outcomes 1..4
        assert oc.e_pstar_se == pytest.approx(math.sqrt(0.04 / 3) / 2, rel=1e-12)
        assert oc.e_outcome_se == pytest.approx(math.sqrt(5 / 3) / 2, rel=1e-12)

    def test_certain_rate_has_no_error(self):
        scenario = two_arm("FR", 0.0, T=10)
        oc = aggregate(synthetic(scenario, [(0.5, 3.0, 0.0)] * 5), 2.0)
        assert oc.rejection_rate == 1.0 and oc.rejection_rate_se == 0.0
        assert oc.e_pstar_se == 0.0 and oc.e_outcome_se == 0.0


class TestBiasTrajectories:
    def test_single_replicate_is_exact(self, table995, tmp_path):
        scenario = two_arm("GI", 0.545, T=25)
        replicates = run_replicates(scenario, table995, 26, 1, keep_trajectory=True, traces=1)
        bias = bias_trajectories(replicates)
        assert bias.shape == (2, 23)  # t = 3..25
        for arm in range(2):
            expected = running_means(replicates)[0, arm, 2:] - scenario.mu[arm]
            assert np.array_equal(bias[arm], expected)
        rows = [line.split(",") for line in
                write_bias_csv(replicates, tmp_path / "bias.csv").read_text().splitlines()[1:]]
        assert [int(t) for _, t, _, _ in rows] == list(range(3, 26)) * 2
        assert all(count == "1" for _, _, _, count in rows)

    def test_fr_unbiased_everywhere(self):
        scenario = two_arm("FR", 0.0, T=30)
        replicates = run_replicates(scenario, None, 27, 800, workers=WORKERS,
                                    keep_trajectory=True, traces=800)
        stacked = running_means(replicates)
        for arm, mean_bias in enumerate(bias_trajectories(replicates)):
            sd = np.nanstd(stacked[:, arm, 2:], axis=0)
            assert np.all(np.abs(mean_bias) < 3 * sd / math.sqrt(800) + 1e-9)

    def test_requires_trajectories(self):
        replicates = run_replicates(two_arm("FR", 0.0, T=10), None, 28, 5)
        with pytest.raises(ValueError, match="keep_trajectory"):
            bias_trajectories(replicates)


class TestZHistogram:
    def test_fr_statistic_close_to_standard_normal(self, fr2_h0):
        assert stats.kstest(fr2_h0.z[:, 0], "norm").statistic < 0.02


class TestCsvWriters:
    def test_results_csv_layout(self, tmp_path):
        oc = OperatingCharacteristics(
            rejection_rate=0.05123456, global_rejection_rate=0.05123456, e_pstar=0.5,
            sd_pstar=0.05, e_outcome=-0.0001, sd_outcome=0.09, M=10000)
        path = write_results_csv([("FR", "H0", 1.6448536, 7, oc)], tmp_path / "results.csv")
        header, row = path.read_text().splitlines()
        assert header == ("policy,hypothesis,C_alpha,rejection_rate,global_rejection_rate,"
                          "e_pstar,sd_pstar,e_outcome,sd_outcome,M,seed,rejection_rate_se,"
                          "global_rejection_rate_se,e_pstar_se,e_outcome_se")
        fields = row.split(",")
        assert fields[3] == "0.051235"  # rates at 6 decimals
        assert float(fields[2]) == 1.6448536  # critical value at full precision
        assert fields[9:] == ["10000", "7", "0.002205", "0.002205", "0.000500", "0.000900"]

    def test_bias_csv_layout(self, table995, tmp_path):
        scenario = two_arm("GI", 0.0, T=12)
        replicates = run_replicates(scenario, table995, 30, 2, keep_trajectory=True)
        path = write_bias_csv(replicates, tmp_path / "bias.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "arm,t,mean_bias,count"
        assert len(lines) == 1 + 2 * 10  # two arms, t = 3..12
