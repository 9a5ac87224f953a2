"""Aggregation into operating characteristics, bias curves, histograms."""

import math

import numpy as np
import pytest
from scipy import stats

from bandit_trials.engine import TrialRecord, run_replicates, run_trial
from bandit_trials.inference import ZVector
from bandit_trials.operating import (
    aggregate,
    bias_trajectories,
    write_bias_csv,
    write_results_csv,
)

from .conftest import NULL4, WORKERS, four_arm, two_arm


def synthetic_record(scenario, control_share, z_value, outcome_level):
    T = scenario.T
    n0 = int(round(control_share * T))
    allocations = np.array([0] * n0 + [1] * (T - n0), dtype=np.int16)
    outcomes = np.full(T, outcome_level)
    return TrialRecord(
        allocations=allocations,
        outcomes=outcomes,
        arm_means=(outcome_level, outcome_level),
        arm_counts=(n0, T - n0),
        z=ZVector(np.array([z_value])),
        mean_trajectory=None,
        scenario=scenario,
    )


class TestAggregate:
    def test_two_synthetic_records(self):
        scenario = two_arm("FR", 0.0, "H0", T=10)
        records = [synthetic_record(scenario, 0.4, 0.0, 1.0),
                   synthetic_record(scenario, 0.6, 2.0, 3.0)]
        oc = aggregate(records, scenario, 1.645)
        assert oc.e_pstar == pytest.approx(0.5)
        assert oc.sd_pstar == pytest.approx(0.14142135, abs=1e-6)
        assert oc.e_outcome == pytest.approx(2.0)
        assert oc.global_rejection_rate == pytest.approx(0.5)
        assert oc.M == 2

    def test_permutation_invariant(self):
        scenario = two_arm("FR", 0.0, "H0", T=10)
        records = [synthetic_record(scenario, s, z, y)
                   for s, z, y in ((0.3, 1.0, 0.5), (0.5, -1.0, 0.2), (0.9, 2.5, 1.5))]
        fwd = aggregate(records, scenario, 1.0)
        rev = aggregate(records[::-1], scenario, 1.0)
        for field in ("rejection_rate", "global_rejection_rate", "e_pstar",
                      "sd_pstar", "e_outcome", "sd_outcome"):
            assert getattr(fwd, field) == pytest.approx(getattr(rev, field), rel=1e-12)

    def test_mixed_scenarios_rejected(self):
        a = two_arm("FR", 0.0, "H0", T=10)
        b = two_arm("FR", 0.0, "H0", T=12)
        records = [synthetic_record(a, 0.5, 0.0, 0.0), synthetic_record(b, 0.5, 0.0, 0.0)]
        with pytest.raises(ValueError, match="mixed"):
            aggregate(records, a, 1.645)

    def test_records_of_other_policy_settings_rejected(self, table09):
        # same rule, arms and size as the scenario, but simulated under
        # another control guard or discount: a different design
        pairs = [
            (four_arm("CUC", NULL4, "H0", T=10, control_guard_prob=0.9),
             four_arm("CUC", NULL4, "H0", T=10)),
            (two_arm("GI", 0.0, "H0", T=10, discount=0.9),
             two_arm("GI", 0.0, "H0", T=10, discount=0.995)),
        ]
        for simulated, other in pairs:
            records = run_replicates(simulated, table09, 31, 5)
            assert aggregate(records, simulated, 1.645).M == 5
            with pytest.raises(ValueError, match="mixed"):
                aggregate(records, other, 1.645)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate([], two_arm("FR", 0.0, "H0"), 1.645)

    def test_best_arm_is_control_under_null(self):
        scenario = two_arm("FR", 0.0, "H0", T=10)
        record = synthetic_record(scenario, 0.7, 0.0, 0.0)
        oc = aggregate([record], scenario, 1.645)
        assert oc.e_pstar == pytest.approx(0.7)

    def test_marginal_vs_global_rates_under_alternative(self):
        scenario = two_arm("FR", 0.545, "H1", T=10)
        records = [synthetic_record(scenario, 0.5, 1.0, 0.0),
                   synthetic_record(scenario, 0.5, 2.0, 0.0)]
        oc = aggregate(records, scenario, 1.645)
        assert oc.rejection_rate == pytest.approx(0.5)
        assert oc.upper_bound_outcome == 0.545

    def test_fr_proportion_near_uniform(self):
        scenario = two_arm("FR", 0.545, "H1", T=60)
        records = run_replicates(scenario, None, 23, 2000, workers=WORKERS)
        oc = aggregate(records, scenario, 1.645)
        assert abs(oc.e_pstar - 0.5) < 3 * oc.sd_pstar / math.sqrt(2000)

    def test_outcome_bounded_by_arm_means(self, table995):
        for kind in ("FR", "GI"):
            scenario = two_arm(kind, 0.545, "H1", T=40)
            records = run_replicates(scenario, table995, 24, 1500, workers=WORKERS)
            oc = aggregate(records, scenario, 1.645)
            margin = 3 * oc.sd_outcome / math.sqrt(1500)
            assert oc.e_outcome <= 0.545 + margin
            assert oc.e_outcome >= 0.0 - margin

    def test_cb_proportion_spread_near_bernoulli_limit(self):
        scenario = two_arm("CB", 0.0, "H0")
        records = run_replicates(scenario, None, 25, 4000, workers=WORKERS)
        oc = aggregate(records, scenario, 1.782)
        assert 0.40 <= oc.sd_pstar <= 0.50


class TestStandardErrors:
    def test_synthetic_records(self):
        # four records: control shares 0.4, 0.4, 0.6, 0.6; z 0, 3, 3, 3 against
        # C = 2; outcome levels 1, 2, 3, 4
        scenario = two_arm("FR", 0.0, "H0", T=10)
        records = [synthetic_record(scenario, share, z, level)
                   for share, z, level in ((0.4, 0.0, 1.0), (0.4, 3.0, 2.0),
                                           (0.6, 3.0, 3.0), (0.6, 3.0, 4.0))]
        oc = aggregate(records, scenario, 2.0)
        assert oc.rejection_rate == 0.75
        assert oc.rejection_rate_se == pytest.approx(math.sqrt(0.75 * 0.25 / 4), rel=1e-12)
        assert oc.global_rejection_rate_se == oc.rejection_rate_se
        # sample sds (ddof 1): p* = 0.4, 0.4, 0.6, 0.6 and outcomes 1..4
        assert oc.e_pstar_se == pytest.approx(math.sqrt(0.04 / 3) / 2, rel=1e-12)
        assert oc.e_outcome_se == pytest.approx(math.sqrt(5 / 3) / 2, rel=1e-12)

    def test_certain_rate_has_no_error(self):
        scenario = two_arm("FR", 0.0, "H0", T=10)
        records = [synthetic_record(scenario, 0.5, 3.0, 0.0) for _ in range(5)]
        oc = aggregate(records, scenario, 2.0)
        assert oc.rejection_rate == 1.0 and oc.rejection_rate_se == 0.0
        assert oc.e_pstar_se == 0.0 and oc.e_outcome_se == 0.0


class TestBiasTrajectories:
    def test_single_replicate_is_exact(self, table995):
        scenario = two_arm("GI", 0.545, "H1", T=25)
        record = run_trial(scenario, table995, seed=26, keep_trajectory=True)
        trajs = bias_trajectories([record], scenario)
        assert [t.arm for t in trajs] == [0, 1]
        for traj in trajs:
            assert traj.t_grid[0] == 3 and traj.t_grid[-1] == 25
            expected = record.mean_trajectory[traj.arm, 2:] - scenario.mu[traj.arm]
            assert np.allclose(traj.mean_bias, expected, equal_nan=True)
            assert np.all(traj.replicate_counts == 1)

    def test_fr_unbiased_everywhere(self):
        scenario = two_arm("FR", 0.0, "H0", T=30)
        records = run_replicates(scenario, None, 27, 800, workers=WORKERS,
                                 keep_trajectory=True)
        trajs = bias_trajectories(records, scenario)
        stacked = np.stack([r.mean_trajectory for r in records])
        for traj in trajs:
            sd = np.nanstd(stacked[:, traj.arm, 2:], axis=0)
            assert np.all(np.abs(traj.mean_bias) < 3 * sd / math.sqrt(800) + 1e-9)

    def test_requires_trajectories(self):
        scenario = two_arm("FR", 0.0, "H0", T=10)
        records = run_replicates(scenario, None, 28, 5)
        with pytest.raises(ValueError, match="keep_trajectory"):
            bias_trajectories(records, scenario)


class TestZHistogram:
    def test_fr_statistic_close_to_standard_normal(self, fr2_h0_records):
        scenario, records = fr2_h0_records
        values = np.array([r.z.z[0] for r in records])
        assert stats.kstest(values, "norm").statistic < 0.02


class TestCsvWriters:
    def test_results_csv_layout(self, tmp_path):
        rows = [{"policy": "FR", "hypothesis": "H0", "C_alpha": 1.6448536,
                 "rejection_rate": 0.05123456, "global_rejection_rate": 0.05123456,
                 "e_pstar": 0.5, "sd_pstar": 0.05, "e_outcome": -0.0001,
                 "sd_outcome": 0.09, "M": 10000, "seed": 7,
                 "rejection_rate_se": 0.0022046, "global_rejection_rate_se": 0.0022046,
                 "e_pstar_se": 0.0005, "e_outcome_se": 0.0009}]
        path = write_results_csv(rows, tmp_path / "results.csv")
        header, row = path.read_text().splitlines()
        assert header == ("policy,hypothesis,C_alpha,rejection_rate,global_rejection_rate,"
                          "e_pstar,sd_pstar,e_outcome,sd_outcome,M,seed,rejection_rate_se,"
                          "global_rejection_rate_se,e_pstar_se,e_outcome_se")
        fields = row.split(",")
        assert fields[3] == "0.051235"  # rates at 6 decimals
        assert float(fields[2]) == 1.6448536  # critical value at full precision
        assert fields[9:] == ["10000", "7", "0.002205", "0.002205", "0.000500", "0.000900"]

    def test_bias_csv_layout(self, table995, tmp_path):
        scenario = two_arm("GI", 0.0, "H0", T=12)
        records = [run_trial(scenario, table995, seed=s, keep_trajectory=True)
                   for s in (30, 31)]
        trajs = bias_trajectories(records, scenario)
        path = write_bias_csv(trajs, tmp_path / "bias.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "arm,t,mean_bias,count"
        assert len(lines) == 1 + 2 * 10  # two arms, t = 3..12
