"""Trial simulation: initialization, conservation, reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from bandit_trials.engine import TrialScenario, run_replicates, run_trial, write_trace_csv
from bandit_trials.policies import ArmState, PolicySpec, policy_scores

from .conftest import WORKERS, two_arm


def records_equal(a, b):
    return (np.array_equal(a.allocations, b.allocations)
            and np.array_equal(a.outcomes, b.outcomes)
            and np.array_equal(a.z.z, b.z.z)
            and a.arm_counts == b.arm_counts)


class TestScenarioValidation:
    def test_mu_length(self):
        with pytest.raises(ValueError, match="K\\+1"):
            TrialScenario(K=2, mu=(0.0, 0.0), sigma=1.0, T=10, policy=PolicySpec("FR"))

    def test_horizon_covers_initialization(self):
        with pytest.raises(ValueError, match="K\\+1"):
            TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=3, policy=PolicySpec("FR"))

    def test_tp_needs_multiple_arms(self):
        with pytest.raises(ValueError, match="multi-arm"):
            TrialScenario(K=1, mu=(0.0, 0.0), sigma=1.0, T=10, policy=PolicySpec("TP"))

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            TrialScenario(K=1, mu=(0.0, 0.0), sigma=0.0, T=10, policy=PolicySpec("FR"))


class TestTableContract:
    def test_index_policy_requires_table(self):
        scenario = two_arm("GI", 0.0, "H0", T=10)
        with pytest.raises(ValueError, match="requires a Gittins index table"):
            run_trial(scenario, None, seed=1)

    def test_short_table_rejected(self, table09):
        scenario = two_arm("GI", 0.0, "H0", T=table09.n_max + 1, discount=0.9)
        with pytest.raises(ValueError, match="n_max >= T"):
            run_trial(scenario, table09, seed=1)

    def test_discount_mismatch_rejected(self, table09):
        scenario = two_arm("GI", 0.0, "H0", T=20, discount=0.995)
        with pytest.raises(ValueError, match="discount"):
            run_trial(scenario, table09, seed=1)


class TestSingleTrial:
    @pytest.mark.parametrize("kind", ["FR", "TS", "RBI", "UCB", "KLU", "CB", "GI"])
    def test_initialization_exhausts_minimal_trial(self, table995, kind):
        scenario = two_arm(kind, 0.545, "H1", T=2)
        record = run_trial(scenario, table995, seed=3)
        assert record.arm_counts == (1, 1)

    def test_minimal_four_arm(self, table995):
        scenario = TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=4,
                                 policy=PolicySpec("CG"))
        record = run_trial(scenario, table995, seed=4)
        assert record.arm_counts == (1, 1, 1, 1)

    @pytest.mark.parametrize("kind", ["FR", "TSB", "RGI", "UCB", "CB", "GI"])
    def test_patient_conservation(self, table995, kind):
        scenario = two_arm(kind, 0.545, "H1", T=57)
        record = run_trial(scenario, table995, seed=5)
        assert sum(record.arm_counts) == 57
        assert record.allocations.shape == (57,)
        assert all(n >= 1 for n in record.arm_counts)

    def test_fr_allocations_uniform(self):
        scenario = two_arm("FR", 0.0, "H0", T=10_000)
        record = run_trial(scenario, None, seed=6)
        counts = np.bincount(record.allocations, minlength=2)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_gi_locks_onto_clearly_best_arm(self, table995):
        # near-noiseless outcomes: after initialization the superior arm's
        # index dominates at every step
        scenario = TrialScenario(K=1, mu=(0.0, 0.545), sigma=0.001, T=40,
                                 policy=PolicySpec("GI"))
        record = run_trial(scenario, table995, seed=7)
        assert record.arm_counts == (1, 39)

    def test_final_means_match_trace(self, table995):
        scenario = two_arm("RGI", 0.545, "H1", T=80)
        record = run_trial(scenario, table995, seed=8)
        for k in range(2):
            outcomes = record.outcomes[record.allocations == k]
            assert record.arm_means[k] == pytest.approx(float(outcomes.mean()), rel=1e-12)

    def test_ucb_init_is_round_robin(self):
        scenario = TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=8,
                                 policy=PolicySpec("UCB"))
        record = run_trial(scenario, None, seed=9)
        assert record.allocations[:4].tolist() == [0, 1, 2, 3]

    def test_random_init_order_varies(self):
        scenario = TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=4,
                                 policy=PolicySpec("FR"))
        orders = {tuple(run_trial(scenario, None, seed=s).allocations.tolist())
                  for s in range(12)}
        assert len(orders) > 1
        assert all(sorted(o) == [0, 1, 2, 3] for o in orders)

    def test_trajectory_recording(self, table995):
        scenario = two_arm("GI", 0.545, "H1", T=30)
        record = run_trial(scenario, table995, seed=10, keep_trajectory=True)
        traj = record.mean_trajectory
        assert traj.shape == (2, 30)
        assert np.isnan(traj[:, 0]).sum() == 1  # only the first-treated arm has a mean
        assert not np.isnan(traj[:, 1]).any()
        k_last = record.allocations[-1]
        assert traj[k_last, -1] == pytest.approx(record.arm_means[k_last], rel=1e-12)

    def test_trajectory_not_kept_by_default(self):
        record = run_trial(two_arm("FR", 0.0, "H0", T=6), None, seed=11)
        assert record.mean_trajectory is None

    def test_z_vector_shape(self, table995):
        scenario = TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=20,
                                 policy=PolicySpec("CUC"))
        record = run_trial(scenario, table995, seed=12)
        assert record.z.z.shape == (3,)
        assert record.z.zmax == record.z.z.max()


class TestIndexConvention:
    @pytest.mark.parametrize("kind", ["UCB", "KLU"])
    def test_allocation_is_argmax_at_patient_index(self, kind):
        # pins the engine's allocations to the rule's scores at the 1-based
        # index t of the patient being allocated
        spec = PolicySpec(kind)
        scenario = TrialScenario(K=3, mu=(0.0,) * 4, sigma=1.0, T=302, policy=spec)
        record = run_trial(scenario, None, seed=15)
        arms = [ArmState() for _ in range(4)]
        for t, (k, y) in enumerate(zip(record.allocations, record.outcomes), start=1):
            if t > 4:
                scores = policy_scores(spec, arms, 1.0, t, 302)
                assert k == int(np.argmax(scores)), f"patient {t}"
            arms[k].add(y)


class TestBatchedView:
    def test_full_horizon_batch_behaves_like_fixed_randomisation(self):
        # batch == T: the rule never refreshes, so allocations stay uniform
        # even with a huge true effect
        scenario = two_arm("TSB", 5.0, "H1", T=400, batch=400)
        record = run_trial(scenario, None, seed=13)
        share = record.arm_counts[1] / 400
        assert abs(share - 0.5) < 3 * math.sqrt(0.25 / 400) + 0.01

    def test_unit_batch_tracks_effect(self):
        scenario = two_arm("TSB", 5.0, "H1", T=400, batch=1)
        record = run_trial(scenario, None, seed=13)
        assert record.arm_counts[1] / 400 > 0.6


class TestReplicates:
    def test_single_replicate_matches_run_trial(self, table995):
        scenario = two_arm("GI", 0.545, "H1", T=30)
        via_replicates = run_replicates(scenario, table995, 99, 1)[0]
        direct = run_trial(scenario, table995, np.random.SeedSequence((99, 0)))
        assert records_equal(via_replicates, direct)

    def test_rerun_is_bitwise_identical(self, table995):
        scenario = two_arm("RGI", 0.545, "H1", T=40)
        a = run_replicates(scenario, table995, 41, 12)
        b = run_replicates(scenario, table995, 41, 12)
        assert all(records_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.skipif(WORKERS < 2, reason="needs multiple workers")
    def test_worker_count_invariance(self, table995):
        scenario = two_arm("GI", 0.545, "H1", T=40)
        serial = run_replicates(scenario, table995, 42, 30, workers=1)
        parallel = run_replicates(scenario, table995, 42, 30, workers=WORKERS)
        assert all(records_equal(x, y) for x, y in zip(serial, parallel))

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            run_replicates(two_arm("FR", 0.0, "H0"), None, 1, 0)

    def test_fr_null_means_unbiased(self):
        scenario = two_arm("FR", 0.0, "H0", T=40)
        records = run_replicates(scenario, None, 43, 3000)
        means = np.array([r.arm_means for r in records])
        n_bar = 20
        tol = 3 / math.sqrt(n_bar * 3000)
        assert abs(means[:, 0].mean()) < tol
        assert abs(means[:, 1].mean()) < tol


class TestTraceDump:
    def test_trace_csv_round_trip(self, tmp_path):
        record = run_trial(two_arm("FR", 0.0, "H0", T=12), None, seed=14)
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "arms.csv"
        write_trace_csv(record, trace, summary)
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,arm,outcome"
        assert len(lines) == 13
        arm_lines = summary.read_text().splitlines()
        assert arm_lines[0] == "arm,n,mean"
        totals = [int(row.split(",")[1]) for row in arm_lines[1:]]
        assert sum(totals) == 12
