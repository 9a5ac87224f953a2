"""Trial simulation: initialization, conservation, reproducibility."""

import dataclasses
import math
import multiprocessing
import traceback

import numpy as np
import pytest
from scipy import stats

from bandit_trials import engine, policies
from bandit_trials.engine import (BLOCK, STEP_GROUPS, TrialScenario, _run_block, _SeedWords,
                                  _stream_seeds, _uint32_words, run_replicates, run_trial,
                                  write_trace_csv)
from bandit_trials.operating import bias_trajectories
from bandit_trials.policies import POLICY_KINDS, Allocator, PolicyDraws, PolicySpec

from .conftest import LFC, WORKERS, four_arm, running_means, two_arm


def row_identical(replicates, r, single):
    """Traced row r of ``replicates`` equals the one-row ``single``, bit for bit."""
    return all(np.array_equal(getattr(replicates, name)[r], getattr(single, name)[0])
               for name in ("allocations", "outcomes", "z", "counts", "mean_outcome"))


def replicates_identical(a, b):
    """Every array of two ``Replicates`` equal, bit for bit, and the same scenario."""
    same_bias = (a.bias_sums is None and b.bias_sums is None) or (
        a.bias_sums is not None and b.bias_sums is not None
        and np.array_equal(a.bias_sums, b.bias_sums))
    return (a.scenario == b.scenario and same_bias
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("z", "counts", "mean_outcome", "allocations", "outcomes")))


class TestScenarioValidation:
    def test_horizon_covers_initialization(self):
        with pytest.raises(ValueError, match="K\\+1"):
            TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=3, policy=PolicySpec("FR"))

    def test_tp_needs_multiple_arms(self):
        with pytest.raises(ValueError, match="multi-arm"):
            TrialScenario(mu=(0.0, 0.0), sigma=1.0, T=10, policy=PolicySpec("TP"))

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            TrialScenario(mu=(0.0, 0.0), sigma=0.0, T=10, policy=PolicySpec("FR"))

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            TrialScenario(mu=(0.0, 0.0), sigma=sigma, T=10, policy=PolicySpec("FR"))

    @pytest.mark.parametrize("mu", [(0.0, math.nan), (math.inf, 0.0), (0.0, 0.0, -math.inf)])
    def test_means_finite(self, mu):
        # a NaN mean would otherwise pass for a global null
        with pytest.raises(ValueError, match="arm means must be finite"):
            TrialScenario(mu=mu, sigma=1.0, T=10, policy=PolicySpec("FR"))

    # finite inputs that overflowed or underflowed the arithmetic before
    # scenarios were bounded (an arm's sum at its second outcome, four-arm
    # TS's grid at the first decision, and with a subnormal sigma every
    # contrast), and the floats just outside the bounds, which the boundary
    # runs of TestAdmittedDomain meet: each is rejected when it is built
    @pytest.mark.parametrize("kind, mu, sigma", [
        ("FR", (0.0, 1e308), 1.0), ("GI", (0.0, 1e308), 1.0), ("CB", (0.0, 1e308), 1.0),
        ("RBI", (0.0, 1e308), 1.0), ("TP", (0.0, 0.0, 1e308), 1.0),
        ("TS", (0.0, 0.0, 0.0, 1e308), 1.0), ("FR", (0.0, 0.5), 1e-320),
        ("FR", (0.0, math.nextafter(1e100, math.inf)), 1.0),
        ("FR", (-math.nextafter(1e100, math.inf), 0.0), 1.0),
        ("FR", (0.0, 0.0), math.nextafter(1e-100, 0.0)),
        ("FR", (0.0, 0.0), math.nextafter(1e100, math.inf)),
    ], ids=["FR", "GI", "CB", "RBI", "TP", "TS", "FR-sigma", "mean-above", "mean-below",
            "sigma-below", "sigma-above"])
    def test_overflowing_run_is_an_error(self, kind, mu, sigma):
        bounds = r"the arithmetic; the means must lie within \+-1e100 and sigma within " \
                 r"\[1e-100, 1e100\]"
        with pytest.raises(ValueError, match=bounds):
            TrialScenario(mu=mu, sigma=sigma, T=20, policy=PolicySpec(kind))

    # means whose running means, summed over a 256-row group or over the two
    # groups _merge adds, overflowed the bias sums
    @pytest.mark.parametrize("mean", [1e306, 5e305], ids=["block", "merge"])
    def test_overflowing_bias_sums_are_an_error(self, mean):
        with pytest.raises(ValueError, match="overflow or underflow the arithmetic"):
            TrialScenario(mu=(0.0, mean), sigma=1.0, T=116, policy=PolicySpec("FR"))

    @pytest.mark.parametrize("mu", [(0.0,), ()])
    def test_needs_an_experimental_arm(self, mu):
        with pytest.raises(ValueError, match="at least one experimental arm"):
            TrialScenario(mu=mu, sigma=1.0, T=10, policy=PolicySpec("FR"))


class TestAdmittedDomain:
    # the edges of the scenario bounds, K = 1 and K = 3 (TP and TPB at K = 3 only)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, K", [(kind, K) for K in (1, 3) for kind in POLICY_KINDS
                                         if K > 1 or PolicySpec(kind).inner_kind != "TP"])
    def test_run_stays_finite(self, table995, kind, K):
        for low, high in ((0.0, 0.0), (-1e100, 1e100), (1e100, 1e100)):
            mu = (low, high) if K == 1 else (low, low, high, high)
            for sigma in (1e-100, 1.0, 1e100):
                scenario = TrialScenario(mu=mu, sigma=sigma, T=30, policy=PolicySpec(kind))
                try:
                    replicates = run_replicates(scenario, table995, 3, 2 * BLOCK + 1,
                                                keep_trajectory=True, traces=3)
                except ValueError as exc:
                    # TS's grid at K >= 2 depends on the spread of the means over
                    # sigma: its size can overflow, or it can collapse onto them
                    assert scenario.policy.inner_kind == "TS" and K > 1, (mu, sigma)
                    assert traceback.extract_tb(exc.__traceback__)[-1].name \
                        == "ts_probabilities"
                    continue
                assert np.isfinite(replicates.z).all(), (mu, sigma)
                assert np.isfinite(replicates.mean_outcome).all(), (mu, sigma)
                assert np.isfinite(bias_trajectories(replicates)).all(), (mu, sigma)


class TestTableContract:
    def test_index_policy_requires_table(self):
        scenario = two_arm("GI", 0.0, T=10)
        with pytest.raises(ValueError, match="requires a Gittins index table"):
            run_trial(scenario, None, seed=(1, 0))

    def test_short_table_rejected(self, table09):
        scenario = two_arm("GI", 0.0, T=table09.n_max + 1)
        with pytest.raises(ValueError, match="n_max >= T"):
            run_trial(scenario, table09, seed=(1, 0))


class TestSingleTrial:
    @pytest.mark.parametrize("kind", ["FR", "TS", "RBI", "UCB", "KLU", "CB", "GI"])
    def test_initialization_exhausts_minimal_trial(self, table995, kind):
        scenario = two_arm(kind, 0.545, T=2)
        record = run_trial(scenario, table995, seed=(3, 0))
        assert record.counts.tolist() == [[1, 1]]

    def test_minimal_four_arm(self, table995):
        scenario = TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=4,
                                 policy=PolicySpec("CG"))
        record = run_trial(scenario, table995, seed=(4, 0))
        assert record.counts.tolist() == [[1, 1, 1, 1]]

    @pytest.mark.parametrize("kind", ["FR", "TSB", "RGI", "UCB", "CB", "GI"])
    def test_patient_conservation(self, table995, kind):
        scenario = two_arm(kind, 0.545, T=57)
        record = run_trial(scenario, table995, seed=(5, 0))
        assert record.counts.sum() == 57
        assert record.allocations.shape == (1, 57)
        assert np.all(record.counts >= 1)

    def test_fr_allocations_uniform(self):
        scenario = two_arm("FR", 0.0, T=10_000)
        record = run_trial(scenario, None, seed=(6, 0))
        counts = np.bincount(record.allocations[0], minlength=2)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_gi_locks_onto_clearly_best_arm(self, table995):
        # near-noiseless outcomes: after initialization the superior arm's
        # index dominates at every step
        scenario = TrialScenario(mu=(0.0, 0.545), sigma=0.001, T=40,
                                 policy=PolicySpec("GI"))
        record = run_trial(scenario, table995, seed=(7, 0))
        assert record.counts.tolist() == [[1, 39]]

    def test_final_means_match_trace(self, table995):
        scenario = two_arm("RGI", 0.545, T=80)
        record = run_trial(scenario, table995, seed=(8, 0))
        final_means = running_means(record)[0, :, -1]
        for k in range(2):
            outcomes = record.outcomes[0][record.allocations[0] == k]
            assert final_means[k] == pytest.approx(float(outcomes.mean()), rel=1e-12)

    def test_ucb_init_is_round_robin(self):
        scenario = TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=8,
                                 policy=PolicySpec("UCB"))
        record = run_trial(scenario, None, seed=(9, 0))
        assert record.allocations[0, :4].tolist() == [0, 1, 2, 3]

    def test_random_init_order_varies(self):
        scenario = TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=4,
                                 policy=PolicySpec("FR"))
        orders = {tuple(run_trial(scenario, None, seed=(s, 0)).allocations[0].tolist())
                  for s in range(12)}
        assert len(orders) > 1
        assert all(sorted(o) == [0, 1, 2, 3] for o in orders)

    def test_trajectory_recording(self, table995):
        # one replicate's bias sums are its running means from patient K+2 on
        scenario = two_arm("GI", 0.545, T=30)
        replicates = run_replicates(scenario, table995, 10, 1, keep_trajectory=True, traces=1)
        assert replicates.bias_sums.shape == (2, 28)
        means = running_means(replicates)[0]
        assert np.isnan(means[:, 0]).sum() == 1  # only the first-treated arm has a mean
        assert np.array_equal(replicates.bias_sums, means[:, 2:])
        # the trace writer's bincount mean is the engine's running mean
        allocations = replicates.allocations[0]
        sums = np.bincount(allocations, weights=replicates.outcomes[0], minlength=2)
        k_last = allocations[-1]
        assert replicates.bias_sums[k_last, -1] == sums[k_last] / replicates.counts[0, k_last]

    def test_trajectory_not_kept_by_default(self):
        replicates = run_replicates(two_arm("FR", 0.0, T=6), None, 11, 3)
        assert replicates.bias_sums is None
        assert replicates.allocations.shape == replicates.outcomes.shape == (0, 6)

    def test_z_vector_shape(self, table995):
        scenario = TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=20,
                                 policy=PolicySpec("CUC"))
        record = run_trial(scenario, table995, seed=(12, 0))
        assert record.z.shape == (1, 3)


class TestIndexConvention:
    @pytest.mark.parametrize("kind", ["UCB", "KLU"])
    def test_allocation_is_argmax_at_patient_index(self, kind):
        # pins the engine's allocations to the rule's scores at the 1-based
        # index t of the patient being allocated
        spec = PolicySpec(kind)
        scenario = TrialScenario(mu=(0.0,) * 4, sigma=1.0, T=302, policy=spec)
        record = run_trial(scenario, None, seed=(15, 0))
        draws = PolicyDraws(init=np.arange(4)[None], uniforms=np.zeros((1, 302 - 4)))
        rule = Allocator(spec, 1.0, 302, None, draws)
        sums, counts = np.zeros(4), np.zeros(4, dtype=int)
        for t, (k, y) in enumerate(zip(record.allocations[0], record.outcomes[0]), start=1):
            if t > 4:
                scores = rule.values(sums[None], counts[None], t)[0]
                assert k == int(np.argmax(scores)), f"patient {t}"
            sums[k] += y
            counts[k] += 1


class TestBatchedView:
    def test_full_horizon_batch_behaves_like_fixed_randomisation(self, monkeypatch):
        # batch == T: the rule never refreshes, so allocations stay uniform
        # even with a huge true effect
        monkeypatch.setattr(policies, "BATCH", 400)
        scenario = two_arm("TSB", 5.0, T=400)
        record = run_trial(scenario, None, seed=(13, 0))
        share = record.counts[0, 1] / 400
        assert abs(share - 0.5) < 3 * math.sqrt(0.25 / 400) + 0.01

    def test_unit_batch_tracks_effect(self, monkeypatch):
        monkeypatch.setattr(policies, "BATCH", 1)
        scenario = two_arm("TSB", 5.0, T=400)
        record = run_trial(scenario, None, seed=(13, 0))
        assert record.counts[0, 1] / 400 > 0.6


class TestReplicates:
    def test_single_replicate_matches_run_trial(self, table995):
        scenario = two_arm("GI", 0.545, T=30)
        via_replicates = run_replicates(scenario, table995, 99, 1, traces=1)
        direct = run_trial(scenario, table995, (99, 0))
        assert direct.M == 1
        assert replicates_identical(via_replicates, direct)

    @pytest.mark.parametrize("seed", [3, (3,), (3, 0, 1)])
    def test_trial_seed_is_a_pair(self, seed):
        with pytest.raises(TypeError, match=r"\(master_seed, r\) pair"):
            run_trial(two_arm("FR", 0.0, T=6), None, seed)

    @pytest.mark.parametrize("seed", [(-1, 0), (3, -1)])
    def test_trial_seed_non_negative(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            run_trial(two_arm("FR", 0.0, T=6), None, seed)

    def test_rerun_is_bitwise_identical(self, table995):
        scenario = two_arm("RGI", 0.545, T=40)
        a = run_replicates(scenario, table995, 41, 12, keep_trajectory=True, traces=12)
        b = run_replicates(scenario, table995, 41, 12, keep_trajectory=True, traces=12)
        assert replicates_identical(a, b)

    @pytest.mark.skipif(WORKERS < 2, reason="needs multiple workers")
    def test_worker_count_invariance(self, table995):
        # more than one group of BLOCK, so workers=2 runs two pool tasks
        M = BLOCK + 30
        scenario = two_arm("GI", 0.545, T=40)
        serial = run_replicates(scenario, table995, 42, M, workers=1, traces=M)
        parallel = run_replicates(scenario, table995, 42, M, workers=WORKERS, traces=M)
        assert replicates_identical(serial, parallel)

    def test_own_pool_shut_down_before_return(self):
        # more than one block and no shared_pool: the call runs its own pool
        run_replicates(two_arm("FR", 0.0, T=10), None, 44, BLOCK + 1, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers, M, pool", [(3, BLOCK + 1, 2), (2, 3 * BLOCK, 2),
                                                  (3, BLOCK, None), (2, 2100, 2), (3, 2100, 3)])
    def test_one_task_per_block_and_no_idle_workers(self, monkeypatch, workers, M, pool):
        # a stepping block holds ceil(groups / workers) groups of BLOCK, at most 4
        expected_tasks = {
            (3, BLOCK + 1): [(0, BLOCK), (BLOCK, BLOCK + 1)],
            (2, 3 * BLOCK): [(0, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK)],
            (3, BLOCK): [],
            (2, 2100): [(0, 4 * BLOCK), (4 * BLOCK, 8 * BLOCK), (8 * BLOCK, 2100)],
            (3, 2100): [(0, 3 * BLOCK), (3 * BLOCK, 6 * BLOCK), (6 * BLOCK, 2100)],
        }
        created, tasks = [], []

        class RecordingPool:
            """In-process stand-in that records its size and its tasks."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def map(self, fn, *args):
                tasks.extend(zip(*args))
                return map(fn, *args)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        scenario = two_arm("FR", 0.0, T=6)
        pooled = run_replicates(scenario, None, 45, M, workers=workers)
        assert created == ([] if pool is None else [pool])
        assert tasks == expected_tasks[workers, M]
        assert replicates_identical(pooled, run_replicates(scenario, None, 45, M))

    def test_trial_index_below_two_to_the_64(self):
        scenario = two_arm("FR", 0.0, T=6)
        with pytest.raises(ValueError, match=r"must be below 2\*\*64"):
            run_trial(scenario, None, (3, 2**64))
        assert run_trial(scenario, None, (3, 2**64 - 1)).M == 1

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            run_replicates(two_arm("FR", 0.0), None, 1, 0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_validated(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_replicates(two_arm("FR", 0.0), None, 1, 3, workers=workers)

    def test_trace_count_validated(self):
        with pytest.raises(ValueError, match="traces"):
            run_replicates(two_arm("FR", 0.0), None, 1, 3, traces=-1)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_replicates(two_arm("FR", 0.0), None, -1, 3)

    @pytest.mark.parametrize("seed", [1.5, "7"])
    def test_non_integer_master_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="must be an integer"):
            run_replicates(two_arm("FR", 0.0), None, seed, 3)

    def test_fr_null_means_unbiased(self):
        scenario = two_arm("FR", 0.0, T=40)
        replicates = run_replicates(scenario, None, 43, 3000, traces=3000)
        means = running_means(replicates)[:, :, -1]
        n_bar = 20
        tol = 3 / math.sqrt(n_bar * 3000)
        assert abs(means[:, 0].mean()) < tol
        assert abs(means[:, 1].mean()) < tol


# Allocations (one digit per patient) and z of replicates 0-2 at master seed
# PIN_SEED, for every rule: a change to any rule's draw order or arithmetic
# moves them.
PIN_SEED = 2026
PINNED = {
    "FR": (
        ("0101111110010111101111001000110100001111", (1.470786361326647,)),
        ("1000001010101101011000111110111110101011", (2.8609277558659314,)),
        ("0111100000001011100111000010100110110001", (2.8213569619069903,)),
    ),
    "TS": (
        ("0101111110011111101111001000110111011111", (0.7661506571239275,)),
        ("1000001010101101011001111111111111111011", (3.1507688775653038,)),
        ("0111101001001011101111101110111111111111", (2.5485836790517373,)),
    ),
    "TSB": (
        ("0101111110010111101111001000110100001111", (1.470786361326647,)),
        ("1000001010101101011001111110111111111011", (3.0371575123537795,)),
        ("0111100000001011100111100110111110111011", (2.1737685361795487,)),
    ),
    "RBI": (
        ("0110011111101111111111111111111111111111", (1.8785761709313,)),
        ("1011111011101111111111111111111111111111", (2.670989947009706,)),
        ("0111110101011111111111111111111111111111", (1.5880042445799798,)),
    ),
    "RGI": (
        ("0110011111101111111011111111111111111111", (1.96168564461279,)),
        ("1011011011101111111111101111111111111111", (2.0851128930823752,)),
        ("0111101101011111111111111111111111111111", (1.9263919796232303,)),
    ),
    "UCB": (
        ("0110111111111101111111111111100111110111", (1.7707450533056424,)),
        ("0110011101111111111111111111111111111111", (1.8917747057693628,)),
        ("0111011111111111111111000000101111111110", (1.0269655412244487,)),
    ),
    "KLU": (
        ("0110111111110111011111111110011111111110", (2.421760887345056,)),
        ("0110011101111111111101111110100111111111", (2.152673509829015,)),
        ("0111011111101101111111000011101111111101", (1.668979776564949,)),
    ),
    "CB": (
        ("0110111111111111111111111111111111111111", (1.1679125532729735,)),
        ("1010000000000000000000000000000000000000", (-0.8540558283952594,)),
        ("0111111111101111111111111111111111111111", (0.21800729784415,)),
    ),
    "GI": (
        ("0110111111111111111111111111111111111111", (1.1679125532729735,)),
        ("1010000011111111111111111111111111111111", (1.9542703628422813,)),
        ("0111101111100011111111111111110111111111", (1.1210212597285678,)),
    ),
    "CG": (
        ("0321333000030003300033333030333333333330", (-1.2713856366207237, -0.9872954779628998, 0.7297164277483027)),
        ("1230002201001000111100100000000000000000", (-0.8778423660100265, -1.058729724604526, -1.1064751808191262)),
        ("0321320022301100202221220000222002222010", (-0.49001079752394333, 0.8135403818291457, -0.6914157228193286)),
    ),
    "CUC": (
        ("0123010101101330210301111301011221113113", (1.037340202184041, -0.5917353580460359, -0.3181700164209044)),
        ("0123030031330310001313311110222133303030", (0.3722115972776635, -0.7687600553981289, 0.6778862393528655)),
        ("0123012302312021101012111100001220033120", (1.9558383260066023, 1.290599237724094, 0.8236812114812115)),
    ),
    "TP": (
        ("0321312313001131310231300300023021101233", (0.9130079494237575, 0.3303209731784121, 1.8705355900438596)),
        ("1230100211021130303300033333033133030103", (-0.1614404461646889, -1.4689039253804645, 1.4206674027743227)),
        ("0321220100111202330233310013021133033001", (1.311731419681084, 0.37984949392039785, 2.0169894327464357)),
    ),
    "TPB": (
        ("0321323323012132320331300300023020000233", (-0.9811523328136629, 0.8917537912314205, 1.4938445035131178)),
        ("1230100212121230303200033323013133030103", (0.8609329306108847, -1.032746623224112, 1.9177748432813495)),
        ("0321221110111212330132300002000032013000", (1.0048316708218563, 0.35664114738566544, 1.2444214994020333)),
    ),
}


def pin_scenario(kind):
    if kind in ("TP", "TPB", "CG", "CUC"):
        return TrialScenario(mu=(0.0, 0.178, 0.178, 0.545), sigma=1.0, T=40,
                             policy=PolicySpec(kind))
    return TrialScenario(mu=(0.0, 0.545), sigma=1.0, T=40, policy=PolicySpec(kind))


class TestDrawOrder:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_pinned_replicates(self, table995, kind):
        replicates = run_replicates(pin_scenario(kind), table995, PIN_SEED, 3, traces=3)
        for r, (allocations, z) in enumerate(PINNED[kind]):
            assert "".join(str(int(k)) for k in replicates.allocations[r]) == allocations, \
                f"replicate {r}"
            assert tuple(float(v) for v in replicates.z[r]) == z, f"replicate {r}"

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_replicates_are_single_trials(self, table995, kind):
        # M=37 is no multiple of any block size; test_pool_matches_serial
        # compares worker counts
        scenario = pin_scenario(kind)
        replicates = run_replicates(scenario, table995, PIN_SEED + 1, 37, keep_trajectory=True,
                                    traces=37)
        for r in range(37):
            single = run_trial(scenario, table995, (PIN_SEED + 1, r))
            assert row_identical(replicates, r, single), f"replicate {r}"

    @pytest.mark.parametrize("kind", ["TS", "TSB"])
    def test_four_arm_replicates_are_single_trials(self, kind):
        # at K >= 2 the TS weights come from a quadrature grid sized row by row
        scenario = four_arm(kind, LFC, T=64)
        replicates = run_replicates(scenario, None, PIN_SEED + 4, 64, keep_trajectory=True,
                                    traces=64)
        for r in range(64):
            single = run_trial(scenario, None, (PIN_SEED + 4, r))
            assert row_identical(replicates, r, single), f"replicate {r}"

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_pool_matches_serial(self, table995, kind):
        # more than one block, so workers=2 runs two pool tasks, one per block
        M = BLOCK + 37
        scenario = pin_scenario(kind)
        serial = run_replicates(scenario, table995, PIN_SEED + 3, M, workers=1,
                                keep_trajectory=True, traces=M)
        parallel = run_replicates(scenario, table995, PIN_SEED + 3, M, workers=2,
                                  keep_trajectory=True, traces=M)
        assert replicates_identical(serial, parallel)

    @pytest.mark.parametrize("kind", ["GI", "RGI"])
    def test_chunked_runs_match_serial(self, table995, kind):
        # three groups, the last one partial: one stepping block at 1 worker,
        # 512 + 37 rows at 2, a group per pool task at 3; the traces end inside
        # the second group
        M, n = 2 * BLOCK + 37, BLOCK + 5
        scenario = pin_scenario(kind)
        runs = [run_replicates(scenario, table995, PIN_SEED + 2, M, workers=w,
                               keep_trajectory=True, traces=n) for w in (1, 2, 3)]
        assert runs[0].M == M and runs[0].allocations.shape == (n, scenario.T)
        assert replicates_identical(runs[0], runs[1]) and replicates_identical(runs[0], runs[2])
        for r in range(n):
            single = run_trial(scenario, table995, (PIN_SEED + 2, r))
            assert row_identical(runs[0], r, single), f"replicate {r}"
        # plain reference: each group's running means added in replicate
        # order, then the group sums in group order
        traced = run_replicates(scenario, table995, PIN_SEED + 2, M, traces=M)
        means = running_means(traced)[:, :, scenario.K + 1:]
        total = np.zeros_like(runs[0].bias_sums)
        for first in range(0, M, BLOCK):
            block_sum = means[first]
            for row in means[first + 1:first + BLOCK]:
                block_sum = block_sum + row
            total = total + block_sum
        assert np.array_equal(runs[0].bias_sums, total)

    def test_traces_beyond_M_trace_every_row(self, table995):
        # more traces than replicates: every row is traced, in the run's last
        # block too (two tasks at 2 workers, the second of 37 rows)
        M = BLOCK + 37
        scenario = pin_scenario("GI")
        runs = [run_replicates(scenario, table995, PIN_SEED + 2, M, workers=w, traces=2 * M)
                for w in (1, 2)]
        assert runs[0].allocations.shape == (M, scenario.T)
        every_row = run_replicates(scenario, table995, PIN_SEED + 2, M, traces=M)
        assert replicates_identical(runs[0], every_row)
        assert replicates_identical(runs[1], every_row)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_stepping_block_size_moves_nothing(self, table995, monkeypatch, kind):
        # 1024 + 1024 + 300 rows at 1 and 2 workers against one group per
        # block; the traces end inside the second stepping block
        M, n = 2 * STEP_GROUPS * BLOCK + 300, STEP_GROUPS * BLOCK + 5
        scenario = dataclasses.replace(pin_scenario(kind), T=16)
        runs = [run_replicates(scenario, table995, PIN_SEED + 5, M, workers=w,
                               keep_trajectory=True, traces=n) for w in (1, 2)]
        monkeypatch.setattr(engine, "STEP_GROUPS", 1)
        grouped = run_replicates(scenario, table995, PIN_SEED + 5, M, keep_trajectory=True,
                                 traces=n)
        assert runs[0].allocations.shape == (n, 16)
        assert replicates_identical(runs[0], grouped) and replicates_identical(runs[1], grouped)

    def test_block_across_two_to_the_32_is_single_trials(self, table995):
        # one stepping block of two groups, the second starting at r = 2**32,
        # where r gains a second 32-bit word of seed entropy; with a
        # three-word master seed the entropy then outgrows SeedSequence's
        # four-word pool, so a zero high word of r would change the seeds
        scenario = two_arm("RGI", 0.545, T=20)
        master_seed = 2**64 + PIN_SEED
        first, stop = 2**32 - BLOCK, 2**32 + BLOCK
        block = _run_block(scenario, table995, _uint32_words(master_seed), False, stop, first,
                           stop)
        assert block.allocations.shape == (2 * BLOCK, 20)
        for r in range(first, stop):
            single = run_trial(scenario, table995, (master_seed, r))
            assert row_identical(block, r - first, single), f"replicate {r}"


class TestStreamSeeds:
    """Block seeding gives numpy's own SeedSequence children, bit for bit."""

    # one-, two- and three-word master seeds
    @pytest.mark.parametrize("master_seed", [7, 2**40 + 3, 2**90 + 2**33 + 5])
    def test_block_streams_are_seed_sequence_children(self, master_seed):
        # blocks holding r = 0, 1, 255; r = 256; r = 2**31; and two-word r from 2**32
        for first in (0, BLOCK, 2**31, 2**32):
            words = _stream_seeds(_uint32_words(master_seed), first, first + BLOCK)
            for r in range(first, first + BLOCK):
                for i in (0, 1):
                    child = np.random.SeedSequence((master_seed, r), spawn_key=(i,))
                    assert (np.random.PCG64(_SeedWords(words[i, r - first])).state
                            == np.random.PCG64(child).state), (master_seed, r, i)


class TestTraceDump:
    def test_trace_csv_round_trip(self, tmp_path):
        record = run_trial(two_arm("FR", 0.0, T=12), None, seed=(14, 0))
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "arms.csv"
        write_trace_csv(record, 0, trace, summary)
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,arm,outcome"
        assert len(lines) == 13
        arm_lines = summary.read_text().splitlines()
        assert arm_lines[0] == "arm,n,mean"
        totals = [int(row.split(",")[1]) for row in arm_lines[1:]]
        assert sum(totals) == 12
