"""Allocation-rule scoring, probability vectors, and selection mechanics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import log_ndtr, ndtr

from bandit_trials import policies
from bandit_trials.engine import TrialScenario, run_replicates
from bandit_trials.policies import (
    POLICY_KINDS,
    Allocator,
    PolicyDraws,
    PolicySpec,
    draw_policy_variates,
    sample_from_probabilities,
    select_from_scores,
    tp_probabilities,
    ts_probabilities,
)

from .conftest import LFC, four_arm, two_arm


def arms_of(*pairs):
    """One trial's state (sums, counts) from (mean, count) pairs."""
    return (np.array([mean * n for mean, n in pairs], dtype=float),
            np.array([n for _, n in pairs]))


def allocator(spec, arms, T, table=None, uniforms=(), rows=1, sigma=1.0, bumps=None):
    """``rows`` copies of one trial's state, allocated with scripted uniforms
    and, for RBI/RGI, scripted exponentials ``bumps`` (rows, T-K-1, K+1)."""
    sums, counts = arms
    n_arms = counts.size
    uniforms = np.atleast_2d(uniforms)
    pool = np.zeros((rows, 2 * (T - n_arms)))
    pool[:, :uniforms.shape[1]] = uniforms
    draws = PolicyDraws(init=np.tile(np.arange(n_arms), (rows, 1)), uniforms=pool, bumps=bumps)
    state = np.tile(sums, (rows, 1)), np.tile(counts, (rows, 1))
    return Allocator(spec, sigma, T, table, draws), state


def rule_values(kind, arms, t, T, table=None):
    """One trial's scores or probabilities under rule ``kind`` for patient t."""
    allocate, state = allocator(PolicySpec(kind), arms, T, table)
    return allocate.values(*state, t)[0]


def index_scores(kind, arm, sigma, t, table=None, bumps=(0.0,)):
    """Scores of a single arm (sum, count) under index rule ``kind`` at patient
    index t, one per scripted exponential of RBI/RGI in ``bumps``."""
    total, n = arm
    bumps = np.asarray(bumps, dtype=float)
    scripted = np.zeros((bumps.size, 2 * t - 1, 1))
    scripted[:, t - 2, 0] = bumps
    allocate, state = allocator(PolicySpec(kind), (np.array([float(total)]), np.array([n])),
                                2 * t, table, rows=bumps.size, sigma=sigma, bumps=scripted)
    return allocate.values(*state, t)[:, 0]


def index_score(kind, arm, sigma, t, table=None, bump=0.0):
    """Score of a single arm (sum, count) under index rule ``kind`` at patient index t."""
    return float(index_scores(kind, arm, sigma, t, table, [bump])[0])


class TestPolicySpec:
    def test_case_insensitive(self):
        assert PolicySpec("gi").kind == "GI"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicySpec("EPS")

    @pytest.mark.parametrize("kind", ["FR", "TS", "TP", "GI", "RGI", "UCB", "CG", "CUC"])
    def test_batch_only_for_batched_kinds(self, kind, monkeypatch, table09):
        # BATCH paces TSB and TPB only: every other rule sees each outcome by
        # the next patient, so a rule kept across patients scores as one built
        # afresh at each patient
        monkeypatch.setattr(policies, "BATCH", 5)
        T = 30
        rng = np.random.default_rng(3)
        bumps = rng.exponential(size=(1, T - 4, 4))
        sums, counts = arms_of((0.1, 1), (0.4, 1), (-0.2, 1), (0.3, 1))
        kept, _ = allocator(PolicySpec(kind), (sums, counts), T, table09, bumps=bumps)
        for t in range(5, T + 1):
            fresh, _ = allocator(PolicySpec(kind), (sums, counts), T, table09, bumps=bumps)
            assert np.array_equal(kept.values(sums[None], counts[None], t),
                                  fresh.values(sums[None], counts[None], t))
            sums[t % 4] += rng.normal()
            counts[t % 4] += 1

    @pytest.mark.parametrize("kind", ["FR", "TS", "TSB", "RBI", "RGI", "UCB", "KLU", "CB",
                                      "GI", "TP", "TPB"])
    def test_guard_prob_only_for_guarded_kinds(self, kind):
        # only CG and CUC flip the guard's coin, from a pool of two uniforms
        # per decision; every other rule draws one selection uniform per decision
        K, T = 3, 30
        draws = draw_policy_variates(PolicySpec(kind), K, T, [np.random.default_rng(0)])
        assert draws.uniforms.shape == (1, T - K - 1)
        for guarded in ("CG", "CUC"):
            draws = draw_policy_variates(PolicySpec(guarded), K, T, [np.random.default_rng(0)])
            assert draws.uniforms.shape == (1, 2 * (T - K - 1))

    def test_inner_kinds(self):
        assert PolicySpec("CG").inner_kind == "GI"
        assert PolicySpec("CUC").inner_kind == "UCB"
        assert PolicySpec("TSB").inner_kind == "TS"
        assert PolicySpec("TPB").inner_kind == "TP"

    # (is_randomized, is_batched, is_guarded, inner_kind, needs_table, round_robin_init)
    FLAGS = {
        "FR": (True, False, False, "FR", False, False),
        "TS": (True, False, False, "TS", False, False),
        "TSB": (True, True, False, "TS", False, False),
        "RBI": (False, False, False, "RBI", False, False),
        "RGI": (False, False, False, "RGI", True, False),
        "UCB": (False, False, False, "UCB", False, True),
        "KLU": (False, False, False, "KLU", False, True),
        "CB": (False, False, False, "CB", False, False),
        "GI": (False, False, False, "GI", True, False),
        "CG": (False, False, True, "GI", True, False),
        "CUC": (False, False, True, "UCB", False, True),
        "TP": (True, False, False, "TP", False, False),
        "TPB": (True, True, False, "TP", False, False),
    }

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_flags(self, kind):
        spec = PolicySpec(kind)
        assert (spec.is_randomized, spec.is_batched, spec.is_guarded, spec.inner_kind,
                spec.needs_table, spec.round_robin_init) == self.FLAGS[kind]


class TestIndexScores:
    def test_ucb_pinned_value(self):
        arm = (0.5 * 4, 4)
        assert index_score("UCB", arm, 1.0, 10) == pytest.approx(1.5729830131446736, abs=1e-5)

    def test_ucb_pinned_value_scaled(self):
        arm = (-1.0, 1)
        assert index_score("UCB", arm, 2.0, 3) == pytest.approx(1.9646076147350224, abs=1e-5)

    def test_ucb_bonus_vanishes(self):
        arm = (0.0, 10**9)
        assert index_score("UCB", arm, 1.0, 10) == pytest.approx(0.0, abs=1e-4)

    def test_klu_pinned_value(self):
        arm = (0.0, 1)
        assert index_score("KLU", arm, 1.0, 10) == pytest.approx(3.0998975559646853, abs=1e-4)

    def test_klu_dominates_ucb(self):
        arm = (0.5 * 4, 4)
        for t in (3, 10, 50):
            assert index_score("KLU", arm, 1.0, t) >= index_score("UCB", arm, 1.0, t)

    def test_klu_bonus_vanishes(self):
        arm = (1.0 * 10**9, 10**9)
        assert index_score("KLU", arm, 1.0, 10) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("kind", ["UCB", "KLU"])
    def test_strictly_decreasing_in_n(self, kind):
        t = 25
        vals = [index_score(kind, (0.5 * n, n), 1.0, t) for n in (1, 2, 5, 10, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_allocation_index_uses_next_observation_entry(self, table09):
        arm = (2.0, 4)
        assert index_score("GI", arm, 1.5, 10, table09) == pytest.approx(
            0.5 + 1.5 * table09.values[4])


def quad_p_best(arms, sigma):
    """P(arm k is best) for each arm by adaptive quadrature, arm by arm."""
    sums, counts = arms
    means = [total / n for total, n in zip(sums, counts)]
    sds = [sigma / math.sqrt(n) for n in counts]
    out = []
    for k, (m, s) in enumerate(zip(means, sds)):
        def integrand(y):
            others = [stats.norm.cdf(y, mj, sj)
                      for j, (mj, sj) in enumerate(zip(means, sds)) if j != k]
            return stats.norm.pdf(y, m, s) * math.prod(others)
        breaks = sorted(mj for j, mj in enumerate(means) if j != k)
        value, _ = integrate.quad(integrand, m - 12 * s, m + 12 * s, points=breaks,
                                  epsabs=1e-14, epsrel=1e-13, limit=500)
        out.append(value)
    return np.array(out)


def log_quad_p_best(means, sds):
    """log P(arm k is best) for each arm by adaptive quadrature in log space.

    Arm k's integrand, exp(log f_k + sum_{j != k} log F_j), is log-concave:
    it is integrated relative to its mode y*, over y* +- 40 s_k, where it has
    fallen below exp(-800) of its peak.
    """
    means, sds = np.asarray(means), np.asarray(sds)
    out = []
    for k in range(means.size):
        others = np.arange(means.size) != k

        def log_f(y, k=k, others=others):
            log_cdfs = log_ndtr((np.asarray(y)[..., None] - means[others]) / sds[others])
            return (-0.5 * ((y - means[k]) / sds[k]) ** 2
                    - math.log(sds[k] * math.sqrt(2 * math.pi)) + log_cdfs.sum(axis=-1))

        grid = np.linspace((means - 40 * sds).min(), (means + 40 * sds).max(), 20001)
        mode = grid[np.argmax(log_f(grid))]
        peak = float(log_f(mode))
        mass = sum(integrate.quad(lambda y: math.exp(float(log_f(y)) - peak), a, b,
                                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in ((mode - 40 * sds[k], mode), (mode, mode + 40 * sds[k])))
        out.append(peak + math.log(mass))
    return np.array(out)


def ts_trial_states(scenario, seed, n_trials, stride):
    """(sums, counts, t) before every ``stride``-th patient t > K+1 of
    ``n_trials`` TS trials of ``scenario``: counts sum to t-1."""
    replicates = run_replicates(scenario, None, seed, n_trials, traces=n_trials)
    n_arms = scenario.K + 1
    states = []
    for allocations, outcomes in zip(replicates.allocations, replicates.outcomes):
        for t in range(n_arms + 1, scenario.T + 1, stride):
            seen = allocations[:t - 1]
            states.append((np.bincount(seen, outcomes[:t - 1], n_arms),
                           np.bincount(seen, minlength=n_arms), t))
    return states


class TestTsProbabilities:
    # t = 2T makes the tempering exponent 1, so the weights are the
    # probabilities of being best themselves

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_zero_tempering_is_uniform(self, K):
        # c = 0: expit(0.0) is 0.5 at K=1, and p**0.0 is 1 for every arm above
        arms = arms_of(*((3.0, 5), (0.0, 2), (-1.0, 9), (0.5, 4))[:K + 1])
        probs = ts_probabilities(*arms, 1.0, 0, 100)
        assert np.array_equal(probs, np.full(K + 1, 1 / (K + 1)))

    def test_symmetric_arms_near_uniform(self):
        arms = arms_of((0.5, 10), (0.5, 10), (0.5, 10), (0.5, 10))
        probs = ts_probabilities(*arms, 1.0, 50, 100)
        assert np.allclose(probs, 0.25, rtol=0, atol=1e-12)

    def test_closed_form_two_arm_oracle(self):
        # P[mu_1 best] = ndtr((m1 - m0) / sqrt(s0^2 + s1^2)); unequal counts
        # make one posterior far narrower than the other
        sigma = 1.3
        for counts in ((100, 100), (1, 300), (300, 1), (3, 7)):
            arms = arms_of((0.1, counts[0]), (0.35, counts[1]))
            probs = ts_probabilities(*arms, sigma, 200, 100)
            spread = sigma * math.sqrt(1 / counts[0] + 1 / counts[1])
            assert probs[1] == pytest.approx(ndtr(0.25 / spread), rel=0, abs=1e-12)
            assert probs[0] == pytest.approx(ndtr(-0.25 / spread), rel=0, abs=1e-12)

    @pytest.mark.parametrize("pairs", [
        ((0.2, 5), (0.9, 9), (-0.3, 2), (0.5, 14)),
        ((0.0, 1), (0.2, 150), (0.1, 148), (0.25, 152)),
        ((0.0, 150), (1.5, 1), (0.1, 149), (0.12, 151)),
    ])
    def test_matches_adaptive_quadrature(self, pairs):
        arms = arms_of(*pairs)
        probs = ts_probabilities(*arms, 1.0, 200, 100)
        assert np.allclose(probs, quad_p_best(arms, 1.0), rtol=0, atol=1e-10)

    def test_shift_invariance_under_common_randomness(self):
        arms = arms_of((0.2, 4), (0.9, 7), (-0.4, 30))
        shifted = arms_of((0.2 + 5.0, 4), (0.9 + 5.0, 7), (-0.4 + 5.0, 30))
        a = ts_probabilities(*arms, 1.0, 30, 100)
        b = ts_probabilities(*shifted, 1.0, 30, 100)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_normalized(self, seed, t):
        rng = np.random.default_rng(seed)
        arms = arms_of((rng.normal(), 3), (rng.normal(), 8), (rng.normal(), 2))
        probs = ts_probabilities(*arms, 1.0, t, 200)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_rows_independent_of_their_block(self, seed, K):
        # counts from 1 to 300 give each row its own grid size at K = 3
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 301, size=(64, K + 1))
        sums = rng.normal(0.0, 0.5, size=counts.shape) * counts
        t = int(rng.integers(1, 605))
        block = ts_probabilities(sums, counts, 1.0, t, 302)
        for r in range(len(counts)):
            assert np.array_equal(block[r], ts_probabilities(sums[r], counts[r], 1.0, t, 302))

    @pytest.mark.parametrize("limit", [1, 1000], ids=["row-alone", "few-rows"])
    def test_row_chunks_are_bit_identical(self, monkeypatch, limit):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 301, size=(64, 4))
        sums = rng.normal(0.0, 0.5, size=counts.shape) * counts
        whole = ts_probabilities(sums, counts, 1.0, 100, 302)
        sizes = []
        trapezoid = policies._trapezoid_p_best

        def recording(means, *args):
            sizes.append(len(means))
            return trapezoid(means, *args)

        monkeypatch.setattr(policies, "_trapezoid_p_best", recording)
        monkeypatch.setattr(policies, "TS_CHUNK_ELEMENTS", limit)
        assert np.array_equal(ts_probabilities(sums, counts, 1.0, 100, 302), whole)
        assert sum(sizes) == len(counts) and max(sizes) < len(counts)
        if limit == 1:
            assert max(sizes) == 1

    def test_many_point_grid_memory_is_bounded(self):
        # sigma 0.001, an effect of 0.5 and one arm at n = 290: about 17,300
        # points a row, so a (128, 4, points) array would take 71 MB
        counts = np.tile([290, 5, 5, 5], (128, 1))
        sums = np.array([0.0, 0.0, 0.0, 0.5]) * counts
        tracemalloc.start()
        try:
            probs = ts_probabilities(sums, counts, 0.001, 100, 302)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(probs).all()
        # a chunk's arrays take 8 bytes a element; a few are alive at once
        assert peak < 6 * 8 * policies.TS_CHUNK_ELEMENTS

    def test_collapsed_grid_is_an_error(self):
        # each mean +- 8 s.d. rounds to 1e17, so every p_best is 0; the weights
        # would be 0/0, which sends every patient after the first four to the control
        arms = arms_of(*[(1e17, 1)] * 4)
        with pytest.raises(ValueError, match="patient 5: the quadrature grid collapsed"):
            ts_probabilities(*arms, 1.0, 4, 60)
        scenario = TrialScenario((1e17,) * 4, 1.0, 60, PolicySpec("TS"))
        with pytest.raises(ValueError, match="patient 5: the quadrature grid collapsed"):
            run_replicates(scenario, None, 1, 200)

    def test_overflowing_grid_size_is_an_error(self):
        # admitted means and sigma whose grid needs about 4e200 points
        scenario = TrialScenario((-1e100, 0.0, 1e100, 1e100), 1e-100, 20, PolicySpec("TS"))
        with pytest.raises(ValueError, match="patient 5: the quadrature grid's size overflows"):
            run_replicates(scenario, None, 1, 10)

    @pytest.mark.parametrize("scenario", [two_arm("TS", 0.545), two_arm("TS", 0.0),
                                          four_arm("TS", LFC, T=64), four_arm("TS", LFC)],
                             ids=["K1-H1", "K1-H0", "K3-T64", "K3-T302"])
    def test_trial_states_match_log_space_quadrature(self, scenario):
        # states a real TS trial allocates from, tempered as the engine tempers them
        for sums, counts, t in ts_trial_states(scenario, 5, 3, scenario.T // 12):
            c = (t - 1) / (2.0 * scenario.T)
            log_p = log_quad_p_best(sums / counts, 1.0 / np.sqrt(counts))
            tempered = np.exp(c * (log_p - log_p.max()))
            weights = ts_probabilities(sums, counts, 1.0, t - 1, scenario.T)
            assert np.abs(weights - tempered / tempered.sum()).max() < 1e-12, (counts, t)
            if scenario.K == 1:  # p against the closed form, in relative error
                x = (sums[1] / counts[1] - sums[0] / counts[0]) \
                    / math.sqrt(1.0 / counts[0] + 1.0 / counts[1])
                assert np.abs(np.expm1(log_p - log_ndtr([-x, x]))).max() < 1e-12, (counts, t)

    @pytest.mark.parametrize("kind", ["TS", "TSB"])
    def test_decision_draws_one_uniform(self, kind):
        # the weights draw nothing: a trial's stream holds its initialization
        # order and then exactly one uniform per decision
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        draws = draw_policy_variates(PolicySpec(kind), 1, 30, [rng])
        assert np.array_equal(draws.init[0], reference.permutation(2))
        assert np.array_equal(draws.uniforms[0], reference.random(28))
        assert rng.random() == reference.random()  # nothing else was read
        sums, counts = arms_of((0.0, 3), (0.4, 2))
        assert Allocator(PolicySpec(kind), 1.0, 30, None, draws)(
            sums[None], counts[None], 4)[0] in (0, 1)


class TestTpProbabilities:
    def test_start_of_trial_is_uniform(self):
        arms = arms_of((0.0, 1), (0.0, 1), (0.0, 1), (0.0, 1))
        probs = tp_probabilities(*arms, 1.0, 0, 100)
        assert np.allclose(probs, 0.25)

    def test_worked_example(self):
        # equal means, counts (10, 12, 12, 12), halfway through the trial:
        # experimental weights tie at 1/3 and the control weight is
        # exp(2 ** 0.125) / 3.
        arms = arms_of((0.0, 10), (0.0, 12), (0.0, 12), (0.0, 12))
        probs = tp_probabilities(*arms, 1.0, 50, 100)
        w0 = 0.9919281973675802
        expected = np.array([w0, 1 / 3, 1 / 3, 1 / 3]) / (w0 + 1.0)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_dominant_arm_takes_experimental_mass(self):
        # end of trial (gamma = 3): competitors at P=1/2 keep (1/2)^3 weight
        # each, so the sure winner holds 1/(1 + 2/8) = 0.8 of the mass
        arms = arms_of((0.0, 30), (2.0, 30), (0.0, 30), (0.0, 30))
        probs = tp_probabilities(*arms, 1.0, 100, 100)
        experimental = probs[1:] / probs[1:].sum()
        assert experimental[0] == pytest.approx(0.8, abs=1e-6)
        # with clearly inferior competitors the winner's share tends to one
        arms = arms_of((0.0, 30), (2.0, 30), (-2.0, 30), (-2.0, 30))
        probs = tp_probabilities(*arms, 1.0, 100, 100)
        experimental = probs[1:] / probs[1:].sum()
        assert experimental[0] > 0.999

    def test_requires_multiple_experimental_arms(self):
        with pytest.raises(ValueError, match="multi-arm"):
            tp_probabilities(*arms_of((0.0, 3), (0.0, 3)), 1.0, 10, 100)

    def test_control_deficit_floored_at_zero(self):
        # control has the most observations; the exponent base clamps to 0
        arms = arms_of((0.0, 20), (0.0, 5), (0.0, 6), (0.0, 4))
        probs = tp_probabilities(*arms, 1.0, 50, 100)
        assert probs[0] == pytest.approx((1 / 3) / (1 + 1 / 3))


class TestPerturbedScore:
    # RBI scores an arm with n observations as mean + E/(n+1), E a unit
    # exponential drawn per arm and decision

    def test_expected_bump_is_one_over_n(self):
        rng = np.random.default_rng(3)
        n, draws = 7, 100_000
        arm = (0.0, n - 1)
        bumps = index_scores("RBI", arm, 1.0, 10, bumps=rng.standard_exponential(draws))
        se = bumps.std() / math.sqrt(draws)
        assert bumps.mean() == pytest.approx(1 / n, abs=3 * se)

    def test_vanishes_for_large_n(self):
        rng = np.random.default_rng(4)
        arm = (1.5 * 10**9, 10**9)
        assert index_score("RBI", arm, 1.0, 10, bump=rng.standard_exponential()) \
            == pytest.approx(1.5, abs=1e-6)

    def test_degenerate_draw_returns_base(self):
        assert index_score("RBI", (2.5 * 2, 2), 1.0, 10, bump=0.0) == 2.5

    def test_rgi_adds_bump_to_gittins_index(self, table09):
        arm = (2.0, 4)
        assert index_score("RGI", arm, 1.5, 10, table09, bump=0.9) == pytest.approx(
            0.5 + 1.5 * table09.values[4] + 0.9 / 5)

    @pytest.mark.parametrize("kind", ["RBI", "RGI"])
    @pytest.mark.parametrize("K, T, R", [(1, 116, 450), (3, 302, 90)])
    def test_block_draws_are_one_uniform_each(self, kind, K, T, R):
        # each replicate's stream: the initialization order, then one
        # (T-K-1, K+2) block of uniforms, a row per decision holding its K+1
        # exponentials by inversion and then its selection uniform
        rngs = [np.random.default_rng((5, r)) for r in range(R)]
        draws = draw_policy_variates(PolicySpec(kind), K, T, rngs)
        assert draws.bumps.shape == (R, T - K - 1, K + 1)
        assert draws.uniforms.shape == (R, T - K - 1)
        for r in range(R):
            reference = np.random.default_rng((5, r))
            assert np.array_equal(draws.init[r], reference.permutation(K + 1))
            u = reference.random((T - K - 1, K + 2))
            assert np.array_equal(draws.bumps[r], -np.log1p(-u[:, :K + 1]))
            assert np.array_equal(draws.uniforms[r], u[:, K + 1])
            assert rngs[r].random() == reference.random()  # nothing else was read
        bumps = draws.bumps.ravel()
        assert bumps.size >= 10**5
        assert np.all(np.isfinite(bumps)) and bumps.min() >= 0.0
        se = bumps.std() / math.sqrt(bumps.size)
        assert bumps.mean() == pytest.approx(1.0, abs=6 * se)


class TestSelection:
    def test_argmax_when_unique(self):
        assert select_from_scores(np.array([0.1, 0.7, 0.3]), 0.99) == 1

    def test_consumes_exactly_one_uniform(self):
        # one uniform per decision, used only to break ties
        scores = np.array([[1.0, 2.0], [3.0, 3.0], [3.0, 3.0]])
        picks = select_from_scores(scores, np.array([0.9, 0.2, 0.7]))
        assert picks.tolist() == [1, 0, 1]
        # an index rule's stream: the initialization order, then one uniform
        # per decision and nothing else
        rng, reference = np.random.default_rng(12), np.random.default_rng(12)
        draws = draw_policy_variates(PolicySpec("GI"), 1, 20, [rng])
        reference.permutation(2)
        assert np.array_equal(draws.uniforms[0], reference.random(18))
        assert rng.random() == reference.random()

    def test_ties_broken_uniformly(self):
        rng = np.random.default_rng(5)
        scores = np.tile([1.0, 0.5, 1.0], (4000, 1))
        picks = select_from_scores(scores, rng.random(4000))
        counts = np.bincount(picks, minlength=3)
        assert counts[1] == 0
        assert abs(counts[0] - 2000) < 3 * math.sqrt(4000 * 0.25)

    def test_sampling_respects_probabilities(self):
        rng = np.random.default_rng(6)
        probs = [0.1, 0.6, 0.3]
        picks = sample_from_probabilities(np.tile(probs, (6000, 1)), rng.random(6000))
        freq = np.bincount(picks, minlength=3) / 6000
        assert np.allclose(freq, probs, atol=0.03)

    def test_matches_scalar_reference(self):
        # the one-decision-at-a-time selectors, applied row by row
        def argmax_with_ties(scores, u):
            ties = [i for i, s in enumerate(scores) if s == max(scores)]
            return ties[int(u * len(ties))]

        def inverse_cdf(probs, u):
            acc = 0.0
            for i, p in enumerate(probs):
                acc += p
                if u < acc:
                    return i
            return len(probs) - 1

        rng = np.random.default_rng(13)
        for n_arms in (2, 3, 4):
            scores = rng.integers(0, 3, (500, n_arms)).astype(float)  # many ties
            probs = rng.random((500, n_arms))
            probs /= probs.sum(axis=1, keepdims=True)
            u = rng.random(500)
            assert select_from_scores(scores, u).tolist() == [
                argmax_with_ties(list(row), x) for row, x in zip(scores, u)]
            assert sample_from_probabilities(probs, u).tolist() == [
                inverse_cdf(list(row), x) for row, x in zip(probs, u)]
            # no row tied, then every seventh row's first column tied with its maximum
            scores = rng.random((500, n_arms))
            for ties in (False, True):
                if ties:
                    scores[::7, 0] = scores[::7].max(axis=1)
                assert select_from_scores(scores, u).tolist() == [
                    argmax_with_ties(list(row), x) for row, x in zip(scores, u)]

    def test_sampling_edge_of_unit_interval(self):
        assert sample_from_probabilities(np.array([0.5, 0.5]), 0.999999999) == 1
        # rounding can leave the total at or below u: the last arm is drawn
        assert sample_from_probabilities(np.array([0.5, 0.5 - 1e-12]), 0.9999999999999) == 1


class TestPolicyScores:
    # the vectors a rule allocates from: ``Allocator.values``

    def test_fr_uniform(self):
        arms = arms_of((0.0, 1), (1.0, 1), (2.0, 1))
        assert PolicySpec("FR").is_randomized
        assert np.allclose(rule_values("FR", arms, 5, 50), 1 / 3)

    def test_cb_scores_are_means(self):
        arms = arms_of((0.1, 3), (0.4, 3), (0.2, 3))
        assert not PolicySpec("CB").is_randomized
        assert int(np.argmax(rule_values("CB", arms, 10, 50))) == 1

    def test_gi_equal_states_equal_scores(self, table09):
        arms = arms_of((0.3, 6), (0.3, 6), (0.3, 6))
        scores = rule_values("GI", arms, 10, 50, table09)
        assert scores[0] == scores[1] == scores[2]

    def test_shift_invariance_of_score_vectors(self, table09):
        shift = 3.7
        base = arms_of((0.2, 4), (0.9, 7), (-0.3, 2))
        moved = arms_of((0.2 + shift, 4), (0.9 + shift, 7), (-0.3 + shift, 2))
        for kind in ("CB", "GI", "UCB", "KLU"):
            a = rule_values(kind, base, 9, 50, table09)
            b = rule_values(kind, moved, 9, 50, table09)
            assert np.allclose(b - a, shift, atol=1e-12)


class TestGuardedAllocate:
    @staticmethod
    def decide(kind, arms, table, uniforms, t=9):
        allocate, state = allocator(PolicySpec(kind), arms, 50, table, uniforms)
        return int(allocate(*state, t)[0])

    def test_guard_fires(self, table09):
        arms = arms_of((0.0, 2), (5.0, 2), (5.0, 2), (5.0, 2))
        assert self.decide("CG", arms, table09, [0.1]) == 0
        # a fired guard consumes one uniform: the next decision's guard is
        # the pool's second entry (0.2 fires; 0.9 would not)
        allocate, state = allocator(PolicySpec("CG"), arms, 50, table09,
                                    [0.1, 0.2, 0.9])
        assert allocate(*state, 9)[0] == 0
        assert allocate(*state, 10)[0] == 0

    @pytest.mark.parametrize("kind", ["CG", "CUC"])
    @pytest.mark.parametrize("means", [(-9.0, 1.5), (-9.0, 1.2, 0.9, 1.5)], ids=["K1", "K3"])
    def test_guard_fires_below_one_over_arm_count(self, table09, kind, means):
        # the guard uniform fires strictly below 1/(K+1); at 1/(K+1) the merit
        # stage picks the best arm, the last
        arms = arms_of(*[(mean, 8) for mean in means])
        guard = 1.0 / len(means)
        assert self.decide(kind, arms, table09, [np.nextafter(guard, 0.0), 0.5]) == 0
        assert self.decide(kind, arms, table09, [guard, 0.5]) == len(means) - 1

    def test_index_stage_includes_control(self, table09):
        # control holds the best posterior mean and equal counts, so it wins
        # the index stage when the guard does not fire
        arms = arms_of((2.0, 8), (0.1, 8), (0.2, 8), (0.3, 8))
        assert self.decide("CG", arms, table09, [0.9, 0.5]) == 0

    def test_argmax_over_experimental(self, table09):
        arms = arms_of((-9.0, 8), (1.2, 8), (0.9, 8), (1.5, 8))
        assert self.decide("CG", arms, table09, [0.9, 0.5]) == 3

    def test_merit_stage_is_the_inner_rule(self, table09):
        # with the guard off, CG picks GI's argmax and CUC picks UCB's: the
        # counts make the two indices disagree
        arms = arms_of((0.0, 30), (0.3, 40), (-0.2, 2), (-0.5, 30))
        for kind, inner in (("CG", "GI"), ("CUC", "UCB")):
            scores = rule_values(inner, arms, 40, 50, table09)
            assert self.decide(kind, arms, table09, [0.99, 0.0], t=40) == int(np.argmax(scores))
        gi = rule_values("GI", arms, 40, 50, table09)
        ucb = rule_values("UCB", arms, 40, 50)
        assert np.argmax(gi) != np.argmax(ucb)

    def test_long_run_control_share_exceeds_guard(self, table09):
        # with exchangeable arms the control also wins the merit stage about
        # 1/(K+1) of the time: share ~ g + (1-g)/4 for K=3
        rng = np.random.default_rng(8)
        arms = arms_of((0.0, 5), (0.0, 5), (0.0, 5), (0.0, 5))
        allocate, state = allocator(PolicySpec("CUC"), arms, 50, table09,
                                    rng.random((20_000, 2)), rows=20_000)
        share = float(np.mean(allocate(*state, 9) == 0))
        expected = 0.25 + 0.75 * 0.25
        assert share == pytest.approx(expected, abs=3 * math.sqrt(0.4375 * 0.5625 / 20_000))


def batched_weights(spec, n_arms, T):
    """weights((sums, counts), t): the vector a batched rule allocates patient t from."""
    allocate, _ = allocator(spec, arms_of(*[(0.0, 1)] * n_arms), T)
    return lambda arms, t: allocate.values(arms[0][None], arms[1][None], t)[0]


class TestBatchedPolicy:
    def test_refresh_schedule(self):
        weights = batched_weights(PolicySpec("TPB"), 4, 116)
        sums, counts = arms_of((0.0, 1), (0.0, 1), (0.0, 1), (0.0, 1))
        previous = weights((sums, counts), 5).copy()
        changed = []
        for t in range(6, 117):
            sums[t % 4] += 0.1 * (t % 4)
            counts[t % 4] += 1
            probs = weights((sums, counts), t)
            if not np.array_equal(probs, previous):
                changed.append(t)
            previous = probs.copy()
        # counting oracle: refreshes at t > 1 with (t-1) % 20 == 0
        expected = [t for t in range(6, 117) if (t - 1) % 20 == 0]
        assert changed == expected == [21, 41, 61, 81, 101]

    def test_batch_of_one_matches_unbatched(self, monkeypatch):
        monkeypatch.setattr(policies, "BATCH", 1)
        weights = batched_weights(PolicySpec("TSB"), 2, 30)
        sums, counts = arms_of((0.4, 3), (0.1, 2))
        for t in (4, 5, 6):
            a = weights((sums, counts), t)
            assert np.array_equal(a, ts_probabilities(sums, counts, 1.0, t - 1, 30))
            sums[t % 2] += 0.2 * t
            counts[t % 2] += 1

    def test_batch_of_horizon_never_refreshes(self, monkeypatch):
        monkeypatch.setattr(policies, "BATCH", 30)
        weights = batched_weights(PolicySpec("TSB"), 3, 30)
        arms = arms_of((5.0, 4), (0.0, 4), (-5.0, 4))
        vectors = [weights(arms, t) for t in range(4, 31)]
        assert all(np.allclose(v, 1 / 3) for v in vectors)

    def test_stale_vector_between_refreshes(self, monkeypatch):
        monkeypatch.setattr(policies, "BATCH", 10)
        weights = batched_weights(PolicySpec("TPB"), 4, 80)
        sums, counts = arms_of((0.0, 3), (0.0, 3), (0.0, 3), (0.0, 3))
        first = weights((sums, counts), 11).copy()
        sums[3] += 50.0  # outcome accrues but stays invisible
        counts[3] += 1
        second = weights((sums, counts), 12)
        assert np.array_equal(first, second)
        # at the next refresh the outcome becomes visible: arm 3 gains share
        # among the experimental arms (the control share also moves, since
        # its weight chases the leading arm's count edge)
        third = weights((sums, counts), 21)
        assert third[3] / third[1:].sum() > first[3] / first[1:].sum()
