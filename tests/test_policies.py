"""Allocation-rule scoring, probability vectors, and selection mechanics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr

from bandit_trials.policies import (
    Allocator,
    PolicyDraws,
    PolicySpec,
    draw_policy_variates,
    sample_from_probabilities,
    select_from_scores,
    tp_probabilities,
    ts_probabilities,
)


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

    def test_batch_defaults(self):
        assert PolicySpec("TSB").batch == 20
        assert PolicySpec("TS").batch == 1
        assert PolicySpec("TSB", batch=5).batch == 5

    @pytest.mark.parametrize("kind", ["FR", "TS", "TP", "GI", "RGI", "UCB", "CG", "CUC"])
    def test_batch_only_for_batched_kinds(self, kind):
        assert PolicySpec(kind).batch == 1
        assert PolicySpec(kind, batch=1).batch == 1
        with pytest.raises(ValueError, match="TSB/TPB"):
            PolicySpec(kind, batch=5)

    def test_guard_prob_default(self):
        assert PolicySpec("CG").guard_prob(3) == 0.25
        assert PolicySpec("CG", control_guard_prob=1 / 3).guard_prob(3) == 1 / 3

    def test_inner_kinds(self):
        assert PolicySpec("CG").inner_kind == "GI"
        assert PolicySpec("CUC").inner_kind == "UCB"
        assert PolicySpec("TSB").inner_kind == "TS"
        assert PolicySpec("TPB").inner_kind == "TP"


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


class TestTsProbabilities:
    # t = 2T makes the tempering exponent 1, so the weights are the
    # probabilities of being best themselves

    def test_zero_tempering_is_uniform(self):
        arms = arms_of((3.0, 5), (0.0, 2), (-1.0, 9))
        probs = ts_probabilities(*arms, 1.0, 0, 100)
        assert np.array_equal(probs, np.full(3, 1 / 3))

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
        weights = batched_weights(PolicySpec("TPB", batch=20), 4, 116)
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

    def test_batch_of_one_matches_unbatched(self):
        weights = batched_weights(PolicySpec("TSB", batch=1), 2, 30)
        sums, counts = arms_of((0.4, 3), (0.1, 2))
        for t in (4, 5, 6):
            a = weights((sums, counts), t)
            assert np.array_equal(a, ts_probabilities(sums, counts, 1.0, t - 1, 30))
            sums[t % 2] += 0.2 * t
            counts[t % 2] += 1

    def test_batch_of_horizon_never_refreshes(self):
        weights = batched_weights(PolicySpec("TSB", batch=30), 3, 30)
        arms = arms_of((5.0, 4), (0.0, 4), (-5.0, 4))
        vectors = [weights(arms, t) for t in range(4, 31)]
        assert all(np.allclose(v, 1 / 3) for v in vectors)

    def test_stale_vector_between_refreshes(self):
        weights = batched_weights(PolicySpec("TPB", batch=10), 4, 80)
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
