"""Correctness checks on the files each benchmark command writes.

Every check compares an output with a value computed here, apart from the
program, or with a property the method must have; none compares with a
stored copy of earlier output.  Tolerances follow the Monte Carlo error of
the run that produced the value:

* rejection counts get exact tests: binomial where the rejection
  probability is known (FR at its analytic critical value), and
  beta-binomial for an H0 row tested at a critical value calibrated on
  other replicates of the same null law (the calibrated percentile's
  coverage is Beta(r, M+1-r) for any continuous law, r the nearest rank);
* a calibrated C carries the error of its order-statistic interval when
  ``calibrate`` writes one; ``simulate`` writes none, so there the error of
  a nearest-rank percentile is scaled from M, taking the statistic's law as
  the equal-randomisation law stretched to put its 95th percentile at C;
* a published figure carries its own Monte Carlo error at 10^4 replicates;
* means get normal errors at Z_LIMIT standard errors; exact tests fail
  below P_LIMIT.

Each limit puts a correct program's chance of failing that check near
4e-8, so a run of a few hundred checks passes on any seed.  The Ep* and GI
bias checks compare with a bound the true value clears by more than eight
standard errors at these replicate counts.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.special import gammaln, ndtr, ndtri

from workloads import ALPHA, DELTA, Command

Z_LIMIT = 5.5          # normal-error checks; two-sided tail 3.8e-8
Z_BIAS = 6.0           # per-t bias checks: about 230 correlated values per file
P_LIMIT = 1e-8         # exact tests
M_PUBLISHED = 10_000

PUBLISHED_C_TWO_ARM = {"TS": 1.701, "TSB": 1.676, "RBI": 1.998, "RGI": 1.941,
                       "UCB": 2.068, "KLU": 1.867, "CB": 1.782, "GI": 1.951}
# Four-arm trial, T=302, H1-LFC (acceptance criterion 6).
PUBLISHED_FOUR_ARM = {("CG", "power"): 0.8667, ("CG", "EO"): 0.3392, ("CUC", "power"): 0.9599}
# Rules that favour the arm with the best estimate: under H1 their best-arm
# share exceeds the equal share 1/(K+1).  TP and TPB hold patients on the
# control by design and are left out.
FAVOUR_BEST = frozenset({"TS", "TSB", "GI", "RGI", "CB", "CG", "CUC"})
Z95 = float(ndtri(1 - ALPHA))


class Findings:
    def __init__(self, label: str):
        self.label = label
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(f"{self.label}: {message}")


# -- independent reference values ---------------------------------------------

@lru_cache(maxsize=None)
def analytic_critical(K: int) -> float:
    """Upper-alpha point of the max of K equicorrelated (rho=1/2) standard normals."""
    if K == 1:
        return Z95
    law = stats.multivariate_normal(mean=np.zeros(K), cov=0.5 * (np.eye(K) + 1.0))
    return brentq(lambda c: law.cdf(np.full(K, c)) - (1 - ALPHA), 1.0, 4.0, xtol=1e-6)


@lru_cache(maxsize=None)
def _max_density(K: int) -> float:
    """Density of that maximum at its upper-alpha point (central difference)."""
    if K == 1:
        return float(stats.norm.pdf(Z95))
    law = stats.multivariate_normal(mean=np.zeros(K), cov=0.5 * (np.eye(K) + 1.0))
    c, h = analytic_critical(K), 0.02
    return (law.cdf(np.full(K, c + h)) - law.cdf(np.full(K, c - h))) / (2 * h)


def percentile_se(C: float, K: int, M: int) -> float:
    """Error of a nearest-rank (1-alpha) percentile of M draws, at value C."""
    spread = C / analytic_critical(K)
    return math.sqrt(ALPHA * (1 - ALPHA) / M) * spread / _max_density(K)


def fr_power(T: int, K: int, C: float) -> float:
    """P[Z_K > C] under FR: each arm gets one initial patient, the other
    T-K-1 are spread uniformly; the best arm K is ``DELTA`` above control."""
    m = T - (K + 1)
    p = 1.0 / (K + 1)
    # (extra patients on control, extra on arm K) ~ trinomial(m; p, p, 1-2p);
    # for K=1 the third cell is empty and the pair is (m - b, b).
    total = 0.0
    for b0 in range(m + 1):
        b1 = np.arange(m - b0 + 1) if K > 1 else np.array([m - b0])
        if K > 1:
            log_prob = (gammaln(m + 1) - gammaln(b0 + 1) - gammaln(b1 + 1)
                        - gammaln(m - b0 - b1 + 1)
                        + (b0 + b1) * math.log(p) + (m - b0 - b1) * math.log(1 - 2 * p))
        else:
            log_prob = np.array([stats.binom.logpmf(b0, m, p)])
        n0, n1 = 1 + b0, 1 + b1
        shift = DELTA / np.sqrt(1.0 / n0 + 1.0 / n1)
        total += float(np.sum(np.exp(log_prob) * ndtr(shift - C)))
    return total


def inverse_count_mean(t: int, K: int) -> float:
    """E[1/n] for one arm's count after patient t under FR: 1 + Bin(t-K-1, 1/(K+1))."""
    m, p = t - (K + 1), 1.0 / (K + 1)
    return (1 - (1 - p) ** (m + 1)) / ((m + 1) * p)


def _two_sided(cdf_x: float, sf_x_minus: float) -> float:
    return min(1.0, 2 * min(cdf_x, sf_x_minus))


# -- calibrate -----------------------------------------------------------------

def check_calibrate(command: Command, out_dir: Path, findings: Findings) -> None:
    scenario, policy, M = command.scenario, command.policies[0], command.M
    stem = out_dir / f"calibration_{policy}_T{scenario.T}"
    record = json.loads(stem.with_suffix(".json").read_text())
    findings.expect((record["policy"], record["K"], record["T"], record["M"], record["alpha"])
                    == (policy, scenario.K, scenario.T, M, ALPHA),
                    f"header {record['policy']}, K={record['K']}, T={record['T']}, "
                    f"M={record['M']}, alpha={record['alpha']}")
    C = record["critical_value"]
    ci = record["critical_value_ci95"]
    lower_rank = max(int(stats.binom.ppf(0.025, M, 1 - ALPHA)), 1)
    upper_rank = min(int(stats.binom.ppf(0.975, M, 1 - ALPHA)) + 1, M)
    findings.expect(list(ci["ranks"]) == [lower_rank, upper_rank],
                    f"interval ranks {ci['ranks']} != binomial quantiles "
                    f"{[lower_rank, upper_rank]}")
    findings.expect(ci["lower"] <= C <= ci["upper"],
                    f"C={C:.4f} outside its interval [{ci['lower']:.4f}, {ci['upper']:.4f}]")

    se = (ci["upper"] - ci["lower"]) / (2 * ndtri(0.975))
    if scenario.K == 1 and policy in PUBLISHED_C_TWO_ARM:
        _expect_published_c(findings, policy, C, se, M)
    findings.expect(abs(record["z_mean"]) <= Z_LIMIT * record["z_sd"] / math.sqrt(M),
                    f"z_mean={record['z_mean']:.4f} is not 0 within {Z_LIMIT} s.e. "
                    f"(sd {record['z_sd']:.3f}, M={M}); the rule treats both arms alike")

    edges, counts = [], []
    with Path(f"{stem}_hist.csv").open() as fh:
        for row in csv.DictReader(fh):
            edges.append((float(row["bin_left"]), float(row["bin_right"])))
            counts.append(int(row["count"]))
    findings.expect(sum(counts) == M, f"histogram counts sum to {sum(counts)}, not M={M}")
    # The nearest-rank percentile and the interval ends are order statistics
    # of the histogrammed values, so the bins must hold them at their ranks.
    cumulative = np.cumsum(counts)
    rank = math.ceil((1 - ALPHA) * M)
    for name, value, r in (("C", C, rank), ("lower", ci["lower"], lower_rank),
                           ("upper", ci["upper"], upper_rank)):
        j = next((i for i, (a, b) in enumerate(edges) if a <= value < b), len(edges) - 1)
        before = int(cumulative[j - 1]) if j else 0
        findings.expect(before < r <= int(cumulative[j]),
                        f"{name}={value:.4f} is not order statistic {r} of the histogram "
                        f"(bin holds ranks {before + 1}..{int(cumulative[j])})")


def _expect_published_c(findings: Findings, policy: str, C: float, se: float, M: int) -> None:
    target = PUBLISHED_C_TWO_ARM[policy]
    se_published = se * math.sqrt(M / M_PUBLISHED)
    tol = Z_LIMIT * math.hypot(se, se_published)
    findings.expect(abs(C - target) <= tol,
                    f"C[{policy}]={C:.4f} vs published {target} (tolerance {tol:.3f}: "
                    f"s.e. {se:.4f} at M={M}, published s.e. {se_published:.4f})")


# -- simulate ------------------------------------------------------------------

def check_simulate(command: Command, out_dir: Path, findings: Findings) -> None:
    scenario, M = command.scenario, command.M
    K, T = scenario.K, scenario.T
    with (out_dir / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    expected = [(p, h) for p in command.policies for h in scenario.hypotheses]
    got = [(r["policy"], r["hypothesis"]) for r in rows]
    findings.expect(got == expected, f"results rows {got} != {expected}")
    criticals = json.loads((out_dir / "critical_values.json").read_text())
    rank = math.ceil((1 - ALPHA) * M)
    for row in rows:
        policy, label = row["policy"], row["hypothesis"]
        tag = f"{policy} {label}"
        C = float(row["C_alpha"])
        findings.expect(criticals.get(policy) == C,
                        f"{tag}: critical_values.json {criticals.get(policy)} != C_alpha {C!r}")
        findings.expect(int(row["M"]) == M, f"{tag}: M={row['M']}, asked for {M}")
        rejections = round(float(row["rejection_rate"]) * M)
        e_pstar, e_outcome = float(row["e_pstar"]), float(row["e_outcome"])
        noise_se = 1.0 / math.sqrt(T * M)  # mean of M trial-mean noise terms, sigma=1

        if policy == "FR":
            reference = analytic_critical(K)
            findings.expect(abs(C - reference) <= (1e-4 if K == 1 else 2e-3),
                            f"{tag}: FR tested at C={C:.5f}, analytic value {reference:.5f}")
        elif K == 1 and T == 116 and policy in PUBLISHED_C_TWO_ARM and label == "H0":
            _expect_published_c(findings, policy, C, percentile_se(C, K, M), M)

        if label == "H0":
            if policy == "FR":
                law = stats.binom(M, ALPHA)
            else:
                law = stats.betabinom(M, M + 1 - rank, rank)
            p = _two_sided(law.cdf(rejections), law.sf(rejections - 1))
            findings.expect(p >= P_LIMIT, f"{tag}: {rejections}/{M} rejections under H0 "
                            f"at alpha={ALPHA} (p={p:.2g})")
            findings.expect(abs(e_outcome) <= Z_LIMIT * noise_se + 1e-6,
                            f"{tag}: EO={e_outcome:.6f} under H0, s.e. {noise_se:.4f}")
            continue

        if K == 1:
            # Each trial's mean outcome is DELTA * (share on arm 1) plus the
            # mean of its T noise variates, whatever the allocations.
            gap = e_outcome - DELTA * e_pstar
            findings.expect(abs(gap) <= Z_LIMIT * noise_se + 2e-6,
                            f"{tag}: EO - {DELTA} Ep* = {gap:.6f}, s.e. {noise_se:.4f}")
        if policy == "FR":
            power = fr_power(T, K, C)
            law = stats.binom(M, power)
            p = _two_sided(law.cdf(rejections), law.sf(rejections - 1))
            findings.expect(p >= P_LIMIT, f"{tag}: {rejections}/{M} rejections, "
                            f"binomial-mixture power {power:.4f} (p={p:.2g})")
        if policy in FAVOUR_BEST:
            findings.expect(e_pstar > 1.0 / (K + 1),
                            f"{tag}: Ep*={e_pstar:.4f} not above 1/(K+1)")
        if K == 3 and T == 302:
            _expect_four_arm(findings, tag, policy, row, M, C)

    if command.bias:
        for policy in command.policies:
            for label in scenario.hypotheses:
                _check_bias(findings, out_dir / f"bias_{policy}_{label}.csv", policy, label, K, T, M)
    for policy in command.policies:
        for label in scenario.hypotheses:
            for r in range(command.traces):
                _check_trace(findings, out_dir, f"trace_{policy}_{label}_r{r}", K, T)


def _expect_four_arm(findings, tag, policy, row, M, C) -> None:
    target = PUBLISHED_FOUR_ARM.get((policy, "power"))
    if target is not None:
        power = float(row["rejection_rate"])
        # The calibrated C is itself an estimate; its error moves the power
        # by at most the density of Z under H1 (<= 1/sqrt(2 pi) for sd >= 1).
        c_effect = percentile_se(C, 3, M) / math.sqrt(2 * math.pi)
        tol = Z_LIMIT * math.sqrt(target * (1 - target) * (1 / M + 1 / M_PUBLISHED)
                                  + c_effect ** 2)
        findings.expect(abs(power - target) <= tol,
                        f"{tag}: power={power:.4f} vs published {target} (tolerance {tol:.3f})")
    target = PUBLISHED_FOUR_ARM.get((policy, "EO"))
    if target is not None:
        eo, sd = float(row["e_outcome"]), float(row["sd_outcome"])
        tol = Z_LIMIT * sd * math.sqrt(1 / M + 1 / M_PUBLISHED)
        findings.expect(abs(eo - target) <= tol,
                        f"{tag}: EO={eo:.4f} vs published {target} (tolerance {tol:.3f})")


def _check_bias(findings, path: Path, policy, label, K, T, M) -> None:
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    tag = f"{path.name}"
    findings.expect([(int(r["arm"]), int(r["t"])) for r in rows]
                    == [(a, t) for a in range(K + 1) for t in range(K + 2, T + 1)],
                    f"{tag}: rows are not arms 0..{K} by t={K + 2}..{T}")
    if policy == "FR":
        # Allocation ignores outcomes, so each running mean is unbiased with
        # variance 1/n given its count n; every arm has a patient from the
        # initial round, so every replicate counts at every t.
        worst = 0.0
        for r in rows:
            t, bias, count = int(r["t"]), float(r["mean_bias"]), int(r["count"])
            findings.expect(count == M, f"{tag}: count {count} != M at t={t}")
            se = math.sqrt(inverse_count_mean(t, K) / M)
            worst = max(worst, abs(bias) / se)
        findings.expect(worst <= Z_BIAS, f"{tag}: FR bias reaches {worst:.2f} s.e. (limit {Z_BIAS})")
    if policy == "GI" and label == "H0":
        final = [float(r["mean_bias"]) for r in rows if int(r["t"]) == T]
        findings.expect(all(b < 0 for b in final),
                        f"{tag}: final GI bias under H0 {final} is not negative")


def _check_trace(findings, out_dir: Path, stem: str, K, T) -> None:
    with (out_dir / f"{stem}.csv").open() as fh:
        rows = [(int(r["t"]), int(r["arm"]), float(r["outcome"])) for r in csv.DictReader(fh)]
    with (out_dir / f"{stem}_arms.csv").open() as fh:
        summary = [(int(r["arm"]), int(r["n"]), float(r["mean"])) for r in csv.DictReader(fh)]
    findings.expect([t for t, _, _ in rows] == list(range(1, T + 1)), f"{stem}: t is not 1..{T}")
    findings.expect(sorted(a for _, a, _ in rows[:K + 1]) == list(range(K + 1)),
                    f"{stem}: the first {K + 1} patients do not cover every arm once")
    findings.expect([a for a, _, _ in summary] == list(range(K + 1)), f"{stem}: arms listed")
    findings.expect(sum(n for _, n, _ in summary) == T, f"{stem}: counts do not sum to T={T}")
    for arm, n, mean in summary:
        outcomes = [y for _, a, y in rows if a == arm]
        findings.expect(n == len(outcomes), f"{stem}: arm {arm} n={n}, rows {len(outcomes)}")
        if outcomes:
            recomputed = sum(outcomes) / len(outcomes)
            findings.expect(abs(mean - recomputed) <= 1e-9 * max(1.0, abs(mean)),
                            f"{stem}: arm {arm} mean {mean!r} != {recomputed!r} from its rows")


def check_command(command: Command, out_dir: Path, label: str) -> list[str]:
    """Failure messages for one command's outputs (empty when all checks pass)."""
    findings = Findings(label)
    try:
        if command.verb == "calibrate":
            check_calibrate(command, out_dir, findings)
        else:
            check_simulate(command, out_dir, findings)
    except (OSError, KeyError, ValueError) as exc:
        findings.expect(False, f"unreadable output: {exc!r}")
    return findings.failures
