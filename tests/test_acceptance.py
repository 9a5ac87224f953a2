"""Acceptance gate: the published operating characteristics, at M=10^4
(criterion 8: 10^5).

Each criterion reports one pass/fail line (echoed in the terminal summary).
Seeds are fixed constants from conftest; tolerances are stated inline.  The
last test compares every line and value of the session with
``acceptance_baseline.json`` bit for bit.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from bandit_trials import policies
from bandit_trials.engine import run_replicates, run_trial
from bandit_trials.inference import calibrate_critical_value, fwer_critical_value, sample_size
from bandit_trials.operating import aggregate, bias_trajectories
from bandit_trials.policies import PolicySpec, tp_probabilities, ts_probabilities

from .conftest import (
    ACCEPT_SEED,
    ACCEPTANCE,
    LFC,
    M_FULL,
    NULL4,
    WORKERS,
    four_arm,
    running_means,
    two_arm,
)
from .test_gittins import ORACLE_D09


BASELINE = Path(__file__).with_name("acceptance_baseline.json")
TPB_RUN = "TPB four-arm H1-LFC T=64 M=512: sha256 of z, counts, mean outcome"


def check(criterion, checks, records=None):
    """Record one line for the criterion; fail if any sub-check failed.

    Each check is (passed, text), or from ``within`` (passed, text, record).
    ``records`` maps the names of other values the line reports to their
    full-precision values, which the baseline also compares.
    """
    ok = all(passed for passed, *_ in checks)
    detail = "; ".join(text for _, text, *_ in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    ACCEPTANCE.append({"criterion": criterion, "pass": ok, "line": line,
                       "within": [check[2] for check in checks if len(check) == 3],
                       "records": {name: float(value) for name, value in (records or {}).items()}})
    print(line)
    assert ok, line


def within(name, value, target, tol):
    passed = abs(value - target) <= tol
    return (passed, f"{name}={value:.4f} (target {target} ± {tol})",
            {"name": name, "value": float(value), "target": target, "tolerance": tol,
             "pass": bool(passed)})


@pytest.fixture(scope="session")
def four_arm_criticals(table995):
    """T=302 calibrated critical values, reused by criteria 6 and 7."""
    criticals = {}
    for i, kind in enumerate(("CG", "CUC", "KLU", "GI", "TP", "UCB")):
        replicates = run_replicates(four_arm(kind, NULL4), table995, ACCEPT_SEED + 210 + i,
                                    M_FULL, workers=WORKERS)
        criticals[kind] = calibrate_critical_value(replicates, 0.05).value
    return criticals


def test_criterion_1_sample_sizes():
    t2 = sample_size(1, 1.0, 0.545, 1.645, 0.10)
    t4 = sample_size(3, 1.0, 0.545, 2.0621, 0.10)
    check(1, [(t2 == 116, f"two-arm T={t2} (target 116)"),
              (t4 == 302, f"four-arm T={t4} (target 302)")])


def test_criterion_2_analytic_fwer():
    c1 = fwer_critical_value(1, 0.05).value
    c3 = fwer_critical_value(3, 0.05).value
    check(2, [within("C(K=1)", c1, 1.6449, 0.001),
              within("C(K=3)", c3, 2.0621, 0.005)])


def test_criterion_3_fixed_randomisation_row(fr2_h0, fr2_h1):
    oc0 = aggregate(fr2_h0, 1.645)
    oc1 = aggregate(fr2_h1, 1.645)
    check(3, [within("alpha", oc0.rejection_rate, 0.0510, 0.007),
              within("power", oc1.rejection_rate, 0.8996, 0.010),
              within("Ep*", oc1.e_pstar, 0.4997, 0.010),
              within("EO", oc1.e_outcome, 0.2718, 0.005)])


def test_criterion_4_gittins_row(gi2_calibration, gi2_h1):
    critical, replicates = gi2_calibration
    oc1 = aggregate(gi2_h1, 1.951)
    check(4, [within("C", critical.value, 1.951, 0.05),
              within("Z sd", replicates.z[:, 0].std(ddof=1), 1.37, 0.05),
              within("power", oc1.rejection_rate, 0.237, 0.02),
              within("Ep*", oc1.e_pstar, 0.879, 0.02),
              within("EO", oc1.e_outcome, 0.480, 0.015)])


def test_criterion_5_two_arm_critical_values(table995):
    targets = {"TS": 1.701, "TSB": 1.676, "RBI": 1.998, "RGI": 1.941,
               "UCB": 2.068, "KLU": 1.867, "CB": 1.782}
    checks = []
    for i, (kind, target) in enumerate(targets.items()):
        replicates = run_replicates(two_arm(kind, 0.0), table995, ACCEPT_SEED + 110 + i,
                                    M_FULL, workers=WORKERS)
        critical = calibrate_critical_value(replicates, 0.05)
        checks.append(within(f"C[{kind}]", critical.value, target, 0.06))
    check(5, checks)


@pytest.mark.slow
@pytest.mark.parametrize("offset, kind, target", [(700, "RBI", 1.998), (701, "RGI", 1.941)])
def test_criterion_5_converged_bumped_rules(table995, offset, kind, target):
    """The converged C of the semi-randomised rules lies inside criterion 5's
    band: the distribution-free 95% interval from 10^6 null replicates on a
    seed of its own (minutes; run with -m slow)."""
    replicates = run_replicates(two_arm(kind, 0.0), table995, ACCEPT_SEED + offset, 10**6,
                                workers=WORKERS)
    critical = calibrate_critical_value(replicates, 0.05)
    lower, upper = critical.ci95["lower"], critical.ci95["upper"]
    print(f"C[{kind}] converged: {critical.value:.4f} [{lower:.4f}, {upper:.4f}]")
    assert target - 0.06 <= lower and upper <= target + 0.06


def test_criterion_6_four_arm_rows(table995, four_arm_criticals):
    runs = {}
    for i, kind in enumerate(("CG", "CUC", "KLU", "GI", "TP")):
        scenario = four_arm(kind, LFC)
        replicates = run_replicates(scenario, table995, ACCEPT_SEED + 230 + i, M_FULL,
                                    workers=WORKERS)
        runs[kind] = aggregate(replicates, four_arm_criticals[kind])
    check(6, [within("CG power", runs["CG"].rejection_rate, 0.8667, 0.015),
              within("CG EO", runs["CG"].e_outcome, 0.3392, 0.010),
              within("CUC power", runs["CUC"].rejection_rate, 0.9599, 0.010),
              within("KLU power", runs["KLU"].rejection_rate, 0.8718, 0.015),
              within("GI Ep*", runs["GI"].e_pstar, 0.7743, 0.02),
              within("TP power", runs["TP"].rejection_rate, 0.9418, 0.010)])


def test_criterion_7_rare_disease_reused_criticals(table995, four_arm_criticals):
    def rare(kind, mu, critical, seed):
        scenario = four_arm(kind, mu, T=64)
        return aggregate(run_replicates(scenario, table995, seed, M_FULL, workers=WORKERS),
                         critical)

    fr = rare("FR", LFC, 2.0621, ACCEPT_SEED + 301)
    cg = rare("CG", LFC, four_arm_criticals["CG"], ACCEPT_SEED + 302)
    gi = rare("GI", LFC, four_arm_criticals["GI"], ACCEPT_SEED + 303)
    ucb = rare("UCB", NULL4, four_arm_criticals["UCB"], ACCEPT_SEED + 304)
    check(7, [within("FR power", fr.rejection_rate, 0.2975, 0.015),
              within("CG power", cg.rejection_rate, 0.3806, 0.015),
              within("GI EO", gi.e_outcome, 0.3585, 0.015),
              within("UCB alpha", ucb.rejection_rate, 0.0444, 0.007)])


def test_criterion_8_critical_value_sweep(table995):
    # Error model of the gap check.  Each C(T) is the nearest-rank 95th
    # percentile of M_SWEEP null replicates; its standard error is read off
    # the distribution-free order-statistic 95% interval the calibrated value
    # carries (width / (2 z_0.975)), and se_gap combines the two
    # independent UCB calibrations.  The published 0.08 is itself a difference
    # of two percentiles estimated from M_PUBLISHED replicates each, so it
    # carries the same per-replicate spread at that smaller count: se_ref =
    # se_gap sqrt(M_SWEEP / M_PUBLISHED).  The gap fails only when it falls
    # short of 0.08 by more than the one-sided 5% margin on the combined
    # error.  The margin depends on M_SWEEP only through se_gap, which shrinks
    # as replicates are added, so more replicates cannot turn a pass into a
    # fail.  The monotone and FR-range checks take the values as they are.
    M_SWEEP = 100_000
    M_PUBLISHED = 10_000
    ucb, ucb_se, fr = {}, {}, {}
    for T in (64, 116, 302):
        replicates = run_replicates(four_arm("UCB", NULL4, T=T), table995,
                                    ACCEPT_SEED + 400 + T, M_SWEEP, workers=WORKERS)
        critical = calibrate_critical_value(replicates, 0.05)
        ucb[T] = critical.value
        ci = critical.ci95
        ucb_se[T] = (ci["upper"] - ci["lower"]) / (2 * ndtri(0.975))
    for T in (64, 116, 302):
        replicates = run_replicates(four_arm("FR", NULL4, T=T), table995,
                                    ACCEPT_SEED + 500 + T, M_SWEEP, workers=WORKERS)
        fr[T] = calibrate_critical_value(replicates, 0.05).value
    gap = ucb[302] - ucb[64]
    se_gap = math.hypot(ucb_se[302], ucb_se[64])
    se_ref = se_gap * math.sqrt(M_SWEEP / M_PUBLISHED)
    threshold = 0.08 - ndtri(0.95) * math.hypot(se_gap, se_ref)
    fr_range = max(fr.values()) - min(fr.values())
    check(8, [
        (ucb[64] < ucb[116] < ucb[302],
         f"UCB C increasing: {ucb[64]:.4f} < {ucb[116]:.4f} < {ucb[302]:.4f}"),
        (gap >= threshold,
         f"UCB C(302)-C(64)={gap:.4f} (s.e. {se_gap:.4f}; target 0.08 with s.e. "
         f"{se_ref:.4f} at M={M_PUBLISHED}: pass if >= {threshold:.4f})"),
        (fr_range < 0.05, f"FR range={fr_range:.4f} (target < 0.05)"),
    ], records={"UCB C(64)": ucb[64], "UCB C(116)": ucb[116], "UCB C(302)": ucb[302],
                "UCB C(302)-C(64)": gap})


def test_criterion_9_bias_trajectories(fr2_h0, gi2_calibration,
                                       gi2_h1, rgi2_h1):
    gi_bias_at_end = [float(b) for b in bias_trajectories(gi2_calibration[1])[:, -1]]

    stacked = running_means(fr2_h0)
    fr_ok = True
    worst = 0.0
    for arm, mean_bias in enumerate(bias_trajectories(fr2_h0)):
        sd = np.nanstd(stacked[:, arm, 2:], axis=0)
        excess = np.abs(mean_bias) - 3 * sd / math.sqrt(fr2_h0.M)
        worst = max(worst, float(excess.max()))
        fr_ok &= bool(np.all(excess < 0))

    gi_inferior = float(bias_trajectories(gi2_h1)[0, -1])
    rgi_inferior = float(bias_trajectories(rgi2_h1)[0, -1])

    check(9, [
        (all(b <= -0.02 for b in gi_bias_at_end),
         f"GI H0 bias at T: {gi_bias_at_end[0]:.4f}, {gi_bias_at_end[1]:.4f} (<= -0.02)"),
        (fr_ok, f"FR |bias| within 3 MC s.e. at all t (max excess {worst:+.4f})"),
        (abs(rgi_inferior) < abs(gi_inferior),
         f"inferior-arm H1 bias |RGI|={abs(rgi_inferior):.4f} < |GI|={abs(gi_inferior):.4f}"),
    ], records={"GI H0 bias at T, arm 0": gi_bias_at_end[0],
                "GI H0 bias at T, arm 1": gi_bias_at_end[1],
                "|RGI| inferior-arm H1 bias": abs(rgi_inferior),
                "|GI| inferior-arm H1 bias": abs(gi_inferior)})


def test_criterion_10_property_suites(table995, table09, monkeypatch):
    checks = []

    vals = table995.values
    checks.append((bool(np.all(vals > 0) and np.all(np.diff(vals) < 0)),
                   "index table positive and strictly decreasing"))
    oracle_ok = all(abs(table09.values[n - 1] - v) <= 2e-4 for n, v in ORACLE_D09.items())
    checks.append((oracle_ok, "fine-grid oracle agreement at n in {1,2,5,10,50}"))

    # selection shift-invariance under common random numbers: shifting every
    # true mean by a constant shifts every outcome by that constant
    from bandit_trials.engine import TrialScenario
    shift_ok = True
    for kind in ("GI", "UCB", "CB"):
        base = TrialScenario(mu=(0.0, 0.545), sigma=1.0, T=60, policy=PolicySpec(kind))
        moved = TrialScenario(mu=(2.5, 0.545 + 2.5), sigma=1.0, T=60, policy=PolicySpec(kind))
        a = run_trial(base, table995, seed=(ACCEPT_SEED + 601, 0))
        b = run_trial(moved, table995, seed=(ACCEPT_SEED + 601, 0))
        shift_ok &= bool(np.array_equal(a.allocations, b.allocations))
    checks.append((shift_ok, "common-shift outcome streams select identical arms"))

    with monkeypatch.context() as patch:
        patch.setattr(policies, "BATCH", 1)
        a = run_trial(two_arm("TSB", 0.545, T=50), None, seed=(ACCEPT_SEED + 602, 0))
    b = run_trial(two_arm("TS", 0.545, T=50), None, seed=(ACCEPT_SEED + 602, 0))
    checks.append((bool(np.array_equal(a.allocations, b.allocations)),
                   "batch of 1 replays the unbatched rule"))

    conserve_ok = True
    for kind in ("FR", "TS", "RBI", "RGI", "UCB", "KLU", "CB", "GI"):
        record = run_trial(two_arm(kind, 0.545, T=41), table995,
                           seed=(ACCEPT_SEED + 603, 0))
        conserve_ok &= record.counts.sum() == 41
    checks.append((conserve_ok, "patient conservation across policies"))

    rng = np.random.default_rng(ACCEPT_SEED + 604)
    sums4, counts4 = np.array([rng.normal() for _ in range(4)]), np.full(4, 5)
    ts = ts_probabilities(sums4, counts4, 1.0, 40, 100)
    tp = tp_probabilities(sums4, counts4, 1.0, 40, 100)
    norm_ok = (abs(ts.sum() - 1) < 1e-12 and np.all(ts >= 0)
               and abs(tp.sum() - 1) < 1e-12 and np.all(tp >= 0))
    checks.append((norm_ok, "probability vectors normalized"))

    scenario = two_arm("GI", 0.545, T=40)
    serial = run_replicates(scenario, table995, ACCEPT_SEED + 605, 20, workers=1, traces=20)
    parallel = run_replicates(scenario, table995, ACCEPT_SEED + 605, 20,
                              workers=max(2, WORKERS), traces=20)
    same = (np.array_equal(serial.allocations, parallel.allocations)
            and np.array_equal(serial.outcomes, parallel.outcomes))
    checks.append((same, "worker-count invariant replicates"))

    check(10, checks)


def tpb_digest():
    """The TPB_RUN digest: TPB refreshes once per batch, and no criterion reads it."""
    replicates = run_replicates(four_arm("TPB", LFC, T=64), None, ACCEPT_SEED + 801, 512,
                                workers=WORKERS)
    digest = hashlib.sha256()
    for array, dtype in ((replicates.z, "<f8"), (replicates.counts, "<i8"),
                         (replicates.mean_outcome, "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def session_records():
    """This session's values in BASELINE's layout: each criterion's line and
    its ``within`` values and records, then the TPB digest."""
    criteria = {str(entry["criterion"]): {
        "line": entry["line"],
        "values": {**{w["name"]: w["value"] for w in entry["within"]}, **entry["records"]},
    } for entry in ACCEPTANCE}
    return {"criteria": criteria, "digests": {TPB_RUN: tpb_digest()}}


def _flat(records):
    flat = {}
    for number, criterion in records["criteria"].items():
        flat[f"criterion {number} line"] = criterion["line"]
        for name, value in criterion["values"].items():
            flat[f"criterion {number} {name}"] = value
    flat.update(records["digests"])
    return flat


def baseline_changes(old, new):
    """One line per value that differs between two record sets, old → new."""
    old, new = _flat(old), _flat(new)
    keys = list(old) + [key for key in new if key not in old]
    return [f"{key}: {old.get(key, '(absent)')!r} → {new.get(key, '(absent)')!r}"
            for key in keys if old.get(key) != new.get(key)]


def test_acceptance_baseline():
    # runs after every criterion of the module; a value that moves on purpose
    # is rewritten by tests/regenerate_acceptance_baseline.py
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    changes = baseline_changes(baseline, session_records())
    assert not changes, "acceptance values moved:\n" + "\n".join(changes)
