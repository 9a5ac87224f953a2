"""Aggregation of replicates into reported operating characteristics.

Every report reads ``engine.Replicates``, the per-replicate arrays and bias
sums that each block of replicates was reduced to where it ran:
``aggregate`` reduces them to one ``OperatingCharacteristics``, which
``write_results_csv`` writes as a row of results.csv, and
``bias_trajectories`` and ``write_bias_csv`` report the running-mean bias.

Conventions follow the trial's reporting layout: under the global null the
headline rejection rate is the family-wise rate P[max_k Z_k > C] (identical
to the marginal rate when K = 1); under an alternative it is the marginal
rejection rate of the arm carrying the largest true mean, with the
family-wise rate reported alongside.  The "best" arm for the allocation
proportion p* is the control under the global null, otherwise the arm with
the highest true mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Replicates, TrialScenario

__all__ = [
    "OperatingCharacteristics",
    "aggregate",
    "bias_trajectories",
    "write_results_csv",
    "write_bias_csv",
]


@dataclass(frozen=True)
class OperatingCharacteristics:
    rejection_rate: float          # type I error under H0, power under H1
    global_rejection_rate: float   # P[max_k Z_k > C]
    e_pstar: float                 # mean proportion of patients on the best arm
    sd_pstar: float
    e_outcome: float               # mean of per-trial mean patient outcome
    sd_outcome: float
    M: int

    def __post_init__(self) -> None:
        for rate in (self.rejection_rate, self.global_rejection_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rejection rates must lie in [0, 1]")
        if self.sd_pstar < 0 or self.sd_outcome < 0:
            raise ValueError("standard deviations must be non-negative")

    # Monte Carlo standard errors: binomial for the rates, sd/sqrt(M) for the means

    @property
    def rejection_rate_se(self) -> float:
        return math.sqrt(self.rejection_rate * (1.0 - self.rejection_rate) / self.M)

    @property
    def global_rejection_rate_se(self) -> float:
        return math.sqrt(self.global_rejection_rate * (1.0 - self.global_rejection_rate) / self.M)

    @property
    def e_pstar_se(self) -> float:
        return self.sd_pstar / math.sqrt(self.M)

    @property
    def e_outcome_se(self) -> float:
        return self.sd_outcome / math.sqrt(self.M)


def _best_arm(scenario: TrialScenario) -> int:
    # Under the global null the control is the convention for "best".
    if scenario.is_global_null:
        return 0
    return int(np.argmax(scenario.mu))


def aggregate(replicates: Replicates, critical: float) -> OperatingCharacteristics:
    """Reduce replicates to rejection rates, E p*, and expected outcome at
    critical value ``critical``."""
    scenario = replicates.scenario
    M = replicates.M
    pstar = replicates.counts[:, _best_arm(scenario)] / scenario.T
    outcome = replicates.mean_outcome
    global_rate = float(np.mean(replicates.z.max(axis=1) > critical))

    if scenario.is_global_null:
        rejection = global_rate
    else:
        margin_arm = 1 + int(np.argmax(scenario.mu[1:]))  # arm with the target effect
        rejection = float(np.mean(replicates.z[:, margin_arm - 1] > critical))

    ddof = 1 if M > 1 else 0
    return OperatingCharacteristics(
        rejection_rate=rejection,
        global_rejection_rate=global_rate,
        e_pstar=float(pstar.mean()),
        sd_pstar=float(pstar.std(ddof=ddof)),
        e_outcome=float(outcome.mean()),
        sd_outcome=float(outcome.std(ddof=ddof)),
        M=M,
    )


def bias_trajectories(replicates: Replicates) -> np.ndarray:
    """Mean bias of each arm's running estimate after patients K+2..T:
    a (K+1, T-K-1) array, row k for arm k.

    Requires replicates simulated with ``keep_trajectory=True``.
    """
    if replicates.bias_sums is None:
        raise ValueError("replicates carry no bias sums; "
                         "rerun them with keep_trajectory=True")
    mu = np.array(replicates.scenario.mu)
    return replicates.bias_sums / replicates.M - mu[:, None]


RESULT_COLUMNS = ("policy", "hypothesis", "C_alpha", "rejection_rate",
                  "global_rejection_rate", "e_pstar", "sd_pstar", "e_outcome",
                  "sd_outcome", "M", "seed", "rejection_rate_se",
                  "global_rejection_rate_se", "e_pstar_se", "e_outcome_se")


def write_results_csv(rows: list[tuple[str, str, float, int, OperatingCharacteristics]],
                      path: str | Path) -> Path:
    """One row per ``(policy, hypothesis, C, seed, characteristics)``: rates at
    6 decimals, C at full precision.

    The last four columns are the Monte Carlo standard errors of the two
    rejection rates, E p* and the expected outcome (``OperatingCharacteristics``).
    """
    path = Path(path)
    lines = [",".join(RESULT_COLUMNS)]
    for policy, hypothesis, critical, seed, oc in rows:
        rates = (oc.rejection_rate, oc.global_rejection_rate, oc.e_pstar, oc.sd_pstar,
                 oc.e_outcome, oc.sd_outcome)
        errors = (oc.rejection_rate_se, oc.global_rejection_rate_se, oc.e_pstar_se,
                  oc.e_outcome_se)
        lines.append(",".join((policy, hypothesis, repr(float(critical)),
                               *(f"{v:.6f}" for v in rates), str(int(oc.M)), str(int(seed)),
                               *(f"{v:.6f}" for v in errors))))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_bias_csv(replicates: Replicates, path: str | Path) -> Path:
    """``bias_trajectories`` of the replicates, one row per arm and patient
    t = K+2..T, each the mean over all M replicates."""
    path = Path(path)
    scenario = replicates.scenario
    t_grid = range(scenario.K + 2, scenario.T + 1)
    lines = ["arm,t,mean_bias,count"]
    for arm, mean_bias in enumerate(bias_trajectories(replicates)):
        lines += [f"{arm},{t},{bias:.6f},{replicates.M}" for t, bias in zip(t_grid, mean_bias)]
    path.write_text("\n".join(lines) + "\n")
    return path
