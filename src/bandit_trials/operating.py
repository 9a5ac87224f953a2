"""Aggregation of replicates into reported operating characteristics.

Both reductions read ``engine.Replicates``: the per-replicate arrays and bias
sums that each block of replicates was reduced to where it ran.

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
from .inference import CriticalValue

__all__ = [
    "OperatingCharacteristics",
    "BiasTrajectory",
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


@dataclass(frozen=True)
class BiasTrajectory:
    """Mean running-estimate bias of one arm against patient count."""

    arm: int
    t_grid: np.ndarray
    mean_bias: np.ndarray
    replicate_counts: np.ndarray


def _best_arm(scenario: TrialScenario) -> int:
    # Under the global null the control is the convention for "best".
    if scenario.is_global_null:
        return 0
    return int(np.argmax(scenario.mu))


def aggregate(replicates: Replicates,
              critical: CriticalValue | float) -> OperatingCharacteristics:
    """Reduce replicates to rejection rates, E p*, and expected outcome."""
    scenario = replicates.scenario
    c = critical.value if isinstance(critical, CriticalValue) else float(critical)
    M = replicates.M
    pstar = replicates.counts[:, _best_arm(scenario)] / scenario.T
    outcome = replicates.mean_outcome
    global_rate = float(np.mean(replicates.z.max(axis=1) > c))

    if scenario.is_global_null:
        rejection = global_rate
    else:
        margin_arm = 1 + int(np.argmax(scenario.mu[1:]))  # arm with the target effect
        rejection = float(np.mean(replicates.z[:, margin_arm - 1] > c))

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


def bias_trajectories(replicates: Replicates) -> list[BiasTrajectory]:
    """Per-arm mean bias of the running estimate, from patient K+2 to T.

    Requires replicates simulated with ``keep_trajectory=True``.
    """
    if replicates.bias_sums is None:
        raise ValueError("replicates carry no bias sums; "
                         "rerun them with keep_trajectory=True")
    scenario = replicates.scenario
    t_grid = np.arange(scenario.K + 2, scenario.T + 1)
    counts = np.full(t_grid.size, replicates.M)
    return [BiasTrajectory(arm=arm, t_grid=t_grid,
                           mean_bias=replicates.bias_sums[arm] / counts - scenario.mu[arm],
                           replicate_counts=counts)
            for arm in range(scenario.K + 1)]


RESULT_COLUMNS = ("policy", "hypothesis", "C_alpha", "rejection_rate",
                  "global_rejection_rate", "e_pstar", "sd_pstar", "e_outcome",
                  "sd_outcome", "M", "seed", "rejection_rate_se",
                  "global_rejection_rate_se", "e_pstar_se", "e_outcome_se")


def write_results_csv(rows: list[dict], path: str | Path) -> Path:
    """One row per (policy, hypothesis): rates at 6 decimals, C at full precision.

    The last four columns are the Monte Carlo standard errors of the two
    rejection rates, E p* and the expected outcome (``OperatingCharacteristics``).
    """
    path = Path(path)
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        lines.append(",".join((
            row["policy"],
            row["hypothesis"],
            repr(float(row["C_alpha"])),
            f"{row['rejection_rate']:.6f}",
            f"{row['global_rejection_rate']:.6f}",
            f"{row['e_pstar']:.6f}",
            f"{row['sd_pstar']:.6f}",
            f"{row['e_outcome']:.6f}",
            f"{row['sd_outcome']:.6f}",
            str(int(row["M"])),
            str(int(row["seed"])),
            f"{row['rejection_rate_se']:.6f}",
            f"{row['global_rejection_rate_se']:.6f}",
            f"{row['e_pstar_se']:.6f}",
            f"{row['e_outcome_se']:.6f}",
        )))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_bias_csv(trajectories: list[BiasTrajectory], path: str | Path) -> Path:
    path = Path(path)
    lines = ["arm,t,mean_bias,count"]
    for traj in trajectories:
        for t, bias, count in zip(traj.t_grid, traj.mean_bias, traj.replicate_counts):
            lines.append(f"{traj.arm},{t},{bias:.6f},{count}")
    path.write_text("\n".join(lines) + "\n")
    return path
