"""Aggregation of replicate traces into reported operating characteristics.

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

from .engine import TrialRecord, TrialScenario
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
    upper_bound_outcome: float     # best arm's true mean

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


def _check_same_scenario(records, scenario: TrialScenario) -> None:
    if not records:
        raise ValueError("no records to aggregate")
    for record in records:
        if record.scenario != scenario:
            raise ValueError("records from mixed scenarios cannot be aggregated together")


def _best_arm(scenario: TrialScenario) -> int:
    # Under the global null the control is the convention for "best".
    if scenario.is_global_null:
        return 0
    return int(np.argmax(scenario.mu))


def aggregate(records, scenario: TrialScenario,
              critical: CriticalValue | float) -> OperatingCharacteristics:
    """Reduce replicates to rejection rates, E p*, and expected outcome."""
    _check_same_scenario(records, scenario)
    c = critical.value if isinstance(critical, CriticalValue) else float(critical)
    M = len(records)
    T = scenario.T
    best = _best_arm(scenario)

    pstar = np.fromiter((r.arm_counts[best] / T for r in records), dtype=float, count=M)
    outcome = np.fromiter((r.outcomes.mean() for r in records), dtype=float, count=M)
    zmax = np.fromiter((r.z.zmax for r in records), dtype=float, count=M)
    global_rate = float(np.mean(zmax > c))

    if scenario.is_global_null:
        rejection = global_rate
    else:
        margin_arm = 1 + int(np.argmax(scenario.mu[1:]))  # arm with the target effect
        z_margin = np.fromiter((r.z.z[margin_arm - 1] for r in records), dtype=float, count=M)
        rejection = float(np.mean(z_margin > c))

    ddof = 1 if M > 1 else 0
    return OperatingCharacteristics(
        rejection_rate=rejection,
        global_rejection_rate=global_rate,
        e_pstar=float(pstar.mean()),
        sd_pstar=float(pstar.std(ddof=ddof)),
        e_outcome=float(outcome.mean()),
        sd_outcome=float(outcome.std(ddof=ddof)),
        M=M,
        upper_bound_outcome=float(max(scenario.mu)),
    )


def bias_trajectories(records, scenario: TrialScenario) -> list[BiasTrajectory]:
    """Per-arm mean bias of the running estimate, from patient K+2 to T.

    Requires records simulated with trajectory retention.
    """
    _check_same_scenario(records, scenario)
    if records[0].mean_trajectory is None:
        raise ValueError("records carry no mean trajectories; "
                         "rerun the replicates with keep_trajectory=True")
    start = scenario.K + 2
    t_grid = np.arange(start, scenario.T + 1)
    span = slice(start - 1, scenario.T)

    stacked_sum = np.zeros((scenario.K + 1, t_grid.size))
    counts = np.zeros((scenario.K + 1, t_grid.size), dtype=int)
    for record in records:
        window = record.mean_trajectory[:, span]
        seen = ~np.isnan(window)
        stacked_sum += np.where(seen, window, 0.0)
        counts += seen

    out = []
    for arm in range(scenario.K + 1):
        with np.errstate(invalid="ignore"):
            mean_est = stacked_sum[arm] / counts[arm]
        out.append(BiasTrajectory(
            arm=arm,
            t_grid=t_grid,
            mean_bias=mean_est - scenario.mu[arm],
            replicate_counts=counts[arm],
        ))
    return out


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
            bias_txt = "nan" if math.isnan(bias) else f"{bias:.6f}"
            lines.append(f"{traj.arm},{t},{bias_txt},{count}")
    path.write_text("\n".join(lines) + "\n")
    return path
