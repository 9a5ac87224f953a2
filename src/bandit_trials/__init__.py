"""Adaptive allocation rules and testing calibration for multi-armed trials."""

from .engine import Replicates, TrialScenario, run_replicates, run_trial
from .gittins import (
    GittinsTable,
    GittinsTableError,
    compute_index_table,
    load_index_table,
    save_index_table,
)
from .inference import (
    CriticalValue,
    calibrate_critical_value,
    fwer_critical_value,
    sample_size,
    z_statistic,
)
from .operating import OperatingCharacteristics, aggregate, bias_trajectories
from .policies import PolicySpec

__all__ = [
    "CriticalValue",
    "GittinsTable",
    "GittinsTableError",
    "OperatingCharacteristics",
    "PolicySpec",
    "Replicates",
    "TrialScenario",
    "aggregate",
    "bias_trajectories",
    "calibrate_critical_value",
    "compute_index_table",
    "fwer_critical_value",
    "load_index_table",
    "run_replicates",
    "run_trial",
    "sample_size",
    "save_index_table",
    "z_statistic",
]
