"""Layer tracing installed from outside the package.

``Tracer.install`` wraps the public functions of each layer (the modules of
``bandit_trials``) and patches every name under which the package looks
them up: the defining module and every module that imported the name, such
as ``engine``'s and ``cli``'s bindings.  A spanned function records
(name, start, end, parent, info) per call; a counted function, called once
per patient decision, only bumps a counter.  Spans stay in memory until
``metrics`` reduces them.  Calls made inside pool workers are not seen.

A target that the package no longer defines is reported in ``absent`` and
its metrics read 0; it does not fail the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "bandit_trials"

SPANNED = (
    "gittins.compute_index_table",
    "gittins.load_index_table",
    "gittins.save_index_table",
    "engine.run_replicates",
    "engine.write_trace_csv",
    "policies.ts_probabilities",
    "policies.tp_probabilities",
    "policies.BatchedPolicy.probabilities",
    "inference.calibrate_critical_value",
    "inference.fwer_critical_value",
    "operating.aggregate",
    "operating.bias_trajectories",
    "operating.write_results_csv",
    "operating.write_bias_csv",
    "cli.main",
)
COUNTED = (
    "policies.select_from_scores",
    "policies.sample_from_probabilities",
    "policies.guarded_allocate",
)

# (rule, K) pairs that some workload simulates; see workloads.py.
PATIENT_RULES = tuple((rule, 1) for rule in ("FR", "GI", "RGI", "RBI", "UCB", "KLU", "CB",
                                             "TS", "TSB")) \
    + tuple((rule, 3) for rule in ("CG", "CUC", "FR", "TS", "TSB", "TP", "TPB"))

MIB = 1024.0 * 1024.0


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units: dict[str, str] = {
        "gittins.compute_index_table.s": "s",
        "gittins.compute_index_table.calls": "count",
        "gittins.load_index_table.s": "s",
        "gittins.load_index_table.calls": "count",
        "gittins.save_index_table.s": "s",
        "engine.run_replicates.s": "s",
        "engine.run_replicates.trials": "count",
    }
    for rule, k in PATIENT_RULES:
        units[f"engine.us_per_patient.{rule}.k{k}"] = "us"
    units.update({
        "engine.records_mb": "MB_computed",
        "engine.worker_peak_rss_mb": "MB",
        "engine.write_trace_csv.s": "s",
        "policies.ts_probabilities.calls": "count",
        "policies.ts_probabilities.s": "s",
        "policies.ts_probabilities.us_per_call": "us",
        "policies.tp_probabilities.calls": "count",
        "policies.tp_probabilities.s": "s",
        "policies.BatchedPolicy.probabilities.calls": "count",
        "policies.batch_refreshes": "count",
        "policies.select_from_scores.calls": "count",
        "policies.sample_from_probabilities.calls": "count",
        "policies.guarded_allocate.calls": "count",
        "inference.calibrate_critical_value.s": "s",
        "inference.calibrate_critical_value.self_s": "s",
        "inference.fwer_critical_value.s": "s",
        "operating.aggregate.s": "s",
        "operating.bias_trajectories.s": "s",
        "operating.write_results_csv.s": "s",
        "operating.write_bias_csv.s": "s",
        "cli.main.s": "s",
        "cli.self_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def array_bytes(obj, depth: int = 0) -> int:
    """Bytes held in numpy arrays reachable from ``obj`` (lists, dicts, dataclasses)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 4:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(item, depth + 1) for item in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(item, depth + 1) for item in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), depth + 1) for f in dataclasses.fields(obj))
    return 0


def _replicates_info(fn):
    signature = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = signature.bind_partial(*args, **kwargs).arguments
        scenario = bound.get("scenario")
        return {
            "rule": getattr(getattr(scenario, "policy", None), "kind", None),
            "K": getattr(scenario, "K", None),
            "T": getattr(scenario, "T", None),
            "M": bound.get("M"),
            "bytes": array_bytes(result),
        }
    return info


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index, info]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target in SPANNED + COUNTED:
            module_name, _, attr_path = target.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            if target in COUNTED:
                wrapper = self._counter(target, original)
            else:
                on_return = _replicates_info(original) if target == "engine.run_replicates" else None
                wrapper = self._spanner(target, original, on_return)
            if owner_name:  # a method: patch the class
                self._patch(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if (name == PACKAGE or name.startswith(PACKAGE + ".")) \
                        and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanner(self, label, fn, on_return):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_return is not None:
                spans[index][4] = on_return(args, kwargs, result)
            return result
        return wrapper

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced so far (``trace.overhead_s``,
        and ``engine.worker_peak_rss_mb`` are filled in by the caller)."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)   # span index -> time covered by direct children
        refreshes = 0
        patients = defaultdict(float)
        patient_time = defaultdict(float)
        records_bytes = 0
        for name, start, end, parent, info in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += duration
                if name in ("policies.ts_probabilities", "policies.tp_probabilities") \
                        and self.spans[parent][0] == "policies.BatchedPolicy.probabilities":
                    refreshes += 1
            if info is not None:
                records_bytes += info["bytes"]
                if info["rule"] is not None and info["M"] and info["T"]:
                    key = (info["rule"], info["K"])
                    patients[key] += info["M"] * info["T"]
                    patient_time[key] += duration
        self_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]

        trials = sum(info["M"] or 0 for name, *_, info in self.spans
                     if name == "engine.run_replicates" and info is not None)
        ts_calls = calls["policies.ts_probabilities"]
        out = {
            "gittins.compute_index_table.s": total["gittins.compute_index_table"],
            "gittins.compute_index_table.calls": calls["gittins.compute_index_table"],
            "gittins.load_index_table.s": total["gittins.load_index_table"],
            "gittins.load_index_table.calls": calls["gittins.load_index_table"],
            "gittins.save_index_table.s": total["gittins.save_index_table"],
            "engine.run_replicates.s": total["engine.run_replicates"],
            "engine.run_replicates.trials": trials,
        }
        for rule, k in PATIENT_RULES:
            n = patients[(rule, k)]
            out[f"engine.us_per_patient.{rule}.k{k}"] = \
                1e6 * patient_time[(rule, k)] / n if n else 0.0
        out.update({
            "engine.records_mb": records_bytes / MIB,
            "engine.write_trace_csv.s": total["engine.write_trace_csv"],
            "policies.ts_probabilities.calls": ts_calls,
            "policies.ts_probabilities.s": total["policies.ts_probabilities"],
            "policies.ts_probabilities.us_per_call":
                1e6 * total["policies.ts_probabilities"] / ts_calls if ts_calls else 0.0,
            "policies.tp_probabilities.calls": calls["policies.tp_probabilities"],
            "policies.tp_probabilities.s": total["policies.tp_probabilities"],
            "policies.BatchedPolicy.probabilities.calls":
                calls["policies.BatchedPolicy.probabilities"],
            "policies.batch_refreshes": refreshes,
            "policies.select_from_scores.calls": self.counts["policies.select_from_scores"],
            "policies.sample_from_probabilities.calls":
                self.counts["policies.sample_from_probabilities"],
            "policies.guarded_allocate.calls": self.counts["policies.guarded_allocate"],
            "inference.calibrate_critical_value.s": total["inference.calibrate_critical_value"],
            "inference.calibrate_critical_value.self_s":
                self_time["inference.calibrate_critical_value"],
            "inference.fwer_critical_value.s": total["inference.fwer_critical_value"],
            "operating.aggregate.s": total["operating.aggregate"],
            "operating.bias_trajectories.s": total["operating.bias_trajectories"],
            "operating.write_results_csv.s": total["operating.write_results_csv"],
            "operating.write_bias_csv.s": total["operating.write_bias_csv"],
            "cli.main.s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
        })
        return out
