"""Command-line front end: tables, calibration, scenario sweeps, sample size.

Subcommands
-----------
table       get a standardized index table (the DP settings are the
            ``gittins`` module constants), from the cache as every command
            does, and write it as CSV
calibrate   Monte Carlo critical value of one design under the global null,
            at one trial size or several (``--T 64,116,302``)
simulate    operating-characteristics sweep over policies and hypotheses
samplesize  equal-randomisation trial size for target power

A scenario (a bundled preset, or a ``--config`` JSON object that may start
from one through ``preset``) states each setting once, under the keys in
``CONFIG_KEYS``; any other key is an error, so a misspelt setting is never
ignored.  K is the length of the hypotheses minus one: every hypothesis
lists the same number of means, at least two, control first.  ``calibrate``
and ``simulate`` take the one-sided alpha from the scenario config
(``alpha``, default 0.05) and calibrate through one path: simulate null
replicates, then reduce them with ``calibrate_critical_value``.  Bad input
fails before any work: counts (``-M``, ``--workers``, ``--traces``,
``--seed``, and M >= 100 where a command calibrates), every trial size and
scenario, a policy, hypothesis or trial size listed twice, a hypothesis
label that would make a file name over 255 bytes, and a critical-value
file's entries.

Index tables are cached per (discount, n_max) in $BANDIT_TRIALS_TABLE_DIR
when that variable is set.  A command reuses only the file of its own
discount and n_max whose recorded DP settings are the program's; the file
keeps every value losslessly, so a cached run matches a cold one byte for
byte.  Every command is deterministic given its ``--seed``, whatever the
cache holds; replicate streams are derived per policy, hypothesis (its
position in the scenario) and trial size, so adding policies or selecting
hypotheses does not perturb the others.  ``calibrate`` passes all its trial
sizes, and ``simulate`` every rule's calibration and hypothesis runs, to the
engine in one call (``engine.run_together``), which decides which of them
share stepping blocks, runs them on one pool of at most ``--workers``
worker processes and yields each run, in order, once it is stepped.  The
command reduces, writes and prints each run as it comes.  No output depends
on which runs share a block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import Run, TrialScenario, run_together, write_trace_csv
from .gittins import (GittinsTable, GittinsTableError, compute_index_table, dp_settings,
                      load_index_table, save_index_table)
from .inference import (MIN_CALIBRATION_M, CriticalValue, calibrate_critical_value,
                        fwer_critical_value, sample_size)
from .operating import aggregate, write_bias_csv, write_results_csv
from .policies import POLICY_KINDS, PolicySpec

TABLE_DIR_ENV = "BANDIT_TRIALS_TABLE_DIR"
PRESET_NAMES = ("two-arm-t116", "four-arm-t302", "rare-t64")
# every key a scenario config may hold; name and description are free text
CONFIG_KEYS = ("preset", "name", "description", "T", "sigma", "alpha", "discount",
               "policies", "hypotheses", "reuse_critical_values_from")


def load_preset(name: str) -> dict:
    """Load a bundled scenario preset by name."""
    if not isinstance(name, str):
        raise ValueError(f"preset name must be a string, got {json.dumps(name)}")
    fname = name.replace("-", "_") + ".json"
    try:
        text = resources.files("bandit_trials.presets").joinpath(fname).read_text()
    except FileNotFoundError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return json.loads(text)


def _table_file_name(discount: float, n_max: int) -> str:
    # repr round-trips, so each discount has a name of its own
    return f"gittins_d{discount!r}_n{n_max}.csv"


def get_table(discount: float, n_max: int) -> GittinsTable:
    """Fetch the cached (discount, n_max) index table or compute (and cache) it.

    Only the file of exactly this discount and n_max, recording the DP
    settings ``gittins.dp_settings(discount)``, is used; it holds every value
    losslessly, so a cached table is the build it replaces, bit for bit.  A
    file that is missing, damaged, or records other settings (or none) is
    rebuilt.
    """
    cache_dir = os.environ.get(TABLE_DIR_ENV)
    if not cache_dir:
        return compute_index_table(discount, n_max)
    path = Path(cache_dir) / _table_file_name(discount, n_max)
    try:
        table = load_index_table(path)
    except GittinsTableError:
        pass  # a missing or damaged file is a miss
    else:
        if table.discount == discount and table.n_max == n_max \
                and table.dp_meta == dp_settings(discount):
            return table
    table = compute_index_table(discount, n_max)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write aside, then rename: concurrent runs never see a partial table
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        save_index_table(table, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return table


def _derived_seed(master_seed: int, *scope) -> int:
    """Stable 63-bit sub-seed for one (policy, hypothesis, purpose) run."""
    entropy = (int(master_seed),) + tuple(int(s) for s in scope)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0] >> 1)


def _scenario(preset: dict, kind: str, mu, T: int) -> TrialScenario:
    return TrialScenario(
        mu=tuple(mu),
        sigma=float(preset.get("sigma", 1.0)),
        T=T,
        policy=PolicySpec(kind),
    )


def _check_number(name: str, value, integer: bool) -> None:
    """Reject a config value of the wrong JSON type (true and false are not numbers)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or integer and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {json.dumps(value)}")


def _load_scenario_source(args) -> dict:
    if getattr(args, "config", None):
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        if "preset" in cfg:
            preset = load_preset(cfg["preset"])
            preset.update({k: v for k, v in cfg.items() if k != "preset"})
            cfg = preset
    else:
        cfg = load_preset(args.preset)
    unknown = [key for key in cfg if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"scenario config sets unknown {', '.join(map(repr, unknown))}; "
                         f"its keys are {', '.join(CONFIG_KEYS)}")
    missing = [key for key in ("T", "hypotheses", "policies") if key not in cfg]
    if missing:
        raise ValueError(f"scenario config lacks {', '.join(missing)}")
    if not isinstance(cfg["hypotheses"], dict) or not cfg["hypotheses"]:
        raise ValueError("scenario config needs 'hypotheses': a non-empty map of label to means")
    if not isinstance(cfg["policies"], list) or not cfg["policies"] \
            or not all(isinstance(kind, str) for kind in cfg["policies"]):
        raise ValueError("scenario policies must be a list of one or more policy names")
    for key, integer in (("T", True), ("sigma", False), ("discount", False)):
        if key in cfg:
            _check_number(f"scenario {key}", cfg[key], integer)
    # the first hypothesis fixes the arm count K+1, control first
    hypotheses = cfg["hypotheses"]
    first = next(iter(hypotheses))
    n_arms = len(hypotheses[first]) if isinstance(hypotheses[first], list) else 0
    if n_arms < 2:
        raise ValueError(f"hypothesis {first!r} must list two or more arm means, control first")
    for label, mu in hypotheses.items():
        # a label is a field of results.csv and a part of file names; an
        # empty label splits into no lines
        if label.splitlines() != [label] or any(char in label for char in ',"/\\\0'):
            raise ValueError(f"hypothesis label {json.dumps(label)} must be non-empty and hold "
                             "no comma, double quote, line break, slash, backslash or NUL")
        if not isinstance(mu, list) or len(mu) != n_arms:
            raise ValueError(f"hypothesis {label!r} must list {n_arms} arm means, "
                             f"as {first!r} does")
        for mean in mu:
            _check_number(f"hypothesis {label!r}'s mean", mean, integer=False)
    alpha = cfg.get("alpha", 0.05)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise ValueError(f"scenario alpha must be a number in (0, 1), got {alpha!r}")
    cfg["alpha"] = float(alpha)
    # the index table's discount, the only one the GI-family rules read
    cfg["discount"] = float(cfg.get("discount", 0.995))
    if not 0.0 <= cfg["discount"] < 1.0:
        raise ValueError(f"scenario discount must lie in [0, 1), got {cfg['discount']}")
    # the preset it names, loaded in every mode so a misspelt name fails before any work
    source = cfg.get("reuse_critical_values_from")
    if source is not None:
        cfg["reuse_critical_values_from"] = load_preset(source)
    return cfg


def _null_scenario(preset: dict, kind: str, T: int) -> TrialScenario:
    """``kind`` at trial size T under the scenario's first hypothesis, which
    calibration requires to be a global null."""
    label, mu = next(iter(preset["hypotheses"].items()))
    scenario = _scenario(preset, kind, mu, T)
    if not scenario.is_global_null:
        raise ValueError(f"hypothesis {label!r} is not a global null; cannot calibrate")
    return scenario


def cmd_table(args) -> int:
    table = get_table(args.discount, args.n_max)
    out = Path(args.out or _table_file_name(args.discount, args.n_max))
    save_index_table(table, out)
    print(f"wrote {out} ({table.n_max} rows, discount={table.discount})")
    return 0


def cmd_samplesize(args) -> int:
    critical = fwer_critical_value(args.k, args.alpha)
    total = sample_size(args.k, args.sigma, args.delta, critical.value, args.beta)
    per_arm = total / (args.k + 1)
    print(f"T = {total}")
    print(f"  K={args.k} experimental arms + control, sigma={args.sigma}, "
          f"one-sided alpha={args.alpha}, power={1 - args.beta:.2f} "
          f"for effect {args.delta}")
    print(f"  family-wise critical value C = {critical.value:.4f}")
    print(f"  about {per_arm:.1f} patients per arm under equal randomisation")
    return 0


def _scenario_table(preset: dict, kinds, T: int):
    if not any(PolicySpec(k).needs_table for k in kinds):
        return None
    return get_table(preset["discount"], max(T, int(preset["T"])))


def _calibration_run(args, scenario: TrialScenario) -> Run:
    """The null run of a ``_null_scenario``, seeded per (policy, T)."""
    seed = _derived_seed(args.seed, POLICY_KINDS.index(scenario.policy.kind), 0, scenario.T)
    return Run(scenario, seed, args.replicates)


def _check_distinct(what: str, items: list) -> None:
    """Reject a list that names an entry twice: it would rerun the same work."""
    repeated = [str(item) for item in dict.fromkeys(items) if items.count(item) > 1]
    if repeated:
        raise ValueError(f"{what} {', '.join(repeated)} listed more than once")


def cmd_calibrate(args) -> int:
    _check_calibration_size(args.replicates)
    preset = _load_scenario_source(args)
    kind = args.policy.upper()
    sizes = args.T or [int(preset["T"])]
    _check_distinct("trial size", sizes)
    # every trial size is checked before the table is built or a file written
    scenarios = [_null_scenario(preset, kind, T) for T in sizes]
    table = _scenario_table(preset, [kind], max(scenario.T for scenario in scenarios))
    # histogram bins of the statistic: [-6, 6] in steps of 0.2, with overflow bins
    edges = np.concatenate(([-np.inf], np.round(np.arange(-6.0, 6.0 + 0.1, 0.2), 10), [np.inf]))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = [_calibration_run(args, scenario) for scenario in scenarios]
    results = run_together(runs, table, workers=args.workers)
    # strict reads the results to the end, so the engine joins its pool
    for scenario, run, replicates in zip(scenarios, runs, results, strict=True):
        T = scenario.T
        seed = run.master_seed
        critical = calibrate_critical_value(replicates, preset["alpha"])
        stats = replicates.z.max(axis=1)  # Z, or max Z for K > 1
        z_sd = float(stats.std(ddof=1))
        record = {
            "policy": kind,
            "K": scenario.K,
            "T": T,
            "M": args.replicates,
            "alpha": critical.alpha,
            "critical_value": critical.value,
            "critical_value_ci95": critical.ci95,
            "z_mean": float(stats.mean()),
            "z_sd": z_sd,
            "seed": seed,
        }
        json_path = out_dir / f"calibration_{kind}_T{T}.json"
        json_path.write_text(json.dumps(record, indent=2) + "\n")
        hist_path = out_dir / f"calibration_{kind}_T{T}_hist.csv"
        counts, _ = np.histogram(stats, bins=edges)
        lines = ["bin_left,bin_right,count"]
        lines += [f"{edges[i]},{edges[i + 1]},{counts[i]}" for i in range(counts.size)]
        hist_path.write_text("\n".join(lines) + "\n")
        print(f"{kind}: C_{{{critical.alpha}}} = {critical.value:.4f} "
              f"(statistic sd {z_sd:.3f}); wrote {json_path} and {hist_path}",
              flush=True)
    return 0


def _calibration_size(preset: dict, T: int) -> int:
    """Trial size of the calibration: the referenced preset's, if any (rare-t64)."""
    source = preset.get("reuse_critical_values_from")
    return int(source["T"]) if source is not None else T


def _file_criticals(path: str, kinds, alpha: float) -> dict[str, CriticalValue]:
    """Each policy's value from a critical-value file, every entry checked."""
    mapping = json.loads(Path(path).read_text())
    if not isinstance(mapping, dict):
        raise ValueError(f"critical-value file {path} must hold a JSON object")
    criticals = {}
    for kind in kinds:
        value = mapping.get(kind)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"critical-value file {path} has no numeric entry for {kind}")
        criticals[kind] = CriticalValue(float(value), alpha)
    return criticals


def _output_names(kind: str, label: str, traced: int) -> tuple[str, list[tuple[str, str]]]:
    """``simulate``'s bias file name, and the (trace, arms) names of replicates 0..traced-1."""
    stem = f"{kind}_{label}"
    return f"bias_{stem}.csv", [(f"trace_{stem}_r{r}.csv", f"trace_{stem}_r{r}_arms.csv")
                                for r in range(traced)]


def cmd_simulate(args) -> int:
    preset = _load_scenario_source(args)
    kinds = [k.upper() for k in (args.policies.split(",") if args.policies else preset["policies"])]
    hypotheses = (args.hypotheses.split(",") if args.hypotheses
                  else list(preset["hypotheses"]))
    _check_distinct("policy", kinds)
    _check_distinct("hypothesis", hypotheses)
    labels = list(preset["hypotheses"])
    unknown = [label for label in hypotheses if label not in labels]
    if unknown:
        raise ValueError(f"unknown hypotheses {', '.join(unknown)}; "
                         f"the scenario has {', '.join(labels)}")
    # the longest file name of each (policy, hypothesis) fits a file system's
    # 255 bytes: a trace's, else the bias file's
    traced = min(args.traces, args.replicates)
    for kind in kinds if args.bias or traced else ():
        for label in hypotheses:
            bias_name, trace_names = _output_names(kind, label, traced)
            name = trace_names[-1][1] if traced else bias_name
            if len(name.encode()) > 255:
                raise ValueError(f"hypothesis label {label!r} is too long: file name "
                                 f"{name} would be {len(name.encode())} bytes, over 255")
    T = args.T if args.T is not None else int(preset["T"])
    alpha = preset["alpha"]
    # every scenario, calibration and critical value is checked before the
    # table is built or a file written
    scenarios = {(kind, label): _scenario(preset, kind, mu, T)
                 for kind in kinds for label, mu in preset["hypotheses"].items()
                 if label in hypotheses}
    mode = args.critical_values
    calibration_T = _calibration_size(preset, T) if mode == "calibrate" else T
    # equal randomisation keeps the contrasts on their nominal law, so FR
    # always tests at the analytic value
    null_scenarios = {kind: _null_scenario(preset, kind, calibration_T)
                      for kind in kinds if mode == "calibrate" and kind != "FR"}
    if null_scenarios:
        _check_calibration_size(args.replicates)
    fixed = {} if mode in ("analytic", "calibrate") else _file_criticals(mode, kinds, alpha)
    table = _scenario_table(preset, kinds, max(T, calibration_T))
    # FR, and every rule under ``--critical-values analytic``, tests at the
    # analytic family-wise value
    analytic = None
    if any(kind not in null_scenarios and kind not in fixed for kind in kinds):
        analytic = fwer_critical_value(next(iter(scenarios.values())).K, alpha)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each rule's calibration (label None), if it has one, then its hypotheses
    entries = []
    for kind in kinds:
        if kind in null_scenarios:
            entries.append((kind, None, _calibration_run(args, null_scenarios[kind])))
        entries += [(kind, label, Run(scenarios[kind, label], _derived_seed(
            args.seed, POLICY_KINDS.index(kind), 1 + labels.index(label), T), args.replicates,
            args.bias, args.traces)) for label in hypotheses]
    rows = []
    criticals = {kind: fixed.get(kind, analytic) for kind in kinds}
    results = run_together([run for _, _, run in entries], table, workers=args.workers)
    # strict reads the results to the end, so the engine joins its pool
    for (kind, label, run), replicates in zip(entries, results, strict=True):
        if label is None:
            criticals[kind] = calibrate_critical_value(replicates, alpha)
            continue
        oc = aggregate(replicates, criticals[kind].value)
        rows.append((kind, label, criticals[kind].value, run.master_seed, oc))
        bias_name, trace_names = _output_names(kind, label, traced)
        if args.bias:
            write_bias_csv(replicates, out_dir / bias_name)
        for r, (trace_name, arms_name) in enumerate(trace_names):
            write_trace_csv(replicates, r, out_dir / trace_name, out_dir / arms_name)
        print(f"{kind} {label}: reject={oc.rejection_rate:.4f} "
              f"Ep*={oc.e_pstar:.4f} EO={oc.e_outcome:.4f}", flush=True)

    results_path = out_dir / "results.csv"
    write_results_csv(rows, results_path)
    cv_path = out_dir / "critical_values.json"
    cv_path.write_text(json.dumps({k: c.value for k, c in criticals.items()}, indent=2) + "\n")
    print(f"wrote {results_path} and {cv_path}")
    return 0


def _sizes(text: str) -> list[int]:
    return [int(size) for size in text.split(",")]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (Linux), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit-trials",
        description="Adaptive multi-armed trial simulation and test calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="build a standardized index table")
    p.add_argument("--discount", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("samplesize", help="equal-randomisation trial size")
    p.add_argument("--k", type=int, required=True, help="number of experimental arms")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True, help="target effect size")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=0.10)
    p.set_defaults(func=cmd_samplesize)

    def common(p):
        p.add_argument("--preset", choices=PRESET_NAMES, default="two-arm-t116")
        p.add_argument("--config", type=str, default=None,
                       help="JSON run config (overrides --preset)")
        p.add_argument("--replicates", "-M", type=int, default=10000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=_usable_cpus())
        p.add_argument("--out-dir", type=str, default="results")

    p = sub.add_parser("calibrate", help="empirical critical value under the global null")
    common(p)
    p.add_argument("--policy", type=str, required=True)
    p.add_argument("--T", type=_sizes, default=None,
                   help="trial size, or comma-separated sizes (default: the preset's)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="operating-characteristics sweep")
    common(p)
    p.add_argument("--policies", type=str, default=None, help="comma-separated subset")
    p.add_argument("--hypotheses", type=str, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--critical-values", type=str, default="calibrate",
                   help="'calibrate' (FR still uses the analytic value), 'analytic', "
                        "or a JSON file of per-policy values")
    p.add_argument("--bias", action="store_true", help="also write bias trajectories")
    p.add_argument("--traces", type=int, default=0, help="dump the first N replicate traces")
    p.set_defaults(func=cmd_simulate)

    return parser


def _check_counts(args) -> None:
    """Reject a bad count before the command writes a file or builds a table."""
    for flag, least in (("replicates", 1), ("workers", 1), ("traces", 0), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ValueError(f"--{flag} must be >= {least}, got {value}")


def _check_calibration_size(M: int) -> None:
    if M < MIN_CALIBRATION_M:
        raise ValueError(f"--replicates must be >= {MIN_CALIBRATION_M} to calibrate, got {M}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
