"""The benchmark's child processes, each started fresh by ``run.py``.

``child.py setup OUT_JSON WORKDIR WORKLOAD [--trace]``
    imports the package and runs the workload's cache-warming commands
    (the set-up that ``setup_s`` times from outside).

``child.py measure OUT_JSON WORKDIR WORKLOAD SEED SECONDS [--trace]``
    runs whole rounds of the workload's commands through
    ``bandit_trials.cli.main`` until SECONDS have passed and records each
    round's wall time, CPU time and exit codes.  With ``--trace`` every round
    is run twice on the same seed, untraced and then traced; the difference
    is the tracing overhead, and the traced rounds give the per-layer
    metrics.  Outputs are left in WORKDIR for ``checks.py``.

The table cache is ``WORKDIR/cache`` when the workload warms one.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_DIR_ENV = "BANDIT_TRIALS_TABLE_DIR"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run_cli(cli, argv: list[str], log_path: Path) -> int:
    """One CLI command, its output sent to ``log_path``; returns the exit code."""
    with log_path.open("w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    return int(code or 0)


def setup(workload, workdir: Path, traced: bool) -> dict:
    import bandit_trials.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    if traced:
        tracer.install()
    os.environ[TABLE_DIR_ENV] = str(workdir / "cache")
    codes = [run_cli(cli, list(argv) + ["--out-dir", str(workdir / f"warm{i}")],
                     workdir / f"warm{i}.log")
             for i, argv in enumerate(workload.warm_cache)]
    tracer.uninstall()
    return {"exit_codes": codes, "layers": tracer.metrics() if traced else None}


def _round(cli, workload, seed: int, round_dir: Path) -> dict:
    round_dir.mkdir(parents=True)
    commands = []
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    for i, command in enumerate(workload.commands):
        out_dir = round_dir / f"c{i}"
        argv = command.argv(seed, workload.workers, str(out_dir))
        code = run_cli(cli, argv, round_dir / f"c{i}.log")
        commands.append({"index": i, "argv": argv, "out_dir": str(out_dir), "exit_code": code})
    return {
        "seed": seed,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": _cpu_seconds() - cpu0,
        "trials": workload.trials_per_round,
        "commands": commands,
    }


def measure(workload, workdir: Path, seed: int, seconds: float, traced: bool) -> dict:
    import bandit_trials.cli as cli
    from tracing import Tracer, metric_units
    from workloads import round_seed

    if workload.warm_cache:
        os.environ[TABLE_DIR_ENV] = str(workdir / "cache")
    else:
        os.environ.pop(TABLE_DIR_ENV, None)
    rounds, traced_rounds, layer_rounds = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        s = round_seed(seed, index)
        rounds.append(_round(cli, workload, s, workdir / f"r{index}"))
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                traced_rounds.append(_round(cli, workload, s, workdir / f"r{index}t"))
            finally:
                tracer.uninstall()
            layers = tracer.metrics()
            layers["trace.overhead_s"] = traced_rounds[-1]["wall_s"] - rounds[-1]["wall_s"]
            layer_rounds.append(layers)
        index += 1
        if time.perf_counter() - start >= seconds:
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = {"rounds": rounds + traced_rounds, "peak_rss_mb": max(own, workers)}
    if traced:
        layers = {name: statistics.fmean(r.get(name, 0.0) for r in layer_rounds)
                  for name in metric_units()}
        layers["trace.overhead_s"] = statistics.median(r["trace.overhead_s"] for r in layer_rounds)
        layers["engine.worker_peak_rss_mb"] = workers
        result["layers"] = layers
        result["absent"] = tracer.absent
    return result


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    mode, out_json, workdir, workload = argv[0], Path(argv[1]), Path(argv[2]), WORKLOADS[argv[3]]
    traced = "--trace" in argv
    if mode == "setup":
        result = setup(workload, workdir, traced)
    else:
        result = measure(workload, workdir, int(argv[4]), float(argv[5]), traced)
    out_json.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
