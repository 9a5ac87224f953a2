"""Benchmark of bandit-trials: replicate throughput of calibration and simulation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  One run:

1. times the workload's set-up SETUP_REPEATS times, each in a fresh process
   (import plus cache warming) into a fresh table cache, and keeps the last;
2. measures whole rounds of the workload's CLI commands for S seconds in one
   fresh child process (see ``child.py``);
3. checks every command's output files (see ``checks.py``);
4. prints, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` (commands) and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Working files go to ``.perfbench/`` under the checkout and are removed when
every check passes.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _child(args: list[str], timeout: float) -> float:
    """Run one child.py step in a fresh interpreter; returns its wall time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                   check=True, timeout=max(timeout, 1.0))
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bandit_trials" / "cli.py").is_file():
        print(f"no bandit_trials sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    flag = ["--trace"] if traced else []
    run_dir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    try:
        setup_times = []
        repeats = 1 if traced else SETUP_REPEATS
        for i in range(repeats):  # the last set-up's cache is the one measured
            work = run_dir / ("work" if i == repeats - 1 else f"setup{i}")
            work.mkdir(parents=True)
            setup_times.append(_child(["setup", str(work / "setup.json"), str(work),
                                       workload.name, *flag], remaining()))
        work = run_dir / "work"
        setup = json.loads((work / "setup.json").read_text())
        if any(setup["exit_codes"]):
            print(f"set-up commands failed: exit codes {setup['exit_codes']}; "
                  f"see {work}/warm*.log", file=sys.stderr)
            return 1
        _child(["measure", str(work / "measure.json"), str(work), workload.name,
                str(args.seed), str(args.seconds), *flag], remaining())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    measured = json.loads((work / "measure.json").read_text())

    from checks import check_command

    attempted = failed = 0
    failures: list[str] = []
    wrong_output = False
    for round_index, rnd in enumerate(measured["rounds"]):
        for entry in rnd["commands"]:
            attempted += 1
            label = f"round {round_index} (seed {rnd['seed']}) command {entry['index']}"
            if entry["exit_code"] != 0:
                failed += 1
                failures.append(f"{label}: exit code {entry['exit_code']}; "
                                f"argv {' '.join(entry['argv'])}")
                continue
            found = check_command(workload.commands[entry["index"]], Path(entry["out_dir"]), label)
            if found:
                failed += 1
                wrong_output = True
                failures.extend(found)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    if traced:
        from tracing import metric_units

        layers = dict(measured["layers"])
        for name, value in setup["layers"].items():
            if name.startswith("gittins."):
                layers[name] += value   # the set-up's table build, paid once per run
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units().items()}
        if measured["absent"]:
            print(f"absent layers (reported as 0): {', '.join(measured['absent'])}")
    else:
        rounds = measured["rounds"]
        print("setup_s " + " ".join(f"{t:.3f}" for t in setup_times)
              + "; rounds wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds)
              + "; cpu_s " + " ".join(f"{r['cpu_s']:.3f}" for r in rounds), file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "trials_per_s": {"value": statistics.median(r["trials"] / r["wall_s"] for r in rounds),
                             "unit": "trials/s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    if not failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not wrong_output, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
