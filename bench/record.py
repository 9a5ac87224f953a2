"""Record a BENCH file: the benchmark run on two commits, in alternated pairs.

    python3 bench/record.py --base REF [--head REF] --label LABEL

Each commit is unpacked with ``git archive`` into a tree of its own in a
temporary directory, removed at the end.  For every workload of
``BENCHMARK.json`` the script runs its command

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

unchanged (S is ``BENCHMARK.json``'s ``run_seconds``), as a subprocess from
the root of each tree, and reads the JSON on its last line.  A pair is one
run on each tree at one seed; the first, third, ... of the ``PAIRS`` pairs
run the base first and the others the head first, so that neither tree
always runs on a machine the other has just warmed or loaded.

It also times ``simulate --preset four-arm-t302 -M 10000 --workers 2`` on a
warm table cache, in ``BIG_PAIRS`` alternated pairs: wall time, the peak RSS
of the command's own process and of its largest worker, and the sha256 of
its ``results.csv``.  No ``perfbench/`` workload reaches TS at (K=3, T=302),
which is most of that command's time.

It writes ``BENCH_<label>.json`` in the current directory: the machine (Python,
numpy and scipy versions, numpy's SIMD dispatch, ``nproc``, and the load
average and steal ticks at start and end), every run's end-to-end metrics,
and for each metric the head/base ratio of every pair, their median, the
base's interquartile range and the pairs won each way.  A metric of
``BENCHMARK.json`` whose base interquartile range, over the base median,
exceeds its bound is marked unresolved: its pairs cannot tell a change of
that size from the machine's spread.  Nothing here is a speed claim unless
the ratios say so against the base's own spread.

A run whose JSON reads ``correct: false`` or ``failed > 0`` keeps the
``FAILED ...`` lines it printed.  Each command they name is rerun on both
trees at its round seed, its argv rebuilt by ``perfbench/workloads.py`` and
its output checked by ``perfbench/checks.py``, both read from the tree and
left unchanged.  When both trees write byte-identical files and fail the
same checks, and every failed check is a published critical value, the
failure is labelled the known ``_expect_published_c`` flake: that check
rejects correct calibrations now and then, whatever the program's version.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# alternated pairs per workload, and of the four-arm M=10^4 command
PAIRS = 10
BIG_PAIRS = 5
# the perfbench --seed of the first pair; pair i runs at FIRST_SEED + i
FIRST_SEED = 3101
BIG_COMMAND = ("simulate", "--preset", "four-arm-t302", "-M", "10000", "--seed", "7",
               "--workers", "2")
BIG_METRICS = {"wall_s": "lower", "parent_peak_rss_mb": "lower",
               "children_peak_rss_mb": "lower"}
# runs one CLI command in-process, then prints its own and its reaped
# workers' peak RSS (MB) as the last line
RUSAGE_WRAPPER = """
import json, resource, sys
from bandit_trials import cli
code = cli.main(sys.argv[1:])
peak = lambda who: resource.getrusage(who).ru_maxrss / 1024.0
print(json.dumps({"exit_code": code, "parent_peak_rss_mb": peak(resource.RUSAGE_SELF),
                  "children_peak_rss_mb": peak(resource.RUSAGE_CHILDREN)}))
"""
# perfbench/run.py's line for each failed check or command of a run
FAILED_LINE = re.compile(r"FAILED round \d+ \(seed (\d+)\) command (\d+): ")
# the message of perfbench/checks.py's _expect_published_c
PUBLISHED_C = re.compile(r"C\[\w+\]=\S+ vs published ")
# runs command INDEX of workload NAME at round seed SEED from the root of a
# tree, as perfbench/child.py does, then prints its exit code and the checks
# it fails as the last line
RERUN_WRAPPER = """
import json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from bandit_trials import cli
from checks import check_command
from workloads import WORKLOADS
name, index, seed, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
workload = WORKLOADS[name]
command = workload.commands[index]
code = cli.main(command.argv(seed, workload.workers, out))
failed = check_command(command, Path(out), "rerun") if code == 0 else []
print(json.dumps({"exit_code": code, "failed_checks": failed}))
"""


def unpack(ref: str, dest: Path) -> str:
    """``git archive`` of ``ref`` into ``dest``; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=REPO,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO,
                             check=True, capture_output=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def machine() -> dict:
    """What the numbers were measured on, read without changing anything."""
    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    if hasattr(os, "sched_getaffinity"):
        info["usable_cpus"] = len(os.sched_getaffinity(0))
    try:
        from numpy.lib._utils_impl import _opt_info
        info["simd"] = _opt_info()
    except ImportError:
        pass
    try:  # the aggregate cpu line: user nice system idle iowait irq softirq steal
        with open("/proc/stat") as fh:
            info["steal_ticks"] = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return info


def perfbench_run(tree: Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict:
    """One run of ``BENCHMARK.json``'s command in ``tree``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = {"seed": seed, "exit_code": proc.returncode}
    try:
        result.update(json.loads(lines[-1]))
        result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        result["stderr_tail"] = proc.stderr[-2000:]
    if result.get("correct") is False or result.get("failed", 0) > 0:
        result["failed_lines"] = [line for line in proc.stderr.splitlines()
                                  if line.startswith("FAILED ")]
    return result


def outputs_sha256(out: Path) -> str:
    """One digest of every file under ``out``: its path and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def rerun(trees: dict[str, Path], workload: str, index: int, seed: int, work: Path) -> dict:
    """Command ``index`` of ``workload`` at round seed ``seed``, rerun on
    every tree: its exit code, the checks it fails and its output digest,
    and whether the failure is the known ``_expect_published_c`` flake."""
    result = {"workload": workload, "command": index, "round_seed": seed}
    for name, tree in trees.items():
        out = work / f"rerun-{name}"
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run([sys.executable, "-c", RERUN_WRAPPER, workload, str(index),
                               str(seed), str(out)], cwd=tree, capture_output=True, text=True)
        try:
            result[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result[name] = {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
        result[name]["outputs_sha256"] = outputs_sha256(out) if out.is_dir() else None
        shutil.rmtree(out, ignore_errors=True)
    runs = [result[name] for name in trees]
    result["outputs_identical"] = len({run["outputs_sha256"] for run in runs}) == 1
    failed = [run.get("failed_checks") for run in runs]
    result["same_checks_fail"] = bool(failed[0]) and all(f == failed[0] for f in failed)
    result["known_flake"] = ("_expect_published_c" if result["outputs_identical"]
                             and result["same_checks_fail"]
                             and all(PUBLISHED_C.search(f) for f in failed[0]) else None)
    return result


def big_run(tree: Path, cache: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), BANDIT_TRIALS_TABLE_DIR=str(cache))
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RUSAGE_WRAPPER, *BIG_COMMAND,
                           "--out-dir", str(out)], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    result = {"exit_code": proc.returncode}
    if proc.returncode == 0:
        usage = json.loads(proc.stdout.strip().splitlines()[-1])
        result["exit_code"] = usage.pop("exit_code")
        result["metrics"] = {"wall_s": wall, **usage}
        result["results_csv_sha256"] = hashlib.sha256(
            (out / "results.csv").read_bytes()).hexdigest()
    else:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def warm(tree: Path, cache: Path, out: Path) -> None:
    """Build the four-arm index table into ``cache`` with one GI replicate."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), BANDIT_TRIALS_TABLE_DIR=str(cache))
    subprocess.run([sys.executable, "-m", "bandit_trials.cli", "simulate", "--preset",
                    "four-arm-t302", "--policies", "GI", "--hypotheses", "H0",
                    "--critical-values", "analytic", "-M", "1", "--workers", "1",
                    "--out-dir", str(out)], cwd=tree, env=env, check=True,
                   capture_output=True)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(pairs: list[dict], metrics: dict[str, str],
            bounds: dict[str, float] | None = None) -> dict:
    """Per metric: head/base ratios per pair, their median, the base's IQR
    (absolute and over its median), the pairs won each way and, for a metric
    with a bound, whether the base's relative IQR exceeds it (unresolved)."""
    summary = {}
    for name, better in metrics.items():
        pairs_ok = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
                    if "metrics" in p["base"] and "metrics" in p["head"]]
        if not pairs_ok:
            continue
        ratios = [head / base if base else float("nan") for base, head in pairs_ok]
        base_values = [base for base, _ in pairs_ok]
        q1, q3 = quartiles(base_values)
        head_wins = sum((head < base) if better == "lower" else (head > base)
                        for base, head in pairs_ok)
        base_wins = sum((base < head) if better == "lower" else (base > head)
                        for base, head in pairs_ok)
        summary[name] = {
            "better": better,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "base_median": statistics.median(base_values),
            "head_median": statistics.median(head for _, head in pairs_ok),
            "base_iqr": q3 - q1,
            "base_iqr_relative": (q3 - q1) / statistics.median(base_values),
            "pairs_head_better": head_wins,
            "pairs_base_better": base_wins,
            "pairs": len(pairs_ok),
        }
        if bounds and name in bounds:
            summary[name]["bound"] = bounds[name]
            summary[name]["unresolved"] = summary[name]["base_iqr_relative"] > bounds[name]
    return summary


def alternated(trees: dict[str, Path], index: int):
    """The (name, tree) order of pair ``index``: base first on even indices."""
    order = ["base", "head"] if index % 2 == 0 else ["head", "base"]
    return [(name, trees[name]) for name in order]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="commit measured against")
    parser.add_argument("--head", default="HEAD", help="commit measured")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        work = Path(tmp)
        trees = {"base": work / "base", "head": work / "head"}
        commits = {name: unpack(getattr(args, name), tree) for name, tree in trees.items()}
        record = {"label": args.label, "commits": commits,
                  "command": " ".join(bench["command"]) + " --workload W --seed N "
                             f"--seconds {seconds:g} --trace 0",
                  "machine_start": machine(), "workloads": {}}

        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                pair = {"seed": seed, "order": [name for name, _ in alternated(trees, i)]}
                for name, tree in alternated(trees, i):
                    pair[name] = perfbench_run(tree, bench["command"], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {pair[name].get('metrics')}" for name in ("base", "head")),
                    file=sys.stderr, flush=True)
            failed = sorted({(int(m[1]), int(m[2])) for pair in pairs for name in trees
                             for m in map(FAILED_LINE.match, pair[name].get("failed_lines", ()))
                             if m})
            reruns = [rerun(trees, workload, index, seed, work) for seed, index in failed]
            for found in reruns:
                print(f"{workload} round seed {found['round_seed']} command {found['command']}"
                      f" rerun: outputs identical {found['outputs_identical']}, same checks"
                      f" fail {found['same_checks_fail']}, known flake {found['known_flake']}",
                      file=sys.stderr, flush=True)
            record["workloads"][workload] = {"pairs": pairs, "reruns": reruns,
                                             "summary": compare(pairs, metrics, bounds)}

        caches = {name: work / f"cache-{name}" for name in trees}
        for name, tree in trees.items():
            warm(tree, caches[name], work / f"warm-{name}")
        pairs = []
        for i in range(BIG_PAIRS):
            pair = {"order": [name for name, _ in alternated(trees, i)]}
            for name, tree in alternated(trees, i):
                pair[name] = big_run(tree, caches[name], work / f"big-{name}")
            pairs.append(pair)
            print(f"four-arm M=10^4 pair {i}: " + ", ".join(
                f"{name} {pair[name].get('metrics')}" for name in ("base", "head")),
                file=sys.stderr, flush=True)
        hashes = {p[name].get("results_csv_sha256") for p in pairs for name in trees}
        record["four_arm_m10000"] = {
            "command": " ".join(BIG_COMMAND) + ", warm table cache",
            "pairs": pairs, "summary": compare(pairs, BIG_METRICS),
            "results_csv_identical": len(hashes) == 1 and None not in hashes}

    record["machine_end"] = machine()
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
