"""Command-line interface: subcommands, determinism, file outputs."""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandit_trials
from bandit_trials import cli
from bandit_trials.cli import PRESET_NAMES, build_parser, load_preset, main
from bandit_trials.engine import BLOCK, run_replicates
from bandit_trials.gittins import (DpConfig, compute_index_table, load_index_table,
                                   save_index_table)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def no_table_build(monkeypatch):
    """Fail the test if a command builds an index table."""
    def no_build(*args, **kwargs):
        raise AssertionError("index table built before bad input was rejected")

    monkeypatch.setattr(cli, "compute_index_table", no_build)
    monkeypatch.delenv("BANDIT_TRIALS_TABLE_DIR", raising=False)


def assert_one_error_line(capsys, code):
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def histogram_rows(path):
    """(bin_left, bin_right, count) text fields of a calibration histogram."""
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    return [line.split(",") for line in lines[1:]]


class TestSampleSize:
    def test_two_arm_reference(self, capsys):
        assert run_cli("samplesize", "--k", "1", "--delta", "0.545") == 0
        assert "T = 116" in capsys.readouterr().out

    def test_four_arm_reference(self, capsys):
        assert run_cli("samplesize", "--k", "3", "--delta", "0.545") == 0
        assert "T = 302" in capsys.readouterr().out

    def test_quartered_by_doubled_effect(self, capsys):
        assert run_cli("samplesize", "--k", "1", "--delta", "1.09") == 0
        assert "T = 29" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "0", "sigma must be positive and finite, got 0.0"),
        ("--sigma", "-1", "sigma must be positive and finite, got -1.0"),
        ("--sigma", "nan", "sigma must be positive and finite, got nan"),
        ("--delta", "inf", "delta1 must be positive and finite, got inf"),
    ])
    def test_meaningless_sigma_or_delta_is_one_error_line(self, capsys, flag, value, message):
        argv = {"--k": "1", "--delta": "0.5", flag: value}
        code = run_cli("samplesize", *(item for pair in argv.items() for item in pair))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


class TestTableCommand:
    def test_writes_decreasing_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run_cli("table", "--discount", "0.9", "--n-max", "25", "--out", str(out))
        assert code == 0
        table = load_index_table(out)
        assert table.n_max == 25
        assert np.all(np.diff(table.values) < 0)

    def test_myopic_table_is_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert run_cli("table", "--discount", "0", "--n-max", "5", "--out", str(out)) == 0
        assert np.array_equal(load_index_table(out).values, np.zeros(5))

    def test_oracle_fixture_via_cli(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("table", "--discount", "0.9", "--n-max", "50", "--out", str(out)) == 0
        table = load_index_table(out)
        assert table.values[49] == pytest.approx(0.030453, abs=2e-4)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_parse(self, name):
        preset = load_preset(name)
        assert len(preset["hypotheses"]) == 2
        for mu in preset["hypotheses"].values():
            assert len(mu) == preset["K"] + 1
        assert preset["T"] >= preset["K"] + 1
        assert set(preset["policies"]) <= {"FR", "TS", "TSB", "RBI", "RGI", "UCB",
                                           "KLU", "CB", "GI", "CG", "CUC", "TP", "TPB"}

    def test_rare_preset_references_large_trial(self):
        assert load_preset("rare-t64")["reuse_critical_values_from"] == "four-arm-t302"

    def test_rare_preset_reuses_large_trial_critical_values(self, tmp_path):
        rare = tmp_path / "rare"
        assert run_cli("simulate", "--preset", "rare-t64", "--policies", "UCB",
                       "--hypotheses", "H0", "-M", "200", "--seed", "7",
                       "--workers", "1", "--out-dir", str(rare)) == 0
        cal = tmp_path / "cal"
        assert run_cli("calibrate", "--preset", "four-arm-t302", "--policy", "UCB",
                       "-M", "200", "--seed", "7", "--workers", "1",
                       "--out-dir", str(cal)) == 0
        record = json.loads((cal / "calibration_UCB_T302.json").read_text())
        assert json.loads((rare / "critical_values.json").read_text())["UCB"] \
            == record["critical_value"]


class TestCalibrateCommand:
    def test_writes_json_and_histogram(self, tmp_path, capsys):
        code = run_cli("calibrate", "--policy", "CB", "--preset", "two-arm-t116",
                       "--T", "12", "--replicates", "200", "--seed", "3",
                       "--workers", "1", "--out-dir", str(tmp_path))
        assert code == 0
        record = json.loads((tmp_path / "calibration_CB_T12.json").read_text())
        assert record["policy"] == "CB" and record["M"] == 200
        assert 0 < record["critical_value"] < 6
        ci = record["critical_value_ci95"]
        assert ci["lower"] <= record["critical_value"] <= ci["upper"]
        rows = histogram_rows(tmp_path / "calibration_CB_T12_hist.csv")
        assert sum(int(row[2]) for row in rows) == 200

    def test_histogram_binning(self, tmp_path):
        assert run_cli("calibrate", "--policy", "CB", "--preset", "two-arm-t116",
                       "--T", "8", "-M", "200", "--seed", "21", "--workers", "1",
                       "--out-dir", str(tmp_path)) == 0
        rows = histogram_rows(tmp_path / "calibration_CB_T8_hist.csv")
        edges = np.array([float(row[0]) for row in rows] + [float(rows[-1][1])])
        assert sum(int(row[2]) for row in rows) == 200
        assert math.isinf(edges[0]) and math.isinf(edges[-1])
        assert np.allclose(np.diff(edges[1:-1]), 0.2)

    def test_histogram_overflow_bins(self, tmp_path, monkeypatch):
        # one statistic below -6, one above 6, the rest at 0
        def extreme(*args, **kwargs):
            replicates = run_replicates(*args, **kwargs)
            z = np.zeros_like(replicates.z)
            z[0], z[-1] = -100.0, 100.0
            return dataclasses.replace(replicates, z=z)

        monkeypatch.setattr(cli, "run_replicates", extreme)
        assert run_cli("calibrate", "--policy", "FR", "--preset", "two-arm-t116",
                       "--T", "6", "-M", "100", "--workers", "1",
                       "--out-dir", str(tmp_path)) == 0
        rows = histogram_rows(tmp_path / "calibration_FR_T6_hist.csv")
        assert rows[0] == ["-inf", "-6.0", "1"] and rows[-1] == ["6.0", "inf", "1"]
        assert ["0.0", "0.2", "98"] in rows

    def test_workers_default_to_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for command in ("calibrate --policy CB", "simulate"):
            assert build_parser().parse_args(command.split()).workers == 1

    def test_workers_default_without_affinity(self, monkeypatch):
        # os.sched_getaffinity exists only on Linux
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert build_parser().parse_args(["simulate"]).workers == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(["simulate"]).workers == 1

    def test_scenario_alpha_matches_simulate_calibration(self, tmp_path):
        # one alpha, the config's, and one calibration path for both commands
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "two-arm-t116", "alpha": 0.025}))
        common = ["--config", str(config), "--T", "20", "-M", "400", "--seed", "5",
                  "--workers", "1"]
        assert run_cli("calibrate", "--policy", "CB", *common,
                       "--out-dir", str(tmp_path / "cal")) == 0
        assert run_cli("simulate", "--policies", "CB", "--hypotheses", "H0", *common,
                       "--out-dir", str(tmp_path / "sim")) == 0
        record = json.loads((tmp_path / "cal" / "calibration_CB_T20.json").read_text())
        criticals = json.loads((tmp_path / "sim" / "critical_values.json").read_text())
        assert record["alpha"] == 0.025
        assert record["critical_value"] == criticals["CB"]

    def test_refuses_non_null_scenario(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "K": 1, "T": 10, "sigma": 1.0,
            "policies": ["CB"], "hypotheses": {"H1": [0.0, 0.5]},
        }))
        code = run_cli("calibrate", "--policy", "CB", "--config", str(config),
                       "--replicates", "200", "--out-dir", str(tmp_path))
        assert code == 1
        assert "global null" in capsys.readouterr().err

    # every trial size, the seed and the calibration's M >= 100 are checked first
    @pytest.mark.parametrize("flag, value", [("--T", "0"), ("--T", "116,0"), ("-M", "50"),
                                             ("--seed", "-1"), ("--T", "20,20")])
    def test_bad_size_is_one_error_line(self, tmp_path, capsys, no_table_build, flag, value):
        out = tmp_path / "out"
        code = run_cli("calibrate", "--preset", "two-arm-t116", "--policy", "GI", "-M", "100",
                       flag, value, "--out-dir", str(out))
        line = assert_one_error_line(capsys, code)
        assert not out.exists()
        if flag == "--seed":
            assert line == "error: --seed must be >= 0, got -1"
        if value == "20,20":
            assert line == "error: trial size 20 listed more than once"


class TestSimulateCommand:
    def test_tiny_sweep(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR,CB",
                       "--T", "12", "--replicates", "150", "--seed", "5",
                       "--workers", "1", "--out-dir", str(out))
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2 policies x 2 hypotheses
        for line in lines[1:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[3]) <= 1.0
            assert int(fields[9]) == 150
        criticals = json.loads((out / "critical_values.json").read_text())
        assert set(criticals) == {"FR", "CB"}
        assert criticals["FR"] == pytest.approx(1.6449, abs=1e-3)  # analytic for FR

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "CB",
                           "--T", "10", "--replicates", "120", "--seed", "9",
                           "--workers", "1", "--out-dir", str(out), "--bias") == 0
            outs.append(out)
        assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
        assert (outs[0] / "bias_CB_H0.csv").read_bytes() == (outs[1] / "bias_CB_H0.csv").read_bytes()

    def test_trace_dumps(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR",
                       "--hypotheses", "H0", "--T", "8", "--replicates", "120",
                       "--seed", "4", "--workers", "1", "--out-dir", str(out),
                       "--traces", "2") == 0
        trace = (out / "trace_FR_H0_r0.csv").read_text().splitlines()
        assert len(trace) == 9
        assert (out / "trace_FR_H0_r1_arms.csv").exists()

    def test_fixed_critical_values_from_file(self, tmp_path):
        cv_file = tmp_path / "cv.json"
        cv_file.write_text(json.dumps({"CB": 1.9}))
        out = tmp_path / "run"
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "CB",
                       "--hypotheses", "H0", "--T", "10", "--replicates", "100",
                       "--seed", "2", "--workers", "1", "--out-dir", str(out),
                       "--critical-values", str(cv_file)) == 0
        row = (out / "results.csv").read_text().splitlines()[1]
        assert float(row.split(",")[2]) == 1.9

    @pytest.mark.parametrize("contents, message", [
        (2.0, "must hold a JSON object"),
        ({"FR": 1.9}, "no numeric entry for CB"),
        ({"CB": None}, "no numeric entry for CB"),
    ])
    def test_invalid_critical_value_file_is_one_error_line(self, tmp_path, capsys,
                                                           contents, message):
        cv_file = tmp_path / "cv.json"
        cv_file.write_text(json.dumps(contents))
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "CB",
                       "--hypotheses", "H0", "--T", "10", "--replicates", "100",
                       "--workers", "1", "--out-dir", str(tmp_path),
                       "--critical-values", str(cv_file)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_missing_config_is_an_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                       "--out-dir", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("config, message", [
        (5, "must hold a JSON object"),
        ({"T": 20, "policies": ["FR"]}, "lacks K, hypotheses"),
        ({"K": 1, "T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0, 0.0, 0.0]}},
         "hypothesis 'H0' must list K+1=2"),
        ({"K": 1, "T": 20, "policies": ["FR"], "hypotheses": {"H0": 0.0}},
         "hypothesis 'H0' must list K+1=2"),
        ({"preset": "three-arm"}, "unknown preset 'three-arm'"),
        ({"preset": "two-arm-t116", "alpha": 0}, "alpha must be a number in (0, 1)"),
        ({"preset": "two-arm-t116", "alpha": 1.5}, "alpha must be a number in (0, 1)"),
        ({"preset": "two-arm-t116", "alpha": "0.05"}, "alpha must be a number in (0, 1)"),
        ({"K": 1, "T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0, 0.0]}, "discount": 1.5},
         "discount must lie in [0, 1)"),
        ({"preset": "two-arm-t116", "sigma": None}, "sigma must be a number, got null"),
        ({"preset": "two-arm-t116", "discount": None}, "discount must be a number, got null"),
        ({"preset": "two-arm-t116", "T": None}, "T must be an integer, got null"),
        ({"preset": "two-arm-t116", "batch": "20"}, 'batch must be an integer, got "20"'),
        ({"preset": "two-arm-t116", "policies": ["FR", 1]}, "policies must be a list"),
        ({"preset": "two-arm-t116", "hypotheses": {"H0": [0.0, None]}},
         "hypothesis 'H0''s mean must be a number, got null"),
    ])
    def test_invalid_config_is_one_error_line(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_unknown_hypothesis_is_one_error_line(self, tmp_path, capsys):
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR",
                       "--hypotheses", "H2", "-M", "10", "--workers", "1",
                       "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: unknown hypotheses H2; the scenario has H0, H1"]

    def test_single_hypothesis_row_matches_full_run(self, tmp_path):
        rows = {}
        for name, extra in (("full", []), ("h1", ["--hypotheses", "H1"])):
            out = tmp_path / name
            assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR",
                           "-M", "200", "--seed", "7", "--workers", "1",
                           "--out-dir", str(out), *extra) == 0
            rows[name] = (out / "results.csv").read_text().splitlines()
        assert len(rows["full"]) == 3 and len(rows["h1"]) == 2
        assert rows["h1"][1] == rows["full"][2]

    def test_table_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        out = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "K": 1, "T": 16, "sigma": 1.0, "discount": 0.9,
            "policies": ["GI"], "hypotheses": {"H0": [0.0, 0.0]},
        }))
        assert run_cli("simulate", "--config", str(config), "--replicates", "100",
                       "--seed", "6", "--workers", "1", "--out-dir", str(out)) == 0
        cached = list(cache.glob("gittins_d0.9_n*.csv"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert run_cli("simulate", "--config", str(config), "--replicates", "100",
                       "--seed", "6", "--workers", "1",
                       "--out-dir", str(tmp_path / "run2")) == 0
        assert cached[0].stat().st_mtime_ns == stamp  # reused, not rebuilt
        assert list(cache.iterdir()) == cached  # no temporary file left behind

    def test_damaged_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        damaged = cache / "gittins_d0.995_n116.csv"
        damaged.write_text("garbage\n")
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI",
                       "--critical-values", "analytic", "--replicates", "1", "--seed", "0",
                       "--workers", "1", "--out-dir", str(tmp_path / "run")) == 0
        table = load_index_table(damaged)
        assert table.discount == 0.995 and table.n_max == 116
        assert list(cache.iterdir()) == [damaged]  # replaced in place, nothing left aside

    def test_longer_cached_table_is_not_served(self, tmp_path, monkeypatch):
        # a longer table's leading entries differ from a shorter build's in the
        # last bits, so only the exact (discount, n_max) file is used
        cache = tmp_path / "cache"
        cache.mkdir()
        longer = save_index_table(compute_index_table(0.9, 24), cache / "gittins_d0.9_n24.csv")
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        table = cli.get_table(0.9, 16)
        assert table.n_max == 16
        assert np.array_equal(table.values, compute_index_table(0.9, 16).values)
        assert sorted(cache.iterdir()) == sorted([longer, cache / "gittins_d0.9_n16.csv"])

    @pytest.mark.parametrize("recorded", [True, False])
    def test_table_of_other_settings_is_rebuilt(self, tmp_path, monkeypatch, recorded):
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "gittins_d0.9_n16.csv"
        save_index_table(compute_index_table(0.9, 16, DpConfig(grid_step=0.01)), path)
        if not recorded:  # a file that names no settings at all
            lines = path.read_text().splitlines()
            path.write_text("\n".join(line for line in lines if not line.startswith("# ")
                                      or line.startswith("# discount=")) + "\n")
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        table = cli.get_table(0.9, 16)
        assert np.array_equal(table.values, compute_index_table(0.9, 16).values)
        assert load_index_table(path).dp_meta == DpConfig().settings(0.9)  # replaced

    @pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"),
                                             ("--T", "0"), ("--traces", "-1"), ("-M", "0"),
                                             ("--seed", "-1")])
    def test_bad_count_is_one_error_line(self, tmp_path, capsys, no_table_build, flag, value):
        out = tmp_path / "out"
        code = run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI",
                       "--hypotheses", "H0", "--critical-values", "analytic", "-M", "10",
                       flag, value, "--out-dir", str(out))
        line = assert_one_error_line(capsys, code)
        assert not out.exists()
        if flag == "--seed":
            assert line == "error: --seed must be >= 0, got -1"

    @pytest.mark.parametrize("argv, config, message", [
        (["--policies", "GI,gi"], {}, "policy GI listed more than once"),
        (["--hypotheses", "H0,H1,H0"], {}, "hypothesis H0 listed more than once"),
        ([], {"policies": ["GI", "FR", "gi", "FR"]}, "policy GI, FR listed more than once"),
    ])
    def test_repeated_entry_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                              argv, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-arm-t116", "policies": ["GI"], **config}))
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", str(path), *argv, "-M", "100",
                       "--workers", "1", "--out-dir", str(out))
        assert assert_one_error_line(capsys, code) == f"error: {message}"
        assert not out.exists()

    # a non-finite sigma or arm mean fails as the scenarios are built, before
    # any table, directory or results row
    @pytest.mark.parametrize("config, message", [
        ({"sigma": math.inf}, "sigma must be positive and finite, got inf"),
        ({"sigma": math.nan}, "sigma must be positive and finite, got nan"),
        ({"hypotheses": {"H0": [0.0, 0.0], "H1": [0.0, math.nan]}},
         "arm means must be finite, got (0.0, nan)"),
        ({"hypotheses": {"H0": [0.0, 0.0], "H1": [0.0, -math.inf]}},
         "arm means must be finite, got (0.0, -inf)"),
    ])
    def test_non_finite_scenario_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                                   config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-arm-t116", **config}))
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", str(path), "--policies", "FR,GI", "-M", "100",
                       "--workers", "1", "--out-dir", str(out))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_no_experimental_arm_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                                   command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"K": 0, "T": 10, "policies": ["CB"],
                                      "hypotheses": {"H0": [0.0]}}))
        out = tmp_path / "out"
        policy = ["--policy", "CB"] if command == "calibrate" else []
        code = run_cli(command, "--config", str(config), *policy, "-M", "100",
                       "--out-dir", str(out))
        assert_one_error_line(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["file", "calibrate"])
    def test_bad_critical_value_input_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                                        mode):
        # a file without the policy's value, or too few replicates to calibrate
        cv_file = tmp_path / "cv.json"
        cv_file.write_text(json.dumps({"CB": 2.0}))
        out = tmp_path / "out"
        code = run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI",
                       "--hypotheses", "H0", "-M", "100" if mode == "file" else "50",
                       "--critical-values", str(cv_file) if mode == "file" else "calibrate",
                       "--out-dir", str(out))
        assert_one_error_line(capsys, code)
        assert not out.exists()

    def test_workers_reaped_before_return(self, tmp_path):
        # more than one block, so the replicates run in the pool
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR",
                       "--hypotheses", "H0", "--critical-values", "analytic",
                       "-M", str(BLOCK + 1), "--workers", "2",
                       "--out-dir", str(tmp_path)) == 0
        assert multiprocessing.active_children() == []


class TestSweepCommand:
    def test_single_size_matches_calibrate(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("calibrate", "--policy", "CB", "--preset", "two-arm-t116",
                       "--T", "10,14", "--replicates", "200", "--seed", "3",
                       "--workers", "1", "--out-dir", str(out)) == 0
        cal_dir = tmp_path / "cal"
        assert run_cli("calibrate", "--policy", "CB", "--preset", "two-arm-t116",
                       "--T", "14", "--replicates", "200", "--seed", "3",
                       "--workers", "1", "--out-dir", str(cal_dir)) == 0
        for name in ("calibration_CB_T14.json", "calibration_CB_T14_hist.csv"):
            assert (out / name).read_bytes() == (cal_dir / name).read_bytes()

    def test_multi_size_output(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("calibrate", "--policy", "FR", "--preset", "two-arm-t116",
                       "--T", "10,20", "--replicates", "150", "--seed", "8",
                       "--workers", "1", "--out-dir", str(out)) == 0
        for T in (10, 20):
            record = json.loads((out / f"calibration_FR_T{T}.json").read_text())
            assert record["T"] == T and record["M"] == 150
            ci = record["critical_value_ci95"]
            assert ci["lower"] <= record["critical_value"] <= ci["upper"]
            assert (out / f"calibration_FR_T{T}_hist.csv").exists()
        assert len(list(out.iterdir())) == 4


def test_import_leaves_out_scipy_signal_and_stats():
    # both cost about a second to import, and the package needs neither
    src = str(Path(bandit_trials.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, bandit_trials.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"
