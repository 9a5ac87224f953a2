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
from bandit_trials import cli, engine, gittins
from bandit_trials.cli import CONFIG_KEYS, PRESET_NAMES, build_parser, load_preset, main
from bandit_trials.engine import BLOCK, _run_block, run_together
from bandit_trials.gittins import (compute_index_table, dp_settings, load_index_table,
                                   save_index_table)
from bandit_trials.inference import fwer_critical_value

from .conftest import record_pool


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
        ("--delta", "1e-200", "the trial size for sigma=1.0 and delta1=1e-200 is not a finite "
                              "number; they overflow or underflow the arithmetic"),
        ("--delta", "1e-160", "the trial size for sigma=1.0 and delta1=1e-160 is not a finite "
                              "number; they overflow or underflow the arithmetic"),
        ("--sigma", "1e200", "the trial size for sigma=1e+200 and delta1=0.5 is not a finite "
                             "number; they overflow or underflow the arithmetic"),
        # sigma squared underflows to 0
        ("--sigma", "1e-200", "the trial size for sigma=1e-200 and delta1=0.5 is 0, below the "
                              "K+1 = 2 patients of the initialization phase"),
    ])
    def test_meaningless_sigma_or_delta_is_one_error_line(self, capsys, flag, value, message):
        argv = {"--k": "1", "--delta": "0.5", flag: value}
        code = run_cli("samplesize", *(item for pair in argv.items() for item in pair))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


    def test_no_linear_algebra(self, monkeypatch, capsys):
        # a LAPACK call wakes OpenBLAS's threads, which spin on another core
        # after it returns; the critical value needs none
        def no_lapack(*args, **kwargs):
            raise AssertionError("a linear-algebra routine ran")

        for name in ("eigvalsh", "eigh", "eigvals", "eig", "solve", "lstsq", "inv", "svd",
                     "qr", "cholesky", "det"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        assert fwer_critical_value(3, 0.05).value == pytest.approx(2.0621, abs=1e-4)
        assert run_cli("samplesize", "--k", "3", "--delta", "0.545") == 0
        assert "T = 302" in capsys.readouterr().out


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

    def test_default_name_keeps_the_discount(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for discount in ("0.9", "0.9000001"):
            assert run_cli("table", "--discount", discount, "--n-max", "5") == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "gittins_d0.9000001_n5.csv", "gittins_d0.9_n5.csv"]

    def test_oracle_fixture_via_cli(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("table", "--discount", "0.9", "--n-max", "50", "--out", str(out)) == 0
        table = load_index_table(out)
        assert table.values[49] == pytest.approx(0.030453, abs=2e-4)

    def test_cold_table_stores_the_cache_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        out = tmp_path / "table.csv"
        assert run_cli("table", "--discount", "0.9", "--n-max", "25", "--out", str(out)) == 0
        assert (cache / "gittins_d0.9_n25.csv").read_bytes() == out.read_bytes()

    def test_warm_table_writes_the_cached_bytes(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        cli.get_table(0.9, 25)

        def no_build(*args, **kwargs):
            raise AssertionError("index table built with a cached one in place")

        monkeypatch.setattr(cli, "compute_index_table", no_build)
        out = tmp_path / "table.csv"
        assert run_cli("table", "--discount", "0.9", "--n-max", "25", "--out", str(out)) == 0
        assert out.read_bytes() == (cache / "gittins_d0.9_n25.csv").read_bytes()


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_parse(self, name):
        preset = load_preset(name)
        assert set(preset) <= set(CONFIG_KEYS)
        assert len(preset["hypotheses"]) == 2
        # K is the hypotheses' length minus one, the same for each
        n_arms = {len(mu) for mu in preset["hypotheses"].values()}
        assert len(n_arms) == 1 and min(n_arms) >= 2
        assert preset["T"] >= min(n_arms)
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
            extremes = []
            for replicates in run_together(*args, **kwargs):
                z = np.zeros_like(replicates.z)
                z[0], z[-1] = -100.0, 100.0
                extremes.append(dataclasses.replace(replicates, z=z))
            return extremes

        monkeypatch.setattr(cli, "run_together", extreme)
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
            "T": 10, "sigma": 1.0,
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
        ({"T": 20, "policies": ["FR"]}, "lacks hypotheses"),
        ({"T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0], "H1": [0.0, 0.5]}},
         "hypothesis 'H0' must list two or more arm means, control first"),
        ({"T": 20, "policies": ["FR"], "hypotheses": {"H0": 0.0}},
         "hypothesis 'H0' must list two or more arm means, control first"),
        ({"preset": "three-arm"}, "unknown preset 'three-arm'"),
        ({"preset": "two-arm-t116", "alpha": 0}, "alpha must be a number in (0, 1)"),
        ({"preset": "two-arm-t116", "alpha": 1.5}, "alpha must be a number in (0, 1)"),
        ({"preset": "two-arm-t116", "alpha": "0.05"}, "alpha must be a number in (0, 1)"),
        ({"T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0, 0.0]}, "discount": 1.5},
         "discount must lie in [0, 1)"),
        ({"preset": "two-arm-t116", "sigma": None}, "sigma must be a number, got null"),
        ({"preset": "two-arm-t116", "discount": None}, "discount must be a number, got null"),
        ({"preset": "two-arm-t116", "T": None}, "T must be an integer, got null"),
        ({"preset": "two-arm-t116", "batch": "20"}, "sets unknown 'batch'"),
        ({"preset": "two-arm-t116", "policies": ["FR", 1]}, "policies must be a list"),
        ({"preset": "two-arm-t116", "hypotheses": {"H0": [0.0, None]}},
         "hypothesis 'H0''s mean must be a number, got null"),
        ({"preset": "two-arm-t116", "policies": []},
         "policies must be a list of one or more policy names"),
        # K is the hypotheses' length, and the guard and batch are the rules' own
        ({"preset": "two-arm-t116", "K": 1}, "sets unknown 'K'"),
        ({"preset": "two-arm-t116", "policies": ["CG"], "guard_prob": 0.5},
         "sets unknown 'guard_prob'"),
        ({"preset": "two-arm-t116", "discont": 0.9}, "sets unknown 'discont'"),
        ({"T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0, 0.0]}, "K": 3, "batch": 5},
         "sets unknown 'K', 'batch'"),
        ({"preset": 5}, "preset name must be a string, got 5"),
        ({"preset": ["x"]}, 'preset name must be a string, got ["x"]'),
        ({"preset": "two-arm-t116", "reuse_critical_values_from": 3},
         "preset name must be a string, got 3"),
        ({"T": 20, "policies": ["FR"], "hypotheses": {"H0": [0.0, 0.0], "H1": [0.0, 0.5, 0.5]}},
         "hypothesis 'H1' must list 2 arm means, as 'H0' does"),
        ({"preset": "two-arm-t116", "reuse_critical_values_from": "bogus"},
         "unknown preset 'bogus'"),
        # a label is a field of results.csv and a part of the bias and trace file names
        *[({"preset": "two-arm-t116", "hypotheses": {"H0": [0, 0], label: [0, 0.5]}},
           f"hypothesis label {json.dumps(label)} must be non-empty and hold no comma")
          for label in ("H1,b", "H1/b", "", 'H1"b', "H1\\b", "H1\nb", "H1\r", "H1\u2028b",
                        "H1\0b")],
        ({"preset": "two-arm-t116", "hypotheses": {}},
         "needs 'hypotheses': a non-empty map of label to means"),
        ({"preset": "two-arm-t116", "hypotheses": [[0, 0]]},
         "needs 'hypotheses': a non-empty map of label to means"),
    ])
    def test_invalid_config_is_one_error_line(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    # a label is part of the bias and trace file names, which a file system
    # caps at 255 bytes; a name over that fails before any table or file
    @pytest.mark.parametrize("label, argv", [
        ("H" * 261, ["--bias"]),
        ("\u00e9" * 122, ["--bias"]),  # 122 characters, 244 bytes: a 256-byte name
        ("H" * 240, ["--bias", "--traces", "2"]),  # the bias file's name fits, the trace's not
    ], ids=["261-characters", "256-bytes", "trace-name"])
    def test_too_long_label_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                              label, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-arm-t116",
                                    "hypotheses": {"H0": [0, 0], label: [0, 0.5]}}))
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", str(path), "--policies", "FR,GI", *argv,
                       "-M", "100", "--workers", "1", "--out-dir", str(out))
        assert "is too long" in assert_one_error_line(capsys, code)
        assert not out.exists()

    def test_label_of_a_255_byte_file_name_runs(self, tmp_path):
        label = "H" * 243  # bias_FR_<label>.csv
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-arm-t116",
                                    "hypotheses": {"H0": [0, 0], label: [0, 0.5]}}))
        assert run_cli("simulate", "--config", str(path), "--policies", "FR", "--bias",
                       "-M", "100", "--workers", "1", "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / f"bias_FR_{label}.csv").exists()

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

    def test_config_restating_a_preset_writes_its_bytes(self, tmp_path, monkeypatch):
        # two-arm-t116's design stated once: K from the hypotheses' length,
        # TSB's batch and CG's guard the rules' own
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(tmp_path / "cache"))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "T": 116, "sigma": 1.0, "alpha": 0.05, "discount": 0.995,
            "policies": ["FR", "TS", "TSB", "RBI", "RGI", "UCB", "KLU", "CB", "GI"],
            "hypotheses": {"H0": [0.0, 0.0], "H1": [0.0, 0.545]},
        }))
        outputs = {}
        for source in (["--preset", "two-arm-t116"], ["--config", str(config)]):
            out = tmp_path / source[0].lstrip("-")
            assert run_cli("simulate", *source, "--policies", "GI,TSB,CG", "-M", "200",
                           "--seed", "7", "--workers", "1", "--out-dir", str(out)) == 0
            outputs[source[0]] = [(out / name).read_bytes()
                                  for name in ("results.csv", "critical_values.json")]
        assert outputs["--config"] == outputs["--preset"]

    def test_table_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        out = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "T": 16, "sigma": 1.0, "discount": 0.9,
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

    def test_near_equal_discounts_keep_their_own_files(self, tmp_path, monkeypatch):
        # both discounts print as 0.9 under "%g": one file name made them
        # rebuild and overwrite each other's table
        cache = tmp_path / "cache"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        discounts = (0.9, 0.9000001)
        built = {discount: cli.get_table(discount, 16) for discount in discounts}
        assert sorted(path.name for path in cache.iterdir()) == [
            "gittins_d0.9000001_n16.csv", "gittins_d0.9_n16.csv"]

        def no_build(*args):
            raise AssertionError(f"index table rebuilt: {args}")

        monkeypatch.setattr(cli, "compute_index_table", no_build)
        for discount in discounts + discounts:
            table = cli.get_table(discount, 16)
            assert table.discount == discount
            assert np.array_equal(table.values, built[discount].values)

    def test_damaged_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        damaged = cache / "gittins_d0.995_n116.csv"
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        # text that does not parse, and bytes that do not decode as UTF-8
        for i, damage in enumerate([b"garbage\n", b"\xff\xfe\x00\x01garbage\n"]):
            damaged.write_bytes(damage)
            assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI",
                           "--critical-values", "analytic", "--replicates", "1", "--seed", "0",
                           "--workers", "1", "--out-dir", str(tmp_path / f"run{i}")) == 0
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
        with monkeypatch.context() as patch:
            patch.setattr(gittins, "GRID_STEP", 0.01)
            save_index_table(compute_index_table(0.9, 16), path)
        if not recorded:  # a file that names no settings at all
            lines = path.read_text().splitlines()
            path.write_text("\n".join(line for line in lines if not line.startswith("# ")
                                      or line.startswith("# discount=")) + "\n")
        monkeypatch.setenv("BANDIT_TRIALS_TABLE_DIR", str(cache))
        table = cli.get_table(0.9, 16)
        assert np.array_equal(table.values, compute_index_table(0.9, 16).values)
        assert load_index_table(path).dp_meta == dp_settings(0.9)  # replaced

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

    @pytest.mark.parametrize("message", [
        # as numpy words it for an array it cannot allocate
        "Unable to allocate 3.46 PiB for an array with shape (486717680295936,) and data type "
        "float64", ""], ids=["numpy", "bare"])
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_simulate", exhausted)
        code = run_cli("simulate", "--preset", "two-arm-t116", "--out-dir", str(tmp_path))
        assert assert_one_error_line(capsys, code) == f"error: {message or 'MemoryError'}"

    # finite means that would overflow the arithmetic (the two-arm sums,
    # four-arm TS's grid at its first decision, and with --bias the sums of
    # 300 running means near 1e306) fail when the scenarios are built
    @pytest.mark.parametrize("hypotheses, policy, extra", [
        ({"H0": [0.0, 0.0], "H1": [0.0, 1e308]}, "FR", ["-M", "100"]),
        ({"H0": [0.0] * 4, "H1": [0.0, 0.0, 0.0, 1e308]}, "TS", ["-M", "100"]),
        ({"H0": [0.0, 0.0], "H1": [0.0, 1e306]}, "FR", ["-M", "300", "--bias"]),
    ], ids=["two-arm-FR", "four-arm-TS", "two-arm-FR-bias"])
    def test_overflowing_means_are_one_error_line(self, tmp_path, capsys, hypotheses, policy,
                                                  extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "two-arm-t116", "T": 30,
                                    "hypotheses": hypotheses}))
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", str(path), "--policies", policy,
                       "--hypotheses", "H1", "--critical-values", "analytic", *extra,
                       "--workers", "1", "--out-dir", str(out))
        assert "overflow or underflow the arithmetic" in assert_one_error_line(capsys, code)
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_no_experimental_arm_is_one_error_line(self, tmp_path, capsys, no_table_build,
                                                   command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"T": 10, "policies": ["CB"],
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

    @pytest.mark.parametrize("command", [("calibrate", "--policy", "GI"),
                                         ("simulate", "--critical-values", "analytic"),
                                         ("simulate", "--critical-values", "calibrate")],
                             ids=["calibrate", "simulate-analytic", "simulate-calibrate"])
    def test_misspelt_reuse_preset_fails_in_every_mode(self, tmp_path, capsys, no_table_build,
                                                       command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"preset": "two-arm-t116",
                                      "reuse_critical_values_from": "bogus"}))
        out = tmp_path / "out"
        code = run_cli(*command, "--config", str(config), "-M", "100", "--workers", "1",
                       "--out-dir", str(out))
        assert "unknown preset 'bogus'" in assert_one_error_line(capsys, code)
        assert not out.exists()

    def test_analytic_value_computed_only_when_read(self, tmp_path, monkeypatch):
        computed = []

        def recording_fwer(K, alpha):
            computed.append((K, alpha))
            return fwer_critical_value(K, alpha)

        def no_fwer(K, alpha):
            raise AssertionError("analytic critical value computed but not read")

        common = ("--preset", "two-arm-t116", "--hypotheses", "H0", "--T", "10", "-M", "100",
                  "--seed", "3", "--workers", "1")
        # every rule calibrated: the analytic value is never read
        monkeypatch.setattr(cli, "fwer_critical_value", no_fwer)
        assert run_cli("simulate", *common, "--policies", "GI,CG",
                       "--out-dir", str(tmp_path / "calibrated")) == 0
        # FR tests at the analytic value
        monkeypatch.setattr(cli, "fwer_critical_value", recording_fwer)
        out = tmp_path / "with-fr"
        assert run_cli("simulate", *common, "--policies", "GI,FR", "--out-dir", str(out)) == 0
        criticals = json.loads((out / "critical_values.json").read_text())
        assert computed == [(1, 0.05)]
        assert criticals["FR"] == fwer_critical_value(1, 0.05).value

    def test_workers_reaped_before_return(self, tmp_path):
        # more than one block, so the replicates run in the pool
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR",
                       "--hypotheses", "H0", "--critical-values", "analytic",
                       "-M", str(BLOCK + 1), "--workers", "2",
                       "--out-dir", str(tmp_path)) == 0
        assert multiprocessing.active_children() == []

    def test_workers_reaped_when_a_write_fails(self, tmp_path, monkeypatch):
        # the first run's bias file fails while later runs are still in the pool
        def failing_write(replicates, path):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(cli, "write_bias_csv", failing_write)
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "FR,GI",
                       "--critical-values", "analytic", "--bias", "-M", str(BLOCK + 1),
                       "--workers", "2", "--out-dir", str(tmp_path)) == 1
        assert multiprocessing.active_children() == []


class TestOnePoolPerCommand:
    """Each command hands all its runs to one engine call, on one pool."""

    @staticmethod
    def blocks(runs, M, size):
        """The groups of BLOCK replicates of ``runs``, M each, joined in order
        and cut into blocks of ``size`` groups."""
        groups = [(i, first, min(first + BLOCK, M)) for i in runs for first in range(0, M, BLOCK)]
        return [groups[start:start + size] for start in range(0, len(groups), size)]

    def test_simulate(self, tmp_path, monkeypatch):
        created, tasks = record_pool(monkeypatch)
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI,FR",
                       "-M", "600", "--seed", "3", "--workers", "8",
                       "--out-dir", str(tmp_path)) == 0
        assert created == [8]
        # GI's calibration and two hypotheses, 9 groups, in blocks of
        # ceil(9 / 8) = 2 groups; then FR's two hypotheses, 6 groups, one each
        assert tasks == self.blocks([0, 1, 2], 600, 2) + self.blocks([3, 4], 600, 1)

    def test_simulate_prints_each_rule_before_later_rules_step(self, tmp_path, monkeypatch,
                                                               capsys):
        # the stdout printed before each block steps, and the block's rule
        printed, stepped = [], []

        def recording_block(runs, table, groups):
            printed.append(capsys.readouterr().out)
            stepped.append(runs[groups[0][0]].scenario.policy.kind)
            return _run_block(runs, table, groups)

        monkeypatch.setattr(engine, "_run_block", recording_block)
        assert run_cli("simulate", "--preset", "two-arm-t116", "--policies", "GI,FR",
                       "-M", "300", "--seed", "3", "--workers", "1",
                       "--out-dir", str(tmp_path)) == 0
        first_fr = stepped.index("FR")
        before_fr = "".join(printed[:first_fr + 1])
        assert set(stepped[:first_fr]) == {"GI"} and "GI H" in before_fr
        assert "FR " not in before_fr

    def test_calibrate(self, tmp_path, monkeypatch):
        created, tasks = record_pool(monkeypatch)
        assert run_cli("calibrate", "--preset", "two-arm-t116", "--policy", "RGI",
                       "--T", "64,116", "-M", "600", "--seed", "3", "--workers", "3",
                       "--out-dir", str(tmp_path)) == 0
        assert created == [3]
        # each trial size steps apart, 3 groups in blocks of one
        assert tasks == self.blocks([0], 600, 1) + self.blocks([1], 600, 1)


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


def run_python(code):
    """Standard output of ``python -c code`` run with this package importable."""
    src = str(Path(bandit_trials.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_import_leaves_out_scipy_signal_and_stats():
    # both cost about a second to import, and the package needs neither
    code = ("import sys, bandit_trials.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    assert run_python(code).strip() == "[]"


def test_commands_without_a_table_leave_out_scipy_fft():
    # only the index table's FFT steps use it
    code = ("import sys, bandit_trials.cli as cli; "
            "cli.main(['samplesize', '--k', '3', '--delta', '0.545']); "
            "print('scipy.fft' in sys.modules)")
    assert run_python(code).splitlines()[-1] == "False"
