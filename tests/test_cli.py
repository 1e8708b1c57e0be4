"""Command-line driver: exit codes, precedence rules, output formats."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsmgof
from gsmgof import RegimeSpec, evaluate_bounds, spike_index
from gsmgof.cli import main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestTestCommand:
    def test_single_row_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["test", "--sigma", "0.01", "--epsilon", "0.01",
                     "--jmax", "200", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["regime"] == "mild-ordinary"
        assert row["reject"] in ("true", "false")
        assert float(row["statistic"]) >= 0.0
        assert int(row["bandwidth"]) >= 0

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["test", "--seed", "7", "--jmax", "200", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_threshold_serializes_as_null(self, tmp_path):
        out = tmp_path / "degenerate.json"
        code = main(["test", "--sigma", "0.9", "--jmax", "50",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        row = payload["rows"][0]
        assert row["degenerate"] is True
        assert row["threshold"] is None  # NaN has no JSON spelling

    def test_sigma_out_of_range_exits_2(self, capsys):
        assert main(["test", "--sigma", "1.5"]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_unknown_regime_exits_2(self, capsys):
        assert main(["test", "--regime", "gentle-ordinary"]) == 2
        assert "regime" in capsys.readouterr().err

    def test_empty_epsilon_grid_exits_2(self, capsys):
        assert main(["test", "--epsilon", ""]) == 2
        assert "epsilon" in capsys.readouterr().err


class TestPrecedence:
    def test_env_seed_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSM_GOF_SEED", "777")
        out = tmp_path / "env.json"
        assert main(["test", "--jmax", "100", "--format", "json",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["seed"] == 777

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSM_GOF_SEED", "777")
        out = tmp_path / "flag.json"
        assert main(["test", "--seed", "5", "--jmax", "100", "--format", "json",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["seed"] == 5

    def test_config_file_supplies_settings(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"seed": 99, "sigma": "0.02", "jmax": 100}))
        out = tmp_path / "cfg.json"
        assert main(["test", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert meta["seed"] == 99
        assert meta["sigma"] == "0.02"

    def test_flag_beats_config(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"seed": 99}))
        out = tmp_path / "cfg.json"
        assert main(["test", "--config", str(config), "--seed", "3",
                     "--jmax", "100", "--format", "json", "--out", str(out)]) == 0
        assert read_json(out)["meta"]["seed"] == 3

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"sigma_x": 1.0}))
        assert main(["test", "--config", str(config)]) == 2
        assert "sigma_x" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["test", "--config", str(tmp_path / "absent.json")]) == 2


class TestCalibrate:
    def test_grid_rows_and_determinism(self, tmp_path):
        argv = ["calibrate", "--regime", "mild-ordinary,severe-ordinary",
                "--epsilon", "0.01,0.02", "--sigma", "0.05", "--jmax", "200",
                "--reps", "100", "--workers", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        rows = read_csv(a)
        assert len(rows) == 4
        assert {row["regime"] for row in rows} == {"mild-ordinary", "severe-ordinary"}
        for row in rows:
            p = float(row["alpha_hat"])
            assert 0.0 <= p <= 1.0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_leaves_csv_unchanged(self, tmp_path):
        base = ["calibrate", "--regime", "mild-ordinary", "--epsilon", "0.05",
                "--sigma", "0.05", "--jmax", "100", "--reps", "120"]
        solo, pooled = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(base + ["--workers", "1", "--out", str(solo)]) == 0
        assert main(base + ["--workers", "4", "--out", str(pooled)]) == 0
        assert solo.read_bytes() == pooled.read_bytes()


class TestPowerCurve:
    def test_requires_radii(self, capsys):
        assert main(["power-curve", "--jmax", "100", "--reps", "100"]) == 2
        assert "radii" in capsys.readouterr().err

    def test_rows_per_radius(self, tmp_path):
        out = tmp_path / "power.csv"
        assert main(["power-curve", "--radii", "0.2,0.8", "--jmax", "200",
                     "--reps", "100", "--workers", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["radius"]) for r in rows] == [0.2, 0.8]
        spec = RegimeSpec.from_name("mild-ordinary")
        for row in rows:
            assert int(row["spike_dim"]) == spike_index(spec, float(row["radius"]), 200)
            assert 0.0 <= float(row["beta_hat"]) <= 1.0


class TestSepRadius:
    def test_bracketing_failure_exits_1(self, tmp_path, capsys):
        code = main(["sep-radius", "--jmax", "200", "--reps", "100", "--seed", "42",
                     "--workers", "1", "--r-lo", "0.01", "--r-hi", "0.05",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gsm-gof" in err and "0.05" in err

    def test_found_radius_row(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert main(["sep-radius", "--jmax", "200", "--reps", "200", "--seed", "42",
                     "--workers", "1", "--r-lo", "0.001", "--r-hi", "1.0",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["radius"]) == 0.859515625
        assert float(row["beta_target"]) == 0.5


class TestRates:
    def test_pinned_value_round_trips_through_csv(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--regime", "severe-ordinary", "--epsilon", "0.1",
                     "--sigma", "0.5", "--which", "known", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["rate_sq"]) == 0.1886116970116139
        assert row["which"] == "known"

    def test_grid_to_stdout(self, capsys):
        assert main(["rates", "--regime", "mild-ordinary,mild-super",
                     "--epsilon", "0.1,0.01", "--sigma", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 2 regimes x 2 epsilons
        assert lines[0].startswith("regime,")


class TestBounds:
    def test_row_matches_library_report(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--epsilon", "0.001", "--sigma", "0.001",
                     "--beta", "0.5", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        report = evaluate_bounds(RegimeSpec.from_name("mild-ordinary"),
                                 1e-3, 1e-3, 0.05, 0.5, 10_000)
        # %.17g preserves doubles exactly, so equality is bit-for-bit
        assert float(row["upper_sq"]) == report.upper_sq
        assert int(row["upper_argmin_dim"]) == report.upper_argmin_dim
        assert float(row["lower_sq"]) == report.lower_sq
        assert float(row["lower_sigma_part"]) == report.lower_components[0]
        assert float(row["lower_epsilon_part"]) == report.lower_components[1]
        assert int(row["bracket_low"]) == report.bracket_low
        assert int(row["bracket_high"]) == report.bracket_high
        assert int(row["prior_depth"]) == report.prior_depth

    def test_json_meta_structure(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--epsilon", "0.001", "--sigma", "0.001",
                     "--beta", "0.5", "--format", "json", "--out", str(out)]) == 0
        payload = read_json(out)
        assert set(payload) == {"meta", "rows"}
        assert "artifact_version" in payload["meta"]
        assert "out" not in payload["meta"]
        assert payload["meta"]["command"] == "bounds"
        assert len(payload["rows"]) == 1


class TestChecks:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "checks.csv"
        code = main(["checks", "--sigma", "0.001", "--jmax", "200",
                     "--reps", "500", "--workers", "1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [row["check"] for row in rows] == [
            "bandwidth-containment", "quadform-upper", "quadform-lower",
            "quadform-upper", "quadform-lower",
        ]
        for row in rows:
            assert row["passed"] == "true"
            assert float(row["p_hat"]) <= float(row["bound"]) + 3.0 * float(row["se"])

    def test_quadform_bound_is_exponential(self, tmp_path):
        out = tmp_path / "checks.csv"
        main(["checks", "--sigma", "0.001", "--jmax", "100", "--reps", "200",
              "--workers", "1", "--out", str(out)])
        rows = read_csv(out)
        assert float(rows[1]["bound"]) == pytest.approx(math.exp(-1.0))
        assert float(rows[3]["bound"]) == pytest.approx(math.exp(-2.0))


class TestImport:
    def test_cli_import_leaves_scipy_optimize_out(self):
        """The command line's start-up cost excludes scipy.optimize."""
        env = dict(os.environ, PYTHONPATH=str(Path(gsmgof.__file__).parents[1]))
        probe = "import sys, gsmgof.cli; print('scipy.optimize' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"
