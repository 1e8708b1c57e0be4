"""Command-line driver: exit codes, precedence rules, output formats."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gsmgof
from gsmgof import RegimeSpec, cli, evaluate_bounds, runner, spike_index
from gsmgof.cli import main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# Values at and past the edges of every numeric setting's domain
_EDGES = ("0", "1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "5e-324", "800")
_TYPICAL = {"epsilon": ("0.01", "0.1"), "sigma": ("0.01", "1e-4"), "s": ("1", "0.5"),
            "t": ("1", "2"), "alpha": ("0.05",), "beta": ("0.5",), "kappa": ("40",),
            "radii": ("0.5", "0.01"), "r-lo": ("0.001",), "r-hi": ("1",), "tol": ("0.05",)}
_OWN_FLAGS = {"power-curve": ("radii",), "sep-radius": ("r-lo", "r-hi", "tol")}


@st.composite
def _invocations(draw):
    """A subcommand with drawn settings: up to two of its numeric ones at an
    edge, the others at their default or a typical value, a grid of up to
    two values where the subcommand takes grids, and a horizon of 1 to 200."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command, "--reps", "100", "--seed", str(draw(st.integers(0, 99))),
            "--jmax", str(draw(st.integers(1, 200))),
            "--regime", draw(st.sampled_from(cli._REGIMES))]
    flags = ("epsilon", "sigma", "s", "t", "alpha", "beta", "kappa",
             *_OWN_FLAGS.get(command, ()))
    edges = draw(st.sets(st.sampled_from(flags), max_size=2))
    for flag in flags:
        size = 2 if flag == "radii" or (cli._COMMANDS[command].grids
                                        and flag in ("epsilon", "sigma")) else 1
        pool = _TYPICAL[flag] + _EDGES if flag in edges else _TYPICAL[flag]
        values = st.lists(st.sampled_from(pool), min_size=1, max_size=size)
        grid = draw(values if flag in edges or flag == "radii" else st.none() | values)
        if grid is not None:
            argv.append(f"--{flag}={','.join(grid)}")
    if command == "test":
        dimension = draw(st.none() | st.integers(0, 200))
        if dimension is not None:
            argv.append(f"--dimension={dimension}")
    return argv


def _run_in_process(argv):
    """main's exit code, stdout and stderr, with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(argv=_invocations())
@example(argv=["sep-radius", "--regime", "mild-super", "--s", "800", "--jmax", "50",
               "--reps", "100"])  # 1 / a_1 overflowed, then a bracket of zeros
@example(argv=["test", "--jmax", "50", "--epsilon", "1e300", "--dimension", "3"])
@example(argv=["test", "--jmax", "200", "--sigma", "1e-100", "--t", "0.9",
               "--regime", "severe-super"])  # x ** -4 overflowed in the objective
def test_every_invocation_exits_0_1_or_2_and_its_bytes_ignore_the_workers(argv):
    """No drawn invocation raises, warns or prints a traceback; its exit code
    is 0, 1 or 2, and --workers 2, forking for any work, changes no byte."""
    with mock.patch.object(runner, "_FORK_WORK", 1):
        runs = [_run_in_process([*argv, "--workers", workers]) for workers in ("1", "2")]
    code, _, err = runs[0]
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert runs[1] == runs[0]


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

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--t", "0"], "t must be a positive finite number, got 0.0"),
        (["test", "--s", "nan"], "s must be a positive finite number, got nan"),
    ], ids=["bounds-t", "test-s"])
    def test_bad_regime_parameter_exits_2_naming_it(self, capsys, argv, message):
        assert main(argv + ["--jmax", "50"]) == 2
        err = capsys.readouterr().err
        assert message in err and "unknown regime" not in err

    def test_empty_epsilon_grid_exits_2(self, capsys):
        assert main(["test", "--epsilon", ""]) == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["test", "--jmax", "50"],
        ["calibrate", "--jmax", "50", "--reps", "100", "--workers", "1"],
        ["bounds", "--jmax", "50"],
    ], ids=["test", "calibrate", "bounds"])
    @pytest.mark.parametrize("kappa", ["inf", "nan"])
    def test_non_finite_kappa_exits_2(self, capsys, argv, kappa):
        """An infinite kappa would make every scan stop at once: every
        replication degenerate, none ever rejecting."""
        assert main(argv + ["--kappa", kappa]) == 2
        assert f"kappa must be finite and exceed e, got {kappa}" in capsys.readouterr().err


class TestPrecedence:
    def test_env_seed_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSM_GOF_SEED", "777")
        out = tmp_path / "env.json"
        assert main(["test", "--jmax", "100", "--format", "json",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["seed"] == 777

    def test_env_seed_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("GSM_GOF_SEED", "7.5")
        assert main(["rates"]) == 2
        assert "GSM_GOF_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        """A pool of no process is refused, not run serially."""
        assert main(["calibrate", "--jmax", "50", "--reps", "100", "--workers", workers]) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err

    def test_seed_past_the_philox_key_exits_2(self, monkeypatch, capsys):
        assert main(["test", "--jmax", "50", "--seed", str(2 ** 128)]) == 2
        assert f"seed must lie in [0, 2**128), got {2 ** 128}" in capsys.readouterr().err
        monkeypatch.setenv("GSM_GOF_SEED", str(2 ** 128 + 5))
        assert main(["test", "--jmax", "50"]) == 2
        assert f"seed must lie in [0, 2**128), got {2 ** 128 + 5}" in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "seed.json"
        assert main(["test", "--jmax", "50", "--seed", str(2 ** 128 - 1), "--format", "json",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["seed"] == 2 ** 128 - 1

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

    @pytest.mark.parametrize("entry", [
        {"alpha": [0.1]}, {"s": None}, {"kappa": {}}, {"jmax": [1, 2]}, {"dimension": [3]},
        {"seed": True}, {"tol": None}, {"epsilon": [None]}, {"radii": [[0.1]]},
        {"jmax": 150.9}, {"seed": 1.5}, {"reps": 100.9}, {"dimension": 2.7}, {"seed": "7.0"},
        {"jmax": float("nan")}, {"alpha": "abc"}, {"format": "xml"}, {"which": 1},
        {"format": 0},
    ], ids=json.dumps)
    def test_config_entry_of_wrong_type_exits_2(self, tmp_path, capsys, entry):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(entry))
        assert main(["test", "--config", str(config)]) == 2
        assert repr(next(iter(entry))) in capsys.readouterr().err

    def test_config_string_entries_among_the_choices_are_taken(self):
        """A string entry among its setting's choices is taken as given; one
        outside them is refused by test_config_entry_of_wrong_type_exits_2."""
        code, payload, _ = run_with_config({"which": "lower", "format": "json"}, "rates")
        assert code == 0
        assert (payload["meta"]["which"], payload["meta"]["format"]) == ("lower", "json")
        assert {row["which"] for row in payload["rows"]} == {"lower"}

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps([{"seed": 1}]))
        assert main(["rates", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gsm-gof: error: config file must hold a JSON object\n"
        assert captured.out == ""

    @pytest.mark.parametrize("out", [1, 2.5, ["run.csv"]], ids=json.dumps)
    def test_config_out_must_be_a_path(self, tmp_path, capsys, out):
        """A number would be taken by open() as a file descriptor (and closed)."""
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"out": out, "jmax": 100}))
        assert main(["test", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "'out'" in captured.err
        assert captured.out == ""

    def test_config_null_keeps_a_none_default(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"dimension": None, "epsilon": [0.01], "jmax": 100}))
        out = tmp_path / "run.json"
        assert main(["test", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        assert read_json(out)["meta"]["dimension"] is None

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["test", "--config", str(tmp_path / "absent.json")]) == 2


def run_with_config(entries, *argv):
    """main(argv + --config FILE --format json) with FILE holding the entries:
    (exit code, parsed JSON payload or None, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "settings.json"
        config.write_text(json.dumps(entries), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(config), "--format", "json"])
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def resolve_with_config(entries, *argv):
    """cli._resolve of argv + --config FILE, FILE holding the entries."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "settings.json"
        config.write_text(json.dumps(entries), encoding="utf-8")
        return cli._resolve(cli._build_parser().parse_args([*argv, "--config", str(config)]))


_INT_KEYS = ("seed", "reps", "workers", "jmax", "dimension")


class TestConfigTyping:
    """A config entry is read as its flag's type when the file is loaded."""

    def test_numeric_string_is_read_as_a_number(self):
        code, payload, _ = run_with_config({"alpha": "0.05", "s": "2"}, "rates")
        assert code == 0
        assert payload["meta"]["alpha"] == 0.05
        assert payload["meta"]["s"] == 2.0 and isinstance(payload["meta"]["s"], float)

    def test_integral_float_is_read_as_an_integer(self):
        code, payload, _ = run_with_config({"jmax": 150.0, "reps": "7"}, "rates")
        assert code == 0
        assert payload["meta"]["jmax"] == 150 and isinstance(payload["meta"]["jmax"], int)
        assert payload["meta"]["reps"] == 7

    def test_string_dimension_fixes_an_integer_dimension(self):
        code, payload, _ = run_with_config({"dimension": "3"}, "test", "--jmax", "100",
                                           "--workers", "1")
        assert code == 0
        assert payload["meta"]["dimension"] == 3
        assert payload["rows"][0]["dimension"] == 3
        assert isinstance(payload["rows"][0]["dimension"], int)

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(_INT_KEYS),
           value=st.one_of(st.integers(), st.floats(),
                           st.integers().map(str), st.floats().map(str),
                           st.from_regex(r"\s*[+-]?[0-9_]{1,12}(\.[0-9]*)?\s*", fullmatch=True)))
    def test_integer_entry_is_exact_or_refused(self, key, value):
        code, payload, err = run_with_config({key: value}, "rates")
        if code == 2:
            assert key in err  # a negative seed is refused after loading
        else:  # workers is not in the output: its typed value is the resolved one
            assert code == 0
            settings = resolve_with_config({key: value}, "rates") if key == "workers" \
                else payload["meta"]
            assert settings[key] == int(value)
            assert isinstance(settings[key], int)


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

    def test_worker_count_leaves_json_unchanged(self, tmp_path):
        """The JSON meta holds the resolved settings, but not the worker count."""
        base = ["calibrate", "--regime", "mild-ordinary", "--epsilon", "0.05",
                "--sigma", "0.05", "--jmax", "100", "--reps", "120", "--format", "json"]
        solo, pooled = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(base + ["--workers", "1", "--out", str(solo)]) == 0
        assert main(base + ["--workers", "2", "--out", str(pooled)]) == 0
        assert solo.read_bytes() == pooled.read_bytes()
        assert "workers" not in read_json(solo)["meta"]


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


    @pytest.mark.parametrize("argv", [
        ["--s", "0.1", "--radii", "1e-40"],
        ["--regime", "mild-super", "--radii", "5e-324"],
    ], ids=["ordinary", "super"])
    def test_tiny_radius_spikes_at_the_horizon(self, tmp_path, argv):
        """A radius so small that 1/r, or its power, leaves the float range
        still places the spike at the horizon."""
        out = tmp_path / "power.csv"
        assert main(["power-curve", *argv, "--reps", "100", "--jmax", "100",
                     "--workers", "1", "--out", str(out)]) == 0
        assert [int(row["spike_dim"]) for row in read_csv(out)] == [100]


class TestSepRadius:
    def test_bracketing_failure_exits_1(self, tmp_path, capsys):
        code = main(["sep-radius", "--jmax", "200", "--reps", "100", "--seed", "42",
                     "--workers", "1", "--r-lo", "0.01", "--r-hi", "0.05",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gsm-gof" in err and "0.05" in err

    def test_tiny_r_lo_gives_a_bracketing_answer(self, capsys):
        """At s=0.25 the spike at r_lo=1e-300 sits at the horizon; the search
        then reports the class ceiling as undetectable, not an OverflowError."""
        assert main(["sep-radius", "--s", "0.25", "--r-lo", "1e-300", "--reps", "100",
                     "--jmax", "100", "--workers", "1"]) == 1
        assert "at r_hi=1.0 is still above the target" in capsys.readouterr().err

    def test_found_radius_row(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert main(["sep-radius", "--jmax", "200", "--reps", "200", "--seed", "42",
                     "--workers", "1", "--r-lo", "0.001", "--r-hi", "1.0",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["radius"]) == 0.859515625
        assert float(row["beta_target"]) == 0.5

    @pytest.mark.parametrize("s, ceiling", [("709.5", "7.38014831401258e-309"),
                                            ("740", "4.2e-322")])
    def test_a_subnormal_default_ceiling_is_refused_by_name(self, capsys, s, ceiling):
        """A default r_hi = 1 / a_1 below the smallest normal float is refused
        as the ceiling, with the advice to give r_hi: its r_lo = r_hi * 2**-14
        would lose its digits or underflow to 0 and fail later, misleadingly."""
        assert main(["sep-radius", "--regime", "mild-super", "--s", s, "--jmax", "50",
                     "--reps", "100", "--workers", "1"]) == 2
        assert capsys.readouterr().err == (
            f"gsm-gof: error: the ceiling 1 / a_1 = {ceiling} at s={float(s)!r} is below "
            "the smallest normal float; give r_hi\n")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        assert main(["sep-radius", "--tol", tol, "--jmax", "200", "--reps", "100",
                     "--workers", "1"]) == 2
        assert f"tol must be positive and finite, got {tol}" in capsys.readouterr().err

    def test_a_tolerance_below_float_resolution_ends_the_search(self, tmp_path):
        """At tol 1e-300 the bracket stops shrinking once its ends are
        neighbouring floats; the search then returns their midpoint."""
        out = tmp_path / "sep.csv"
        assert main(["sep-radius", "--jmax", "200", "--reps", "100", "--seed", "42",
                     "--workers", "1", "--r-lo", "0.001", "--r-hi", "1.0", "--tol", "1e-300",
                     "--out", str(out)]) == 0
        radius = float(read_csv(out)[0]["radius"])
        assert 0.001 < radius < 1.0

    def test_config_string_r_hi_sets_the_default_r_lo(self, tmp_path):
        """A config-file r_hi given as a string is read as a number before the
        default r_lo is taken from it."""
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"r_hi": "1.0"}))
        out = tmp_path / "sep.csv"
        assert main(["sep-radius", "--config", str(config), "--jmax", "200", "--reps", "200",
                     "--seed", "42", "--workers", "1", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["r_hi"]) == 1.0
        assert float(row["r_lo"]) == 2.0 ** -14


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

    def test_epsilon_past_the_float_range_exits_2(self, capsys):
        assert main(["bounds", "--epsilon", "1e200", "--jmax", "50"]) == 2
        assert "epsilon=1e+200 squared" in capsys.readouterr().err

    def test_bound_past_the_float_range_exits_2(self, capsys):
        """epsilon**2 is finite at 1e153; the upper bound is not."""
        assert main(["bounds", "--epsilon", "1e153"]) == 2
        assert "the upper bound at epsilon=1e+153 exceeds the float range" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, capsys, epsilon):
        assert main(["bounds", "--epsilon", epsilon, "--jmax", "50"]) == 2
        assert f"epsilon must be finite, got {epsilon}" in capsys.readouterr().err


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

    def test_a_failed_check_exits_1_after_its_rows_are_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gsmgof.cli, "bandwidth_escape_bound", lambda alpha, kappa: -1.0)
        out = tmp_path / "checks.csv"
        code = main(["checks", "--sigma", "0.001", "--jmax", "200",
                     "--reps", "500", "--workers", "1", "--out", str(out)])
        assert code == 1
        assert [row["passed"] for row in read_csv(out)] == ["false"] + ["true"] * 4

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

    @pytest.mark.parametrize("module", ["gsmgof", "gsmgof.cli"])
    def test_import_loads_no_scipy(self, module):
        """The runtime needs numpy alone: importing the package or its
        command line loads no scipy module."""
        env = dict(os.environ, PYTHONPATH=str(Path(gsmgof.__file__).parents[1]))
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_cli_import_leaves_the_process_pool_out(self):
        """The worker processes are forked directly: importing the command
        line loads neither multiprocessing nor concurrent.futures' process pool."""
        env = dict(os.environ, PYTHONPATH=str(Path(gsmgof.__file__).parents[1]))
        probe = ("import sys, gsmgof.cli; print(sorted({'multiprocessing', "
                 "'concurrent.futures.process'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_module_entry_point_exits_with_mains_code(self):
        """python -m gsmgof.cli exits with main's return code."""
        env = dict(os.environ, PYTHONPATH=str(Path(gsmgof.__file__).parents[1]))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "gsmgof.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        done = run("rates")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("regime,s,t,epsilon,sigma,which,rate_sq\n")
        done = run("rates", "--sigma", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "gsm-gof: error: sigma must lie in (0, 1), got 2.0\n"
