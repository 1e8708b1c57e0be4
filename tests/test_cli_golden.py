"""Golden outputs of the command line: exact stdout, stderr and exit code.

Each case runs `main(argv)` in process.  A successful case (exit 0) must
print exactly the bytes in ``golden/<name>.out`` and nothing on stderr; a
failing case must print exactly ``golden/<name>.err`` on stderr and nothing
on stdout.  Every setting that reaches the output, the seed and the worker
count included, is passed explicitly, so neither the environment nor the
host's CPU count can change a byte.
"""

from pathlib import Path

import pytest

from gsmgof.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SMALL = ["--jmax", "200", "--reps", "100"]

CASES = [
    ("test-csv", 0, ["test", "--seed", "7", "--jmax", "200", "--workers", "1",
                     "--epsilon", "0.02", "--sigma", "0.005"]),
    ("test-json", 0, ["test", "--seed", "7", "--jmax", "150", "--workers", "2",
                      "--regime", "severe-super", "--s", "0.5", "--t", "0.75",
                      "--dimension", "3", "--format", "json"]),
    ("calibrate-csv", 0, ["calibrate", "--seed", "3", *_SMALL, "--workers", "1",
                          "--regime", "mild-ordinary,severe-super",
                          "--epsilon", "0.01,0.05", "--sigma", "0.001,0.1"]),
    ("calibrate-json", 0, ["calibrate", "--seed", "3", *_SMALL, "--workers", "2",
                           "--regime", "mild-super,severe-ordinary",
                           "--epsilon", "0.05", "--sigma", "0.001,0.05",
                           "--alpha", "0.1", "--kappa", "20", "--format", "json"]),
    ("power-curve-csv", 0, ["power-curve", "--seed", "1", *_SMALL, "--workers", "2",
                            "--radii", "0.7,0.85,0.9,1.0"]),
    ("power-curve-json", 0, ["power-curve", "--seed", "1", *_SMALL, "--workers", "1",
                             "--regime", "severe-ordinary", "--epsilon", "0.001",
                             "--sigma", "0.001", "--radii", "0.2,0.6,0.95",
                             "--format", "json"]),
    ("sep-radius-csv", 0, ["sep-radius", "--seed", "42", *_SMALL, "--workers", "1",
                           "--r-lo", "0.001", "--r-hi", "1.0"]),
    ("sep-radius-json", 0, ["sep-radius", "--seed", "42", *_SMALL, "--workers", "2",
                            "--epsilon", "0.001", "--sigma", "0.001",
                            "--tol", "0.1", "--format", "json"]),
    ("rates-csv", 0, ["rates", "--seed", "0", "--workers", "1",
                      "--regime", "mild-ordinary,mild-super,severe-ordinary,severe-super",
                      "--epsilon", "0.1,0.001", "--sigma", "0.5,0.01"]),
    ("rates-json", 0, ["rates", "--seed", "0", "--workers", "1", "--which", "lower",
                       "--regime", "mild-ordinary,severe-super", "--s", "2", "--t", "0.5",
                       "--epsilon", "0.01", "--sigma", "0.01", "--format", "json"]),
    ("bounds-csv", 0, ["bounds", "--seed", "0", "--workers", "1", "--jmax", "200",
                       "--regime", "mild-ordinary,mild-super,severe-ordinary,severe-super",
                       "--epsilon", "0.001,0.01", "--sigma", "0.0001,0.001"]),
    ("bounds-json", 0, ["bounds", "--seed", "0", "--workers", "2", "--jmax", "200",
                        "--epsilon", "0.001", "--sigma", "0.0001", "--beta", "0.2",
                        "--format", "json"]),
    ("checks-csv", 0, ["checks", "--seed", "1", *_SMALL, "--workers", "1",
                       "--sigma", "0.001"]),
    ("checks-json", 0, ["checks", "--seed", "1", *_SMALL, "--workers", "2",
                        "--regime", "mild-super", "--sigma", "0.01", "--format", "json"]),
    ("error-sigma", 2, ["test", "--seed", "0", "--workers", "1", "--sigma", "1.5"]),
    ("error-regime", 2, ["calibrate", "--seed", "0", "--workers", "1",
                         "--regime", "gentle-ordinary"]),
    ("error-empty-epsilon", 2, ["bounds", "--seed", "0", "--workers", "1",
                                "--epsilon", ""]),
    ("error-no-radii", 2, ["power-curve", "--seed", "0", *_SMALL, "--workers", "1"]),
    ("error-grid-for-single", 2, ["sep-radius", "--seed", "0", *_SMALL, "--workers", "1",
                                  "--sigma", "0.01,0.02"]),
    ("error-bracketing", 1, ["sep-radius", "--seed", "42", *_SMALL, "--workers", "1",
                             "--r-lo", "0.01", "--r-hi", "0.05"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[case[0] for case in CASES])
def test_golden_output(name, code, argv, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        assert captured.err == ""
    else:
        assert captured.err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")
        assert captured.out == ""


def test_help_lists_regimes_and_which_choices(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["rates", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "rates-help.out").read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("command", ["test", "calibrate", "power-curve", "sep-radius",
                                     "bounds", "checks", None], ids=str)
def test_help_text(command, capsys, monkeypatch):
    """Every subcommand's --help, and the top level's, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    captured = capsys.readouterr()
    name = f"{command}-help.out" if command else "help.out"
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
    assert captured.err == ""
