"""One worker pool per command: how many pools start, how large, that none
outlives `main`, and that putting every cell in flight changes no byte and no
error."""

import multiprocessing
import os

import pytest

from gsmgof import montecarlo
from gsmgof.cli import main
from gsmgof.gsm import NoiseLevels, Signal
from gsmgof.montecarlo import ExperimentPlan, estimate_alpha, fit_rate_slope
from gsmgof.sequences import RegimeSpec
from gsmgof.testproc import TestConfig

_SMALL = ["--jmax", "100", "--reps", "100", "--seed", "5"]

CALIBRATE = ["calibrate", *_SMALL, "--regime", "mild-ordinary,severe-super",
             "--epsilon", "0.01,0.05", "--sigma", "0.001,0.05"]  # 8 cells
POWER_CURVE = ["power-curve", *_SMALL, "--radii", "0.3,0.6,0.9,1.0"]
CHECKS = ["checks", *_SMALL, "--sigma", "0.001"]
SEP_RADIUS = ["sep-radius", *_SMALL, "--r-lo", "0.001", "--r-hi", "1"]


@pytest.fixture
def pools_made(monkeypatch):
    """A list that gets one entry per process pool constructed."""
    made = []

    class Counting(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Counting)
    return made


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert multiprocessing.active_children() == []  # the pool is gone when main returns
    return code, out, err


@pytest.fixture
def pools_asked(monkeypatch):
    """A list that gets the size asked of each process pool; the stand-in
    pool starts no process and runs each chunk inline as it is submitted."""
    asked = []

    class Inline:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            return montecarlo._done(fn, *args)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Inline)
    return asked


@pytest.mark.parametrize("argv", [CALIBRATE, POWER_CURVE, CHECKS, SEP_RADIUS],
                         ids=["calibrate", "power-curve", "checks", "sep-radius"])
def test_a_parallel_command_starts_one_pool(argv, pools_made, capsys):
    code, _, _ = _run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert pools_made == [2]


@pytest.mark.parametrize("argv", [
    CALIBRATE + ["--workers", "1"],
    POWER_CURVE + ["--workers", "1"],
    CHECKS + ["--workers", "1"],
    SEP_RADIUS + ["--workers", "1"],
    ["bounds", "--jmax", "100", "--epsilon", "0.01,0.02", "--workers", "2"],
    ["rates", "--epsilon", "0.01,0.02", "--workers", "2"],
], ids=["calibrate-w1", "power-curve-w1", "checks-w1", "sep-radius-w1", "bounds",
        "rates"])
def test_a_serial_or_simulation_free_command_starts_none(argv, pools_made, capsys):
    code, _, _ = _run(argv, capsys)
    assert code == 0
    assert pools_made == []


@pytest.mark.parametrize("argv", [CALIBRATE, POWER_CURVE, CHECKS],
                         ids=["calibrate", "power-curve", "checks"])
def test_worker_count_changes_no_byte(argv, capsys):
    outputs = {_run(argv + ["--workers", str(w)], capsys) for w in (1, 2, 3)}
    assert len(outputs) == 1
    [(code, out, err)] = outputs
    assert code == 0 and out and err == ""


# Each grid fails; the expected error is the first a serial cell loop meets.
_THRESHOLD = ("gsm-gof: error: the threshold is not finite: ThresholdParts("
              "centering=1.6353792747491857e+308, deviation=inf, bias=2.9206455826398416)\n")
ERROR_CASES = [
    # two middle cells raise inside a worker (with different thresholds)
    # before the last is refused at plan time
    (["calibrate", "--epsilon", "0.01,1.3e154,1.31e154,-1", "--sigma", "0.01"], _THRESHOLD),
    # a cell refused at plan time comes before the one raising in a worker
    (["calibrate", "--epsilon", "0.01,1.3e154", "--sigma", "0.01,1.5"],
     "gsm-gof: error: sigma must lie in (0, 1), got 1.5\n"),
    # a later radius cannot be built
    (["power-curve", "--radii", "0.5,5"],
     "gsm-gof: error: spike of norm 5 does not fit the smoothness class at any coordinate\n"),
    # every radius raises in a worker before the later one cannot be built
    (["power-curve", "--epsilon", "1.3e154", "--radii", "0.5,5"], _THRESHOLD),
]


@pytest.mark.parametrize("argv, err", ERROR_CASES,
                         ids=["worker-then-plan", "plan-then-worker", "radius",
                              "worker-then-radius"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_error_in_cell_order_is_reported(argv, err, workers, pools_made, capsys):
    assert _run(argv + ["--jmax", "200", "--reps", "100", "--workers", str(workers)],
                capsys) == (2, "", err)
    assert len(pools_made) <= (workers > 1)


def _plan():
    return ExperimentPlan(spec=RegimeSpec.from_name("mild-ordinary"),
                          noise=NoiseLevels(0.01, 0.01),
                          config=TestConfig(alpha=0.05, beta=0.5, j_max=100),
                          theta0=Signal.zeros(), n_reps=100, master_seed=3)


def test_each_library_call_has_a_pool_of_its_own(pools_made):
    plan = _plan()
    first = estimate_alpha(plan, workers=2)
    assert multiprocessing.active_children() == []
    assert estimate_alpha(plan, workers=2) == first
    assert pools_made == [2, 2]
    assert first == estimate_alpha(plan, workers=1)


def test_the_pool_has_at_most_one_process_per_cpu(pools_asked, capsys):
    """3000 workers split 3000 replications into 3000 chunks, but the pool
    asked for has one process per CPU, and the output is that of one worker."""
    argv = ["calibrate", "--jmax", "50", "--reps", "3000"]
    assert main(argv + ["--workers", "3000"]) == 0
    many = capsys.readouterr()
    assert pools_asked == [os.cpu_count() or 1]
    assert main(argv + ["--workers", "1"]) == 0
    assert capsys.readouterr() == many


@pytest.mark.parametrize("cpus, size", [(1, 1), (None, 1), (500, 100)])
def test_the_pool_size_is_capped_by_the_cpu_count(cpus, size, pools_asked, monkeypatch):
    """At 1000 workers a 100-replication plan has 100 chunks; the pool gets
    min(100, os.cpu_count() or 1) processes."""
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    assert estimate_alpha(_plan(), workers=1000) == estimate_alpha(_plan(), workers=1)
    assert pools_asked == [size]


def test_a_rate_fit_shares_one_pool_across_its_grid(pools_made):
    """fit_rate_slope runs every grid point's radius search on one pool."""
    fit = fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=2)
    assert multiprocessing.active_children() == []
    assert pools_made == [2]
    assert fit == fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=1)
