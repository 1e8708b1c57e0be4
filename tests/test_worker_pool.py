"""One worker pool per command: how many pools start, that none outlives
`main`, and that putting every cell in flight changes no byte and no error."""

import multiprocessing

import pytest

from gsmgof import montecarlo
from gsmgof.cli import main
from gsmgof.gsm import NoiseLevels, Signal
from gsmgof.montecarlo import ExperimentPlan, _worker_pool, estimate_alpha, fit_rate_slope
from gsmgof.sequences import RegimeSpec
from gsmgof.testproc import TestConfig

_SMALL = ["--jmax", "100", "--reps", "100", "--seed", "5"]

CALIBRATE = ["calibrate", *_SMALL, "--regime", "mild-ordinary,severe-super",
             "--epsilon", "0.01,0.05", "--sigma", "0.001,0.05"]  # 8 cells
POWER_CURVE = ["power-curve", *_SMALL, "--radii", "0.3,0.6,0.9,1.0"]
CHECKS = ["checks", *_SMALL, "--sigma", "0.001"]


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


@pytest.mark.parametrize("argv", [CALIBRATE, POWER_CURVE, CHECKS],
                         ids=["calibrate", "power-curve", "checks"])
def test_a_parallel_command_starts_one_pool(argv, pools_made, capsys):
    code, _, _ = _run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert pools_made == [2]


@pytest.mark.parametrize("argv", [
    CALIBRATE + ["--workers", "1"],
    POWER_CURVE + ["--workers", "1"],
    CHECKS + ["--workers", "1"],
    ["bounds", "--jmax", "100", "--epsilon", "0.01,0.02", "--workers", "2"],
    ["rates", "--epsilon", "0.01,0.02", "--workers", "2"],
], ids=["calibrate-w1", "power-curve-w1", "checks-w1", "bounds", "rates"])
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


def test_a_library_call_outside_a_scope_has_a_pool_of_its_own(pools_made):
    plan = _plan()
    first = estimate_alpha(plan, workers=2)
    assert multiprocessing.active_children() == []
    assert estimate_alpha(plan, workers=2) == first
    assert pools_made == [2, 2]


def test_calls_inside_one_scope_share_its_pool(pools_made):
    plan = _plan()
    with _worker_pool():
        with _worker_pool():  # re-entrant: the inner exit keeps the pool
            first = estimate_alpha(plan, workers=2)
        assert len(multiprocessing.active_children()) == 2
        assert estimate_alpha(plan, workers=2) == first
    assert multiprocessing.active_children() == []
    assert pools_made == [2]
    assert first == estimate_alpha(plan, workers=1)


def test_a_rate_fit_shares_one_pool_across_its_grid(pools_made):
    """fit_rate_slope runs every grid point's radius search on one pool."""
    fit = fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=2)
    assert multiprocessing.active_children() == []
    assert pools_made == [2]
    assert fit == fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=1)
