"""The worker processes of `runner._run_jobs`: how many are forked per call,
that none outlives the call, on success or on error, and that running chunks in
them changes no byte and no error.

Every test here runs at `_FORK_WORK` = 1 (see `cheap_forks`), so that a
100-replication plan forks as a large one does; the tests of the rule that
sizes the pool from the work set it back to its default."""

import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gsmgof
from gsmgof import cli, gsm, montecarlo, runner
from gsmgof.cli import main
from gsmgof.errors import WorkerError
from gsmgof.gsm import NoiseLevels, Signal
from gsmgof.montecarlo import ExperimentPlan, estimate_alpha, fit_rate_slope
from gsmgof.runner import _Job, _run_jobs
from gsmgof.sequences import RegimeSpec
from gsmgof.testproc import KAPPA_DEFAULT, TestConfig

FORK_WORK = runner._FORK_WORK


@pytest.fixture(autouse=True)
def cheap_forks(monkeypatch):
    """A fork for any work at all: the mechanics of the pool are tested on
    small plans."""
    monkeypatch.setattr(runner, "_FORK_WORK", 1)

_SMALL = ["--jmax", "100", "--reps", "100", "--seed", "5"]

CALIBRATE = ["calibrate", *_SMALL, "--regime", "mild-ordinary,severe-super",
             "--epsilon", "0.01,0.05", "--sigma", "0.001,0.05"]  # 8 cells
POWER_CURVE = ["power-curve", *_SMALL, "--radii", "0.3,0.6,0.9,1.0"]
CHECKS = ["checks", *_SMALL, "--sigma", "0.001"]
SEP_RADIUS = ["sep-radius", *_SMALL, "--r-lo", "0.001", "--r-hi", "1"]

CPUS = runner._usable_cpus()
# A test that needs a second process forks one only where there is a second CPU.
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="forks a second process")


def _forks_per_call(monkeypatch):
    """A list that gets a 0 per `_run_jobs` call, whichever module calls it."""
    counts = []
    run_jobs = runner._run_jobs

    def counting(*args, **kwargs):
        counts.append(0)
        return run_jobs(*args, **kwargs)

    for module in (montecarlo, cli):
        monkeypatch.setattr(module, "_run_jobs", counting)
    return counts


@pytest.fixture
def forks(monkeypatch):
    """The number of processes each `_run_jobs` call forks."""
    counts = _forks_per_call(monkeypatch)
    fork = os.fork

    def counting_fork():
        counts[-1] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return counts


@pytest.fixture
def forks_asked(monkeypatch):
    """The number of worker processes each `_run_jobs` call asks for; the
    stand-in worker starts no process and runs its share inline."""
    counts = _forks_per_call(monkeypatch)

    class Inline:
        def __init__(self, p, share):
            counts[-1] += 1
            self.result = share()

        def outcome(self):
            return self.result

        def kill(self):
            pass

    monkeypatch.setattr(runner, "_Child", Inline)
    return counts


def _no_child_left():
    """No child process of this one is alive or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    _no_child_left()
    return code, out, err


@pytest.fixture
def deadline():
    """Fail a test still running after 60 s (a deadlock) instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("argv", [CALIBRATE, POWER_CURVE, CHECKS, SEP_RADIUS],
                         ids=["calibrate", "power-curve", "checks", "sep-radius"])
def test_a_parallel_command_starts_one_pool(argv, forks, capsys):
    code, _, _ = _run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert forks == [min(2, CPUS) - 1]


@pytest.mark.parametrize("argv", [
    CALIBRATE + ["--workers", "1"],
    POWER_CURVE + ["--workers", "1"],
    CHECKS + ["--workers", "1"],
    SEP_RADIUS + ["--workers", "1"],
    ["bounds", "--jmax", "100", "--epsilon", "0.01,0.02", "--workers", "2"],
    ["rates", "--epsilon", "0.01,0.02", "--workers", "2"],
], ids=["calibrate-w1", "power-curve-w1", "checks-w1", "sep-radius-w1", "bounds",
        "rates"])
def test_a_serial_or_simulation_free_command_starts_none(argv, forks, capsys):
    code, _, _ = _run(argv, capsys)
    assert code == 0
    assert not any(forks)


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
def test_the_first_error_in_cell_order_is_reported(argv, err, workers, forks, capsys):
    assert _run(argv + ["--jmax", "200", "--reps", "100", "--workers", str(workers)],
                capsys) == (2, "", err)
    assert len(forks) <= 1 and sum(forks) <= min(workers, CPUS) - 1


def _cell(epsilon):
    return ExperimentPlan(spec=RegimeSpec.from_name("mild-ordinary"),
                          noise=NoiseLevels(epsilon, 0.023),
                          config=TestConfig(alpha=0.05, beta=0.5, j_max=50),
                          theta0=Signal.zeros(), n_reps=300, master_seed=0)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_grid_sharing_its_draws_raises_the_first_error_of_a_serial_loop(workers,
                                                                          monkeypatch):
    """The cells of one seed share each chunk's draw table.  The middle
    cell's threshold overflows once the first cell has run on the table, and
    the error raised is the one estimate_alpha raises on that cell alone."""
    made = []
    table = runner._ChunkDraws
    monkeypatch.setattr(runner, "_ChunkDraws",
                        lambda *args: made.append(args) or table(*args))
    with pytest.raises(ValueError, match="the threshold is not finite") as alone:
        estimate_alpha(_cell(1.3e154))
    jobs = [montecarlo._error_job(_cell(epsilon)) for epsilon in (0.01, 1.3e154, 0.02)]
    with pytest.raises(ValueError) as grid:
        _run_jobs(jobs, workers)
    _no_child_left()
    assert str(grid.value) == str(alone.value)
    assert made[0] == (0, 0, 300 // workers, 2)  # seed, lo, hi, the 2-column scan block


def _plan(n_reps=100):
    return ExperimentPlan(spec=RegimeSpec.from_name("mild-ordinary"),
                          noise=NoiseLevels(0.01, 0.01),
                          config=TestConfig(alpha=0.05, beta=0.5, j_max=100),
                          theta0=Signal.zeros(), n_reps=n_reps, master_seed=3)


def test_each_library_call_has_a_pool_of_its_own(forks):
    plan = _plan()
    first = estimate_alpha(plan, workers=2)
    _no_child_left()
    assert estimate_alpha(plan, workers=2) == first
    assert forks == [min(2, CPUS) - 1] * 2
    assert first == estimate_alpha(plan, workers=1)


def test_the_pool_has_at_most_one_process_per_cpu(forks_asked, capsys):
    """3000 workers split 3000 replications into 3000 chunks, but they run in
    one process per CPU, this one included, and the output is that of one
    worker."""
    argv = ["calibrate", "--jmax", "50", "--reps", "3000"]
    assert main(argv + ["--workers", "3000"]) == 0
    many = capsys.readouterr()
    assert forks_asked == [CPUS - 1]
    assert main(argv + ["--workers", "1"]) == 0
    assert capsys.readouterr() == many


@pytest.mark.parametrize("cpus, size", [(1, 1), (None, 1), (500, 100)])
def test_the_pool_size_is_capped_by_the_cpu_count(cpus, size, forks_asked, monkeypatch):
    """At 1000 workers a 100-replication plan has 100 chunks; they run in
    min(100, _usable_cpus()) processes, this one and the forked ones.  Where
    the platform has no affinity mask, the count is os.cpu_count() or 1."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert runner._usable_cpus() == (cpus or 1)
    assert estimate_alpha(_plan(), workers=1000) == estimate_alpha(_plan(), workers=1)
    assert forks_asked == [size - 1, 0]


def test_the_cpu_count_is_that_of_the_affinity_mask(forks_asked, monkeypatch):
    """Pinned to one CPU of two, the default --workers is 1, and a call at 2
    workers runs both chunks in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert runner._usable_cpus() == 1
    assert cli._resolve(cli._build_parser().parse_args(["calibrate"]))["workers"] == 1
    assert estimate_alpha(_plan(), workers=2) == estimate_alpha(_plan(), workers=1)
    assert forks_asked == [0, 0]


def test_a_rate_fit_shares_one_pool_across_its_grid(forks):
    """fit_rate_slope runs every grid point's radius search in one `_run_jobs` call."""
    fit = fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=2)
    _no_child_left()
    assert forks == [min(2, CPUS) - 1]
    assert fit == fit_rate_slope(_plan(), [0.01, 0.005], 0.5, r_lo=1e-3, r_hi=1.0, workers=1)


def test_without_fork_every_chunk_runs_in_this_process(monkeypatch, capsys):
    """Where os.fork is missing, --workers 2 runs both chunks of every cell
    through the one share of this process, and prints what --workers 1 does."""
    assert main(CALIBRATE + ["--workers", "1"]) == 0
    serial = capsys.readouterr()
    shares = []
    share = runner._share

    def recording(built, p, procs):
        shares.append((p, procs, [len(ranges) for _, ranges in built]))
        return share(built, p, procs)

    monkeypatch.setattr(runner, "_share", recording)
    monkeypatch.delattr(os, "fork")
    assert main(CALIBRATE + ["--workers", "2"]) == 0
    assert capsys.readouterr() == serial
    assert shares == [(0, 1, [2] * 8)]


# ---------------------------------------------------------------------------
# Failure paths.  A chunk c of every job runs in process c % procs, so at two
# workers chunk 0 runs in this process and chunk 1 in the forked one.
# ---------------------------------------------------------------------------


def _job(fn, *args):
    return _Job(fn, (os.getpid(), *args), 100, 100, runner._sums)


def _ends_its_process(parent, how, lo, hi):
    if os.getpid() != parent:
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return (hi - lo,)


@needs_two_cpus
@pytest.mark.parametrize("how, status", [("exit", "exit status 3"),
                                         ("kill", "killed by signal 9")])
def test_a_worker_that_dies_is_named_with_its_status(how, status, deadline):
    with pytest.raises(WorkerError, match=rf"worker 1 ended \({status}\)"):
        _run_jobs([_job(_ends_its_process, how)], 2)
    _no_child_left()


def _interrupted_here(parent, raised, lo, hi):
    if os.getpid() == parent:
        raise raised
    time.sleep(60)
    return (hi - lo,)


@needs_two_cpus
@pytest.mark.parametrize("raised", [KeyboardInterrupt(), SystemExit(1)],
                         ids=["KeyboardInterrupt", "SystemExit"])
def test_an_interrupt_in_this_process_kills_every_worker(raised, deadline):
    """An exception that stops this process's own share, rather than being
    recorded as a chunk's error, kills and reaps the workers at once."""
    start = time.monotonic()
    with pytest.raises(type(raised)):
        _run_jobs([_job(_interrupted_here, raised)], 2)
    assert time.monotonic() - start < 30
    _no_child_left()


def _fails_in(parent, where, lo, hi):
    if (os.getpid() == parent) == (where == "here"):
        raise ValueError(f"chunk [{lo}, {hi}) failed {where}")
    return (hi - lo,)


@needs_two_cpus
def test_an_error_in_this_process_waits_for_an_earlier_one_in_a_worker(deadline):
    """A chunk error of this process's share is recorded, not raised at once:
    the worker's error in an earlier job is the first a serial loop meets."""
    jobs = [_job(_fails_in, "there"), _job(_fails_in, "here")]
    with pytest.raises(ValueError, match=r"^chunk \[50, 100\) failed there$"):
        _run_jobs(jobs, 2)
    _no_child_left()
    with pytest.raises(ValueError, match=r"^chunk \[0, 50\) failed here$"):
        _run_jobs(jobs[::-1], 2)
    _no_child_left()


class _NeedsTwoArgs(Exception):
    """Pickles, but does not unpickle: its args hold one string."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class _HoldsALambda(Exception):
    """Does not pickle."""

    def __init__(self):
        super().__init__("holds a lambda")
        self.fn = lambda: None


def _raises_in_the_worker(parent, make, lo, hi):
    if os.getpid() != parent:
        raise make()
    return (hi - lo,)


@needs_two_cpus
@pytest.mark.parametrize("make", [lambda: _NeedsTwoArgs(1, 2), _HoldsALambda],
                         ids=["does-not-unpickle", "does-not-pickle"])
def test_an_error_that_cannot_be_sent_back_arrives_with_its_repr(make, deadline):
    with pytest.raises(WorkerError) as caught:
        _run_jobs([_job(_raises_in_the_worker, make)], 2)
    assert str(caught.value).startswith(f"worker 1 raised {make()!r}, which cannot be sent back")
    _no_child_left()


@needs_two_cpus
@pytest.mark.parametrize("workers", [2, 3])
def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(workers, deadline):
    """A 5000-replication radius cache: each worker's part pickles to well
    over 64 KiB, and the joined cache is the serial one, byte for byte."""
    plan = _plan(5000)

    def as_bytes(parts):
        return [(column.dtype.str, column.tobytes()) for column in montecarlo._joined(parts)]

    job = _Job(montecarlo._build_radius_cache, (plan,), plan.n_reps,
               montecarlo._draw_work(plan), as_bytes)
    forked_chunk = runner._chunk_ranges(plan.n_reps, workers)[1]  # runs in worker 1
    assert len(pickle.dumps(montecarlo._build_radius_cache(plan, *forked_chunk))) > 2 ** 16
    assert _run_jobs([job], workers) == _run_jobs([job], 1)
    _no_child_left()


_WRITES_THEN_FORKS = """
import os, sys
from gsmgof import runner
from gsmgof.gsm import NoiseLevels, Signal
from gsmgof.montecarlo import ExperimentPlan, estimate_alpha
from gsmgof.sequences import RegimeSpec
from gsmgof.testproc import TestConfig

runner._FORK_WORK = 1  # a fork for this small plan
forks = []
fork = os.fork

def counting_fork():
    forks.append(1)
    return fork()

os.fork = counting_fork
assert not (sys.stdout.line_buffering or sys.stdout.write_through)
sys.stdout.write("written once, before the fork\\n")
plan = ExperimentPlan(spec=RegimeSpec.from_name("mild-ordinary"),
                      noise=NoiseLevels(0.01, 0.01),
                      config=TestConfig(alpha=0.05, beta=0.5, j_max=100),
                      theta0=Signal.zeros(), n_reps=100, master_seed=3)
estimate_alpha(plan, workers=2)
sys.stderr.write(f"{len(forks)} forked")
"""


def test_no_buffered_output_is_written_twice():
    """stdout is a pipe, so it is block-buffered and the text is still in the
    buffer at the fork; a worker leaves without flushing it."""
    env = dict(os.environ, PYTHONPATH=str(Path(gsmgof.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", _WRITES_THEN_FORKS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stderr == f"{min(2, CPUS) - 1} forked"
    assert done.stdout == "written once, before the fork\n"


# ---------------------------------------------------------------------------
# The process count follows the work.  At the default _FORK_WORK a call's
# jobs fork one process past the first per 8192 rows of draws they make, a
# row also counting its coordinates at 16 to a row.
# ---------------------------------------------------------------------------

_BENCH = ["--seed", "12345", "--workers", "2"]
SEP_RADIUS_BENCH = ["sep-radius", "--regime", "mild-ordinary", "--epsilon", "1e-2",
                    "--sigma", "1e-2", "--reps", "1000", *_BENCH]
CALIBRATE_SEVERE_BENCH = ["calibrate", "--regime", "severe-ordinary,severe-super",
                          "--epsilon", "1e-2,1e-3", "--sigma", "1e-2,1e-4", "--reps", "2000",
                          *_BENCH]


@pytest.mark.parametrize("argv, forked", [(SEP_RADIUS_BENCH, 0), (CALIBRATE_SEVERE_BENCH, 1)],
                         ids=["sep-radius", "calibrate-severe"])
def test_the_default_threshold_forks_only_for_large_work(argv, forked, forks_asked,
                                                          monkeypatch, capsys):
    """With 2 CPUs at --workers 2, a 1000-replication radius search (2187
    rows) runs both its chunks in this process, and the 8-cell severe grid
    (36 000 rows) forks one worker."""
    monkeypatch.setattr(runner, "_FORK_WORK", FORK_WORK)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    shares = []
    share = runner._share

    def recording(built, p, procs):
        shares.append((p, procs, [len(ranges) for _, ranges in built]))
        return share(built, p, procs)

    monkeypatch.setattr(runner, "_share", recording)
    assert main(argv) == 0
    assert forks_asked == [forked]
    chunks = [2] * len(shares[0][2])
    assert sorted(shares) == [(p, forked + 1, chunks) for p in range(forked + 1)]


def _mild(sigma, n_reps, epsilon=0.01, kappa=KAPPA_DEFAULT, j_max=10_000):
    return ExperimentPlan(spec=RegimeSpec.from_name("mild-ordinary"),
                          noise=NoiseLevels(epsilon, sigma),
                          config=TestConfig(alpha=0.05, beta=0.5, j_max=j_max, kappa=kappa),
                          theta0=Signal.zeros(), n_reps=n_reps, master_seed=12345)


_QUADFORM = montecarlo._quadform_job(10, 0.1, 0.5, 2.0, 100)


@pytest.mark.parametrize("job, geometry, work, exact", [
    # the scan block at 0 (3 coordinates) and the signal row
    (montecarlo._error_job(_mild(1e-2, 1000)), (0, 3), 1000 * 35 // 16, False),
    (montecarlo._radius_job(_mild(1e-2, 1000), 0.5, 1e-3, 1.0, 0.05), (0, 3), 1000 * 35 // 16,
     False),
    (montecarlo._error_job(_mild(1e-2, 1000, epsilon=0.0)), (0, 3), 1000 * 19 // 16, False),
    # the block at 131 (3 words before it), the prefix's head and the signal row
    (montecarlo._error_job(_mild(1e-4, 1500)), (131, 35), 1500 * 102 // 16, False),
    # no block: the head and the signal row
    (montecarlo._error_job(_mild(1e-6, 1500)), (None, 0), 4500, False),
    # the scan block alone
    (montecarlo._containment_job(_mild(1e-4, 1500)), (131, 35), 1500 * 54 // 16, True),
    (_QUADFORM, None, 100 * 26 // 16, True),
], ids=["error", "radius", "error-eps-0", "error-past-prefix", "error-no-block", "containment",
        "quadform"])
def test_each_job_states_the_work_it_draws_at_least(job, geometry, work, exact, monkeypatch):
    """Pinned per job kind, and never more than the rows and sixteenths of
    a row that running the job draws; exact where every row's width is
    known before it runs."""
    if geometry is not None:
        kernel = montecarlo._Kernel(job.args[0], job.args[0].theta0)
        assert (kernel.scan_from, kernel.block) == geometry
    assert job.work == work
    sixteenths = []
    words = gsm.RekeyedDraws._words

    def counted(self, reps, stream, start, widths):
        sixteenths.append(sum(16 + start % 4 + width for width in widths))
        return words(self, reps, stream, start, widths)

    monkeypatch.setattr(gsm.RekeyedDraws, "_words", counted)
    job.fn(*job.args, 0, job.n_reps)
    drawn = sum(sixteenths) // 16
    assert drawn == work if exact else drawn >= work


def test_a_plan_refused_in_its_chunk_is_sized_as_unbounded_work(monkeypatch):
    """A plan whose scan table is refused counts as unbounded work, so it
    forks as it did before the rule, and each chunk raises the kernel's own
    first error, in job order: a theta longer than the horizon before the
    envelope, the envelope of a failing second job after a good first one."""
    monkeypatch.setattr(runner, "_FORK_WORK", FORK_WORK)
    refused = _mild(1e-2, 100, kappa=1e306, j_max=200)
    assert montecarlo._draw_work(refused) == math.inf
    too_long = Signal(np.ones(201))
    envelope = r"^the envelope leaves the float range at kappa=1e\+306, alpha=0.05, from j=3$"
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^theta does not fit inside the horizon$"):
            _run_jobs([montecarlo._error_job(refused, too_long),
                       montecarlo._error_job(refused)], workers)
        with pytest.raises(ValueError, match=envelope):
            _run_jobs([montecarlo._error_job(_mild(1e-2, 100, j_max=200)),
                       montecarlo._error_job(refused)], workers)
        _no_child_left()


@pytest.mark.parametrize("argv, err", [
    *ERROR_CASES,
    (["calibrate", "--kappa", "1e306"],
     "gsm-gof: error: the envelope leaves the float range at kappa=1e+306, alpha=0.05, "
     "from j=3\n"),
], ids=["worker-then-plan", "plan-then-worker", "radius", "worker-then-radius", "kappa"])
def test_the_default_threshold_changes_no_error(argv, err, monkeypatch, capsys):
    monkeypatch.setattr(runner, "_FORK_WORK", FORK_WORK)
    for workers in ("1", "2"):
        assert _run(argv + ["--jmax", "200", "--reps", "100", "--workers", workers],
                    capsys) == (2, "", err)
