"""Monte Carlo harness: error-level estimates, empirical separation radii,
rate-slope fits, and concentration checks.

Every estimate is a deterministic function of (master_seed, rep, stream),
so results are identical across runs and across worker counts: replications
are split into contiguous index ranges and the per-range integer counts are
summed, which is exact regardless of the split.
"""

from __future__ import annotations

import contextlib
import math
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BracketingError
from .gsm import (
    DRAW_BOUND,
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    NoiseLevels,
    RekeyedDraws,
    Signal,
    gaussian_draws,
    simulate,
    spike_index,
)
from .sequences import RegimeSpec, a_inv_sq, a_value, b_vector
from .testproc import (
    Bandwidth,
    TestConfig,
    TestReport,
    _decide,
    _objective,
    _parts_from_sums,
    _scan_table,
    _statistic_sum,
    bandwidth_bracket,
    run_test,
    statistic,
)

__all__ = [
    "ErrorEstimate",
    "ExperimentPlan",
    "QuadformTails",
    "RateFit",
    "bandwidth_escape_bound",
    "check_bandwidth_containment",
    "check_quadform_concentration",
    "empirical_separation_radius",
    "estimate_alpha",
    "estimate_beta",
    "fit_rate_slope",
]

MIN_REPS = 100


@dataclass(frozen=True)
class ExperimentPlan:
    """A reproducible simulation experiment: model, test, null signal, size, seed."""

    spec: RegimeSpec
    noise: NoiseLevels
    config: TestConfig
    theta0: Signal
    n_reps: int
    master_seed: int

    def __post_init__(self) -> None:
        if int(self.n_reps) < MIN_REPS:
            raise ValueError(f"n_reps must be at least {MIN_REPS}, got {self.n_reps}")
        object.__setattr__(self, "n_reps", int(self.n_reps))
        if int(self.master_seed) < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        object.__setattr__(self, "master_seed", int(self.master_seed))


@dataclass(frozen=True)
class ErrorEstimate:
    """Binomial proportion with its plug-in standard error.

    n_degenerate counts replications whose bandwidth collapsed to zero
    (forced acceptance); they are included in the proportion.
    """

    p_hat: float
    se: float
    n_reps: int
    n_degenerate: int

    @classmethod
    def from_counts(cls, count: int, n_reps: int, n_degenerate: int = 0) -> "ErrorEstimate":
        if n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        p = count / n_reps
        return cls(p_hat=p, se=math.sqrt(p * (1.0 - p) / n_reps),
                   n_reps=n_reps, n_degenerate=n_degenerate)


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------


def _chunk_ranges(n_reps: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n_reps) into at most `workers` contiguous pieces."""
    k = max(1, min(int(workers), n_reps))
    base, extra = divmod(n_reps, k)
    ranges = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class _Scope(threading.local):
    """This thread's open _worker_pool scopes and the pool they share."""

    depth = 0
    executor: ProcessPoolExecutor | None = None


_SCOPE = _Scope()


@contextlib.contextmanager
def _worker_pool():
    """A re-entrant scope in which every parallel chunk runs on one process
    pool.  The pool starts on the first parallel submit (_executor) and is
    shut down, its queued chunks cancelled, when the outermost scope exits."""
    _SCOPE.depth += 1
    try:
        yield
    finally:
        _SCOPE.depth -= 1
        if _SCOPE.depth == 0 and _SCOPE.executor is not None:
            executor, _SCOPE.executor = _SCOPE.executor, None
            executor.shutdown(cancel_futures=True)


def _executor(size: int) -> ProcessPoolExecutor:
    """The open scope's pool, started with `size` processes if it has none."""
    if _SCOPE.executor is None:
        _SCOPE.executor = ProcessPoolExecutor(max_workers=size)
    return _SCOPE.executor


def _done(fn: Callable, *args) -> Future:
    """fn(*args) run in this process, as a completed future."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


class _Job(NamedTuple):
    """fn(*args, lo, hi) over the chunk ranges of range(n_reps); finish makes
    the job's result of the chunk results, given in chunk order."""

    fn: Callable
    args: tuple
    n_reps: int
    finish: Callable[[list], Any]


def _sums(parts: list) -> tuple:
    """Chunk results of tuple[int, ...], summed positionally."""
    return tuple(int(sum(col)) for col in zip(*parts))


def _run_jobs(jobs: Iterable[_Job], workers: int) -> list:
    """Each job's result, in job order.

    At workers <= 1 each job runs whole in this process as the iterable
    yields it.  Otherwise every chunk of every job goes to the scope's pool
    (one process per chunk range of the first job) before any result is read.
    Either way the error raised is the first one running the jobs one after
    another meets: a chunk's, in job and chunk order, or that of building a
    job, after the errors of the jobs before it.
    """
    with _worker_pool():
        submitted, error = [], None
        try:
            for job in jobs:
                if workers <= 1:
                    futures = [_done(job.fn, *job.args, 0, job.n_reps)]
                else:
                    ranges = _chunk_ranges(job.n_reps, workers)
                    pool = _executor(len(ranges))
                    futures = [pool.submit(job.fn, *job.args, lo, hi) for lo, hi in ranges]
                submitted.append((job.finish, futures))
        except Exception as exc:  # the jobs already submitted may fail first
            error = exc
        results = [finish([f.result() for f in futures]) for finish, futures in submitted]
    if error is not None:
        raise error
    return results


# ---------------------------------------------------------------------------
# The kernel: replications a row group at a time, drawn only as far as the
# test reads them
# ---------------------------------------------------------------------------

# A row group holds at most _CAP float64 elements per matrix: the first scan
# blocks of its replications, and the arrays of those decided together.  A
# replication whose scan runs past its first block is decided alone.
_CAP = 2 ** 14
_FIRST_BLOCK = 64
_GROUP_ROWS = _CAP // _FIRST_BLOCK


def _row_groups(lo: int, hi: int, rows: int):
    """range(lo, hi) in consecutive pieces of at most `rows`."""
    for start in range(lo, hi, rows):
        yield range(start, min(start + rows, hi))


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


class _Batch(NamedTuple):
    """The replications decided together, one row each (rows are padded to
    the widest window; entries past a row's window are never read)."""

    window: list
    x: np.ndarray
    y: np.ndarray
    eps_xi: np.ndarray
    terms: np.ndarray  # the statistic's (y/x - theta0)**2
    inv2: np.ndarray  # x**-2
    inv4: np.ndarray  # x**-4, also read by the dimension objective
    a_inv_sq: list  # a_w**-2 at each row's window w
    y_finite: np.ndarray


def _batchable(plan: ExperimentPlan, theta: Signal) -> bool:
    """Whether the kernel decides theta's replications under plan: sigma in
    (0, 1), epsilon**2 finite, and no y that a finite draw can overflow.  Any
    other plan runs simulate + run_test itself, one replication at a time."""
    eps, sigma, j_max = plan.noise.epsilon, plan.noise.sigma, plan.config.j_max
    if len(theta) > j_max or not (0.0 < sigma < 1.0 and math.isfinite(eps * eps)):
        return False
    with np.errstate(over="ignore"):
        bt = b_vector(plan.spec, j_max) * theta.padded(j_max)
    return math.isfinite(float(np.max(np.abs(bt))) + eps * DRAW_BOUND)


class _Kernel:
    """run_test(simulate(theta, ..., rep=rep), plan.theta0, ...) over many
    replications of a plan that _batchable admits, a row group at a time.

    Only what the test reads is drawn: x until the bandwidth scan stops, and
    the signal stream up to the window.  The streams are counter-based, so
    these are prefixes of simulate's draws, and every step works element by
    element (numpy's power included) or sums one row in index order, so every
    value is the reference path's.  A finite draw is at most DRAW_BOUND in
    size, so under such a plan only an infinite draw (chance 2**-53) makes x
    or y overflow; one inside what is drawn raises as simulate does, one past
    it goes unseen.
    """

    def __init__(self, plan: ExperimentPlan, theta: Signal) -> None:
        self.plan = plan
        self.j_max = j_max = plan.config.j_max
        self.eps, self.sigma = plan.noise.epsilon, plan.noise.sigma
        self.b = b_vector(plan.spec, j_max)
        self.bt = self.b * theta.padded(j_max)
        self.theta0 = plan.theta0.padded(max(j_max, len(plan.theta0)))
        self.envelope = self.sigma * _scan_table(plan.config.alpha, plan.config.kappa, j_max)
        self.draws = RekeyedDraws(plan.master_seed)

    # -- bandwidth scan ------------------------------------------------------

    def first_blocks(self, reps: range) -> tuple[np.ndarray, list]:
        """x[:n], n = min(64, j_max), of each replication (one row each), and
        its bandwidth where the scan ends inside that block (None where the
        scan goes on)."""
        n = min(_FIRST_BLOCK, self.j_max)
        x = self.b[:n] + self.sigma * self.draws.rows(reps, OPERATOR_STREAM, 0, [n] * len(reps))
        hits = np.abs(x) <= self.envelope[:n]
        first = np.where(hits.any(axis=1), hits.argmax(axis=1), -1).tolist()
        end = Bandwidth(n, True) if n == self.j_max else None
        return x, [end if k < 0 else Bandwidth(k, False) for k in first]

    def deepen(self, rep: int, x: np.ndarray) -> tuple[Bandwidth, np.ndarray]:
        """Bandwidth of a replication whose first block x holds no index
        inside the envelope, and the prefix of x drawn to find it: blocks of
        128, 256, ... coordinates (the last one cut at the horizon) until one
        holds such an index.  Element by element, this is
        empirical_bandwidth on the whole of x."""
        blocks, n, size = [x], x.size, 2 * _FIRST_BLOCK
        while n < self.j_max:
            k = min(size, self.j_max - n)
            eta = self.draws.rows([rep], OPERATOR_STREAM, n, [k])[0]
            block = self.b[n:n + k] + self.sigma * eta
            blocks.append(block)
            hits = np.flatnonzero(np.abs(block) <= self.envelope[n:n + k])
            if hits.size:
                return Bandwidth(n + int(hits[0]), False), np.concatenate(blocks)
            n += k
            size *= 2
        return Bandwidth(self.j_max, True), np.concatenate(blocks)

    # -- one row group ----------------------------------------------------------

    def group(self, reps: range):
        """(report, x_win, y_win, eps_xi_win) of each replication in reps, in
        order, until the first one whose reference path raises: its error is
        raised there."""
        x, bands = self.first_blocks(reps)
        finite = np.isfinite(x).all(axis=1)
        done = [i for i, band in enumerate(bands) if band is not None]
        decided = self.decide([reps[i] for i in done], x[done], [bands[i] for i in done])
        for i, rep in enumerate(reps):
            if not finite[i]:
                raise ValueError("x must be finite")
            if bands[i] is None:
                band, prefix = self.deepen(rep, x[i])
                yield from self.decide([rep], _finite("x", prefix)[None], [band])
            else:
                yield next(decided)

    # -- decisions --------------------------------------------------------------

    def decide(self, reps, x: np.ndarray, bands: list):
        """(report, x_win, y_win, eps_xi_win) of replications whose scan has
        ended, in order; row i of x holds the prefix drawn for reps[i].

        Most are decided together.  One with a zero bandwidth (nothing to
        batch), an observed coefficient that is exactly zero, or a y that is
        not finite is decided by testproc's own step, alone.
        """
        m = np.array([band.value for band in bands], dtype=np.int64)
        live = m > 0
        zero = x[:, :m.max(initial=0)] == 0.0
        if zero.any():
            live &= ~(zero & (np.arange(zero.shape[1]) < m[:, None])).any(axis=1)
        rows = np.flatnonzero(live)
        slots = dict(zip(rows.tolist(), range(rows.size)))
        if rows.size:
            xs = x if rows.size == len(reps) else x[rows]  # no copy when every row is batched
            batch = self._batch([reps[i] for i in rows], xs, m[rows])
        eps, sigma, alpha = self.eps, self.sigma, self.plan.config.alpha
        for i, rep in enumerate(reps):
            r = slots.get(i)
            if r is None or not batch.y_finite[r]:
                yield self._by_reference(rep, bands[i], x[i])
                continue
            w = batch.window[r]
            value = _statistic_sum(batch.terms[r, :w])
            cutoff = _parts_from_sums(math.fsum(batch.inv2[r, :w].tolist()),
                                      math.fsum(batch.inv4[r, :w].tolist()),
                                      batch.a_inv_sq[r], eps, sigma, alpha).total
            report = TestReport(bandwidth=bands[i].value, window=w, statistic=value,
                                threshold=cutoff, reject=bool(value > cutoff), degenerate=False,
                                bandwidth_truncated=bands[i].truncated)
            yield report, batch.x[r, :w].copy(), batch.y[r, :w].copy(), batch.eps_xi[r, :w].copy()

    def _batch(self, reps: list, x: np.ndarray, m: np.ndarray) -> _Batch:
        """The arrays of replications decided together.  The dimension
        objective runs on the running sums of x**-4 along each row, past each
        row's bandwidth masked."""
        spec, config = self.plan.spec, self.plan.config
        with np.errstate(all="ignore"):  # entries past a row's window may overflow
            if config.dimension is None:
                inv4 = x[:, :m.max()] ** -4.0
                objective = _objective(spec, np.cumsum(inv4, axis=1),
                                       np.arange(1, inv4.shape[1] + 1),
                                       self.eps, self.sigma, config.alpha, config.beta)
                if m.min() < inv4.shape[1]:
                    objective[np.arange(inv4.shape[1]) >= m[:, None]] = np.inf
                window = np.minimum(objective.argmin(axis=1) + 1, m)
            else:
                window = np.minimum(config.dimension, m)
                inv4 = x[:, :window.max()] ** -4.0
            n = int(window.max())
            y, eps_xi = self._signal_windows(reps, window.tolist())
            xs = x[:, :n]
            return _Batch(window.tolist(), x, y, eps_xi, (y / xs - self.theta0[:n]) ** 2,
                          xs ** -2.0, inv4, a_inv_sq(spec, window).tolist(),
                          np.isfinite(y).all(axis=1))

    def _signal_windows(self, reps: list, widths: list) -> tuple[np.ndarray, np.ndarray]:
        """y and epsilon*xi over each replication's window, one row each."""
        n = max(widths)
        if self.eps > 0.0:
            eps_xi = self.eps * self.draws.rows(reps, SIGNAL_STREAM, 0, widths)
            return self.bt[:n] + eps_xi, eps_xi
        return np.tile(self.bt[:n], (len(reps), 1)), np.zeros((len(reps), n))

    def _by_reference(self, rep: int, band: Bandwidth, x: np.ndarray):
        """One replication decided by testproc's own step."""
        window = [np.zeros(0), np.zeros(0)]

        def y_window(w: int) -> np.ndarray:
            y, eps_xi = self._signal_windows([rep], [w])
            window[:] = _finite("y", y[0].copy()), eps_xi[0].copy()
            return window[0]

        plan = self.plan
        report = _decide(band, x, y_window, plan.theta0, plan.spec, plan.noise, plan.config)
        return report, x[:report.window].copy(), window[0], window[1]


def _simulated(plan: ExperimentPlan, theta: Signal, rep: int):
    """One replication by simulate + run_test, with the windows it read."""
    obs = simulate(theta, plan.spec, plan.noise, plan.master_seed, plan.config.j_max, rep=rep)
    report = run_test(obs, plan.theta0, plan.spec, plan.noise, plan.config)
    w, eps = report.window, plan.noise.epsilon
    xi = gaussian_draws(plan.master_seed, rep, SIGNAL_STREAM, w) if eps > 0.0 else np.zeros(w)
    return report, obs.x[:w].copy(), obs.y[:w].copy(), eps * xi


def _replications(plan: ExperimentPlan, theta: Signal, lo: int, hi: int):
    """For each replication in [lo, hi), yield (report, x_win, y_win,
    eps_xi_win): the report of run_test(simulate(theta, ..., rep=rep),
    plan.theta0, ...) and the windows of x, y and the signal noise it read,
    as owned arrays.  An error is raised where that loop would raise first."""
    if not _batchable(plan, theta):
        yield from (_simulated(plan, theta, rep) for rep in range(lo, hi))
        return
    kernel = _Kernel(plan, theta)
    for reps in _row_groups(lo, hi, _GROUP_ROWS):
        yield from kernel.group(reps)


def _reject_counts(plan: ExperimentPlan, theta: Signal, lo: int, hi: int) -> tuple[int, int]:
    """(rejections, degenerate replications) over reps in [lo, hi)."""
    n_reject = 0
    n_degenerate = 0
    for report, *_ in _replications(plan, theta, lo, hi):
        n_reject += report.reject
        n_degenerate += report.degenerate
    return n_reject, n_degenerate


# ---------------------------------------------------------------------------
# Error-level estimates
# ---------------------------------------------------------------------------


def _error_job(plan: ExperimentPlan, theta: Signal | None = None) -> _Job:
    """estimate_alpha(plan) as a job, or estimate_beta(plan, theta) given theta."""
    def finish(parts: list) -> ErrorEstimate:
        n_reject, n_degen = _sums(parts)
        count = n_reject if theta is None else plan.n_reps - n_reject
        return ErrorEstimate.from_counts(count, plan.n_reps, n_degen)

    data = plan.theta0 if theta is None else theta
    return _Job(_reject_counts, (plan, data), plan.n_reps, finish)


def estimate_alpha(plan: ExperimentPlan, workers: int = 1) -> ErrorEstimate:
    """First-kind error estimate: rejection frequency with theta = theta0."""
    return _run_jobs([_error_job(plan)], workers)[0]


def estimate_beta(plan: ExperimentPlan, theta: Signal, workers: int = 1) -> ErrorEstimate:
    """Second-kind error estimate: acceptance frequency when the data come
    from `theta` but the test still targets plan.theta0.

    Degenerate replications never reject, so they count as acceptances.
    """
    return _run_jobs([_error_job(plan, theta)], workers)[0]


# ---------------------------------------------------------------------------
# Empirical separation radius (bisection with common random numbers)
# ---------------------------------------------------------------------------


class _RadiusRep(NamedTuple):
    """Everything one replication needs to re-decide the test at any spike
    radius without re-simulating: the observations inside its window w and
    the signal noise there.  Only the spiked coordinate of y changes with the
    radius; the bandwidth, selected dimension and threshold depend on x only.
    Each array is an owned copy of length w; w = 0 marks a degenerate
    replication, which never rejects."""

    null_reject: bool
    threshold: float
    y_win: np.ndarray
    x_win: np.ndarray
    eps_xi_win: np.ndarray


def _build_radius_cache(plan: ExperimentPlan, lo: int, hi: int) -> list[_RadiusRep]:
    return [_RadiusRep(report.reject, report.threshold, y_win, x_win, eps_xi_win)
            for report, x_win, y_win, eps_xi_win in _replications(plan, plan.theta0, lo, hi)]


def _accept_counts_from_cache(cache: Sequence[_RadiusRep], plan: ExperimentPlan,
                              r: float) -> tuple[int, int]:
    """(acceptances, degenerate count) at spike radius r, replaying each
    cached replication with only the spiked coordinate of y recomputed.
    Bit-identical to estimate_beta on the matching spike alternative."""
    j_max = plan.config.j_max
    d_star = spike_index(plan.spec, r, j_max)
    k = d_star - 1
    theta0_k = plan.theta0.padded(max(d_star, len(plan.theta0)))[k]
    spiked = b_vector(plan.spec, j_max)[k] * (theta0_k + r)
    n_accept = 0
    for entry in cache:
        w = entry.y_win.size
        if d_star > w:  # the spike is outside the window: the null decision stands
            rejected = entry.null_reject
        else:
            y = entry.y_win.copy()
            y[k] = spiked + entry.eps_xi_win[k]
            rejected = statistic(y, entry.x_win, plan.theta0, w, w) > entry.threshold
        n_accept += not rejected
    return n_accept, sum(entry.y_win.size == 0 for entry in cache)


def empirical_separation_radius(plan: ExperimentPlan, beta_target: float,
                                r_lo: float, r_hi: float, tol: float = 0.05,
                                workers: int = 1) -> float:
    """Smallest spike radius whose estimated second-kind error hits the target.

    Bisects on the radius of a single-coordinate spike placed at the deepest
    coordinate the smoothness class allows for that radius.  All radii are
    evaluated on common random numbers (one simulation pass per replication,
    cached), so the comparison across radii is noise-free.  Stops when the
    bracket width drops below tol times its midpoint and returns the midpoint.

    Raises BracketingError if [r_lo, r_hi] does not straddle the target:
    the second-kind error estimate must exceed beta_target at r_lo and fall
    below it at r_hi.  The degenerate call with r_lo == r_hi is accepted when
    that single radius already sits within three standard errors of the
    target, and refused otherwise.
    """
    if not 0.0 < beta_target < 1.0:
        raise ValueError(f"beta_target must lie in (0, 1), got {beta_target!r}")
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and 0.0 < r_lo <= r_hi):
        raise ValueError(f"need finite radii with 0 < r_lo <= r_hi, got {r_lo!r}, {r_hi!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    [cache] = _run_jobs([_Job(_build_radius_cache, (plan,), plan.n_reps,
                              lambda parts: [entry for part in parts for entry in part])],
                        workers)
    n = plan.n_reps

    def beta_at(r: float) -> float:
        n_accept, _ = _accept_counts_from_cache(cache, plan, r)
        return n_accept / n

    if r_lo == r_hi:
        p = beta_at(r_lo)
        se = math.sqrt(p * (1.0 - p) / n)
        if abs(p - beta_target) <= 3.0 * se:
            return r_lo
        raise BracketingError(
            f"single radius {r_lo} has second-kind error {p:.4f}, "
            f"not within 3 standard errors of the target {beta_target}"
        )

    p_lo = beta_at(r_lo)
    if p_lo == beta_target:
        return r_lo
    if p_lo < beta_target:
        raise BracketingError(
            f"second-kind error {p_lo:.4f} at r_lo={r_lo} is already below the "
            f"target {beta_target}; shrink r_lo"
        )
    p_hi = beta_at(r_hi)
    if p_hi == beta_target:
        return r_hi
    if p_hi > beta_target:
        raise BracketingError(
            f"second-kind error {p_hi:.4f} at r_hi={r_hi} is still above the "
            f"target {beta_target}; the alternative is undetectable at that radius"
        )

    lo, hi = float(r_lo), float(r_hi)
    while hi - lo > tol * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        if beta_at(mid) > beta_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _radius_bracket(spec: RegimeSpec, r_lo, r_hi) -> tuple[float, float]:
    """(r_lo, r_hi) as floats, a missing one set as fit_rate_slope documents."""
    r_hi = 1.0 / float(a_value(spec, 1)) if r_hi is None else float(r_hi)
    r_lo = r_hi * 2.0 ** -14 if r_lo is None else float(r_lo)
    return r_lo, r_hi


class RateFit(NamedTuple):
    """Least-squares slope of log squared radius against log signal noise."""

    slope: float
    intercept: float
    epsilons: tuple
    radii: tuple


def fit_rate_slope(plan_template: ExperimentPlan, epsilon_grid: Sequence[float],
                   beta_target: float, r_lo: float | None = None,
                   r_hi: float | None = None, tol: float = 0.05,
                   workers: int = 1) -> RateFit:
    """Empirical rate exponent: fit log r_hat^2 ~ slope * log eps + intercept.

    One separation radius is estimated per grid point by
    empirical_separation_radius, holding everything in plan_template fixed
    except the signal noise level.  Default bracket: r_hi at the class
    ceiling for a first-coordinate spike, r_lo a factor 2^-14 below it.
    """
    eps_values = [float(e) for e in epsilon_grid]
    if len(set(eps_values)) < 2:
        raise ValueError("epsilon_grid needs at least two distinct values")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise ValueError("epsilon grid values must lie in (0, 1)")
    r_lo, r_hi = _radius_bracket(plan_template.spec, r_lo, r_hi)
    radii = []
    for eps in eps_values:
        plan = replace(plan_template, noise=NoiseLevels(eps, plan_template.noise.sigma))
        radii.append(empirical_separation_radius(plan, beta_target, r_lo, r_hi,
                                                 tol, workers))
    slope, intercept = np.polyfit(np.log(eps_values), np.log(np.square(radii)), 1)
    return RateFit(float(slope), float(intercept), tuple(eps_values), tuple(radii))


# ---------------------------------------------------------------------------
# Concentration checks
# ---------------------------------------------------------------------------


def bandwidth_escape_bound(alpha: float, kappa: float) -> float:
    """Probability budget for the empirical bandwidth leaving its bracket:
    alpha/10 + alpha * pi^2 / (6 * kappa)."""
    return alpha / 10.0 + alpha * math.pi ** 2 / (6.0 * kappa)


def _containment_failures(plan: ExperimentPlan, low: int, high: int,
                          high_truncated: bool, lo: int, hi: int) -> tuple[int, int]:
    kernel = _Kernel(plan, Signal.zeros(0))
    n_fail = 0
    for reps in _row_groups(lo, hi, _GROUP_ROWS):
        x, bands = kernel.first_blocks(reps)
        for rep, row, band in zip(reps, x, bands):
            if band is None:
                band, _ = kernel.deepen(rep, row)
            inside = band.value >= low and (band.value < high
                                            or (high_truncated and band.truncated))
            n_fail += not inside
    return (n_fail,)


def check_bandwidth_containment(plan: ExperimentPlan, workers: int = 1) -> ErrorEstimate:
    """Frequency of the empirical bandwidth escaping its deterministic bracket
    [low, high).  A truncated scan is counted as contained only when the
    bracket's high end is itself truncated (both sides ran off the horizon).
    """
    if plan.noise.sigma <= 0.0:
        raise ValueError("bandwidth containment needs a positive operator noise level")
    bracket = bandwidth_bracket(plan.spec, plan.noise.sigma, plan.config.alpha,
                                plan.config.kappa, plan.config.j_max)
    [(n_fail,)] = _run_jobs([_Job(_containment_failures,
                                  (plan, bracket.low, bracket.high, bracket.high_truncated),
                                  plan.n_reps, _sums)], workers)
    return ErrorEstimate.from_counts(n_fail, plan.n_reps)


class QuadformTails(NamedTuple):
    """Estimated right/left tail exceedance frequencies for the quadratic form."""

    upper: ErrorEstimate
    lower: ErrorEstimate


def _quadform_failures(d: int, nu: np.ndarray, v: np.ndarray, mean: float,
                       up_cut: float, low_cut: float, master_seed: int,
                       lo: int, hi: int) -> tuple[int, int]:
    draws = RekeyedDraws(master_seed)
    n_up = 0
    n_low = 0
    for reps in _row_groups(lo, hi, max(1, _CAP // d)):
        omega = draws.rows(reps, QUADFORM_STREAM, 0, [d] * len(reps))
        for terms in (nu + v * omega) ** 2:
            dev = math.fsum(terms.tolist()) - mean
            n_up += dev > up_cut
            n_low += dev < low_cut
    return n_up, n_low


def check_quadform_concentration(d: int, nu, v, x: float, n_reps: int,
                                 master_seed: int = 0, workers: int = 1) -> QuadformTails:
    """Tail frequencies of sum_j (nu_j + v_j * omega_j)^2 around its mean.

    With variance proxy S = sum v^4 + 2 sum v^2 nu^2, the upper event is a
    deviation above 2*sqrt(S*x) + 2*x*max(v^2) and the lower event a deviation
    below -2*sqrt(S*x); each should occur with probability at most exp(-x).
    Scalars nu, v broadcast to length d.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if int(n_reps) < 1:
        raise ValueError("n_reps must be >= 1")
    n_reps = int(n_reps)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (d,)).copy()
    v = np.broadcast_to(np.asarray(v, dtype=float), (d,)).copy()
    if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(v))):
        raise ValueError("nu and v must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            mean = math.fsum((nu ** 2 + v ** 2).tolist())
            proxy = math.fsum((v ** 4).tolist()) + 2.0 * math.fsum((v ** 2 * nu ** 2).tolist())
            up_cut = 2.0 * math.sqrt(proxy * x) + 2.0 * x * float(np.max(v ** 2))
        except OverflowError:  # finite terms whose sum is not
            mean = proxy = up_cut = math.inf
    if not all(map(math.isfinite, (mean, proxy, up_cut))):
        raise ValueError("the mean, the variance proxy and the cuts must be finite")
    low_cut = -2.0 * math.sqrt(proxy * x)
    [(n_up, n_low)] = _run_jobs([_Job(_quadform_failures,
                                      (d, nu, v, mean, up_cut, low_cut, master_seed),
                                      n_reps, _sums)], workers)
    return QuadformTails(
        upper=ErrorEstimate.from_counts(n_up, n_reps),
        lower=ErrorEstimate.from_counts(n_low, n_reps),
    )
