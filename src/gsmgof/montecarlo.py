"""Monte Carlo harness: error-level estimates, empirical separation radii,
rate-slope fits, and concentration checks.

Every estimate is a deterministic function of (master_seed, rep, stream),
so results are identical across runs and across worker counts: replications
are split into contiguous index ranges and the per-range integer counts are
summed, which is exact regardless of the split.
"""

from __future__ import annotations

import math
import os
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
from .sequences import RegimeSpec, _count, a_inv_sq, a_value, b_vector
from .testproc import (
    TestConfig,
    _check_unit,
    _objective,
    _objective_weight,
    _parts_from_sums,
    _scan_table,
    _statistic_sum,
    _threshold_totals,
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
        object.__setattr__(self, "n_reps", _count("n_reps", self.n_reps, low=MIN_REPS))
        object.__setattr__(self, "master_seed", _count("master_seed", self.master_seed, low=0))
        if self.master_seed >= 2 ** 128:
            raise ValueError(f"master_seed must lie in [0, 2**128), got {self.master_seed}")


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
        n_reps = _count("n_reps", n_reps)
        p = count / n_reps
        return cls(p_hat=p, se=math.sqrt(p * (1.0 - p) / n_reps),
                   n_reps=n_reps, n_degenerate=n_degenerate)


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------


def _chunk_ranges(n_reps: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n_reps) into at most `workers` contiguous pieces."""
    k = min(workers, n_reps)
    base, extra = divmod(n_reps, k)
    ranges = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


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

    At workers = 1 each job runs whole in this process as the iterable
    yields it.  Otherwise every chunk of every job goes to one process pool
    before any result is read.  The pool starts on the first job, with one
    process per chunk range of that job but at most one per CPU, and is shut
    down, its queued chunks cancelled, before this returns.  Either way the
    error raised is the first one running the jobs one after another meets:
    a chunk's or a finish's, in job and chunk order, or that of building a
    job, after the errors of the jobs before it.
    """
    workers = _count("workers", workers)
    submitted, error, pool = [], None, None
    try:
        try:
            for job in jobs:
                if workers == 1:
                    futures = [_done(job.fn, *job.args, 0, job.n_reps)]
                else:
                    ranges = _chunk_ranges(job.n_reps, workers)
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=min(len(ranges),
                                                                   os.cpu_count() or 1))
                    futures = [pool.submit(job.fn, *job.args, lo, hi) for lo, hi in ranges]
                submitted.append((job.finish, futures))
        except Exception as exc:  # the jobs already submitted may fail first
            error = exc
        results = [finish([f.result() for f in futures]) for finish, futures in submitted]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if error is not None:
        raise error
    return results


# ---------------------------------------------------------------------------
# The kernel: replications a row group at a time, drawn only as far as the
# test reads them
# ---------------------------------------------------------------------------

# A row group holds at most _CAP float64 elements per matrix: the batched scan
# blocks of its replications, and the arrays of those decided together.  A
# replication whose scan runs past that block scans on alone; one whose window
# depends on x past what the group drew is decided alone.
_CAP = 2 ** 14
_FIRST_BLOCK = 64
_GROUP_ROWS = _CAP // _FIRST_BLOCK
_PREFIX = 16  # columns of the dimension objective run for every row


def _row_groups(lo: int, hi: int, rows: int):
    """range(lo, hi) in consecutive pieces of at most `rows`."""
    for start in range(lo, hi, rows):
        yield range(start, min(start + rows, hi))


class _Outcomes(NamedTuple):
    """run_test's report of each replication of a run of consecutive ones, a
    column per field, and the windows of x, y and the signal noise it read.
    Replication i's windows are x[starts[i]:starts[i] + width[i]] (and so
    on), laid end to end.  Width 0 marks a degenerate report: statistic 0,
    threshold NaN, no rejection."""

    bandwidth: np.ndarray
    width: np.ndarray  # the report's window, min(d, m)
    statistic: np.ndarray
    threshold: np.ndarray
    reject: np.ndarray
    truncated: np.ndarray  # the report's bandwidth_truncated
    starts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    eps_xi: np.ndarray


def _starts(width: np.ndarray) -> np.ndarray:
    """The offsets of windows of these widths laid end to end."""
    return np.cumsum(width) - width


def _joined(parts: Sequence[_Outcomes]) -> _Outcomes:
    """The outcomes of consecutive runs, in order, as those of one run."""
    outcomes = _Outcomes(*map(np.concatenate, zip(*parts)))
    return outcomes._replace(starts=_starts(outcomes.width))


def _batchable(plan: ExperimentPlan, theta: Signal) -> bool:
    """Whether the kernel decides theta's replications under plan: sigma in
    (0, 1), epsilon**2 finite, and no y that a draw can overflow.  Any
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

    Only the x coordinates that can change a decision are drawn, with two
    certificates:

    - the scan's certain prefix: every draw is under DRAW_BOUND in size, so
      below `start`, the first j with b_j <= sigma * (envelope_j +
      DRAW_BOUND), no |x_j| can reach the envelope (nor be zero; the slack
      of 8.3 over the largest draw, 8.2924, covers the rounding of x).  The
      scan starts there; when start is the horizon it draws nothing.
    - the dimension objective's certain argmin: it runs over the first
      _PREFIX coordinates, and a row whose longer objective cannot beat the
      minimum found there is decided from them (see _windows).

    Besides those, x is drawn up to the bandwidth where the argmin is not
    certain (or up to a fixed dimension past the prefix), and the signal
    stream up to the window.  The streams are counter-based, so these are
    slices of simulate's draws, and every step works element by element
    (numpy's power included) or sums one row in index order, so every value
    is the reference path's.  Every draw is under DRAW_BOUND in size, so
    under such a plan no x or y overflows.
    """

    def __init__(self, plan: ExperimentPlan, theta: Signal) -> None:
        self.plan = plan
        config = plan.config
        self.j_max = j_max = config.j_max
        self.eps, self.sigma = plan.noise.epsilon, plan.noise.sigma
        self.b = b_vector(plan.spec, j_max)
        self.bt = self.b * theta.padded(j_max)
        self.theta0 = plan.theta0.padded(max(j_max, len(plan.theta0)))
        self.envelope = self.sigma * _scan_table(config.alpha, config.kappa, j_max)
        self.draws = RekeyedDraws(plan.master_seed)
        reach = np.flatnonzero(self.b <= self.envelope + self.sigma * DRAW_BOUND)
        self.start = start = int(reach[0]) if reach.size else j_max
        # The scan's batched block starts at 0 if start falls in the first
        # block, at start past it; None: nothing below the horizon triggers.
        self.scan_from = None if start >= j_max else 0 if start < _FIRST_BLOCK else start
        # tail_dim: the dimension past the prefix with the smallest bias; None
        # turns the argmin certificate off (a fixed dimension, or a deviation
        # weight of 0 or inf, where x**-4 overflowing past the prefix can
        # make the objective NaN there).
        self.prefix = min(_PREFIX, j_max)
        self.tail_dim = None
        if (config.dimension is None and self.prefix < j_max
                and 0.0 < _objective_weight(self.eps, config.alpha, config.beta) < math.inf):
            bias = self.objective(np.zeros(j_max - self.prefix),
                                  np.arange(self.prefix + 1, j_max + 1))
            self.tail_dim = np.array([self.prefix + 1 + int(bias.argmin())])

    def _operator(self, reps, start: int, n: int) -> np.ndarray:
        """x[start:start + n] of each replication, one row each."""
        eta = self.draws.rows(reps, OPERATOR_STREAM, start, [n] * len(reps))
        return self.b[start:start + n] + self.sigma * eta

    def objective(self, inv4_sums, dims) -> np.ndarray:
        """testproc's dimension objective under the plan."""
        config = self.plan.config
        return _objective(self.plan.spec, inv4_sums, dims, self.eps, self.sigma,
                          config.alpha, config.beta)

    # -- one row group ----------------------------------------------------------

    def bandwidths(self, reps: range) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """The batched scan block x[lo:lo + 64] of each replication (one row
        each; lo = scan_from, the block cut at the horizon), and each one's
        bandwidth as two columns: m, and whether the scan ran to the horizon
        (m = j_max).  A scan that goes on past that block continues alone in
        blocks of 128, 256, ... coordinates (the last one cut at the horizon)
        until one holds an index inside the envelope: element by element,
        this is empirical_bandwidth on the whole of x.  No block is drawn when
        no index below the horizon triggers."""
        lo = self.scan_from
        if lo is None:
            return None, np.full(len(reps), self.j_max), np.ones(len(reps), dtype=bool)
        n = min(_FIRST_BLOCK, self.j_max - lo)
        block = self._operator(reps, lo, n)
        hits = np.abs(block) <= self.envelope[lo:lo + n]
        truncated = ~hits.any(axis=1)
        m = np.where(truncated, self.j_max, hits.argmax(axis=1) + lo)
        for i in np.flatnonzero(truncated).tolist():
            at, size = lo + n, 2 * _FIRST_BLOCK
            while truncated[i] and at < self.j_max:
                width = min(size, self.j_max - at)
                inside = np.flatnonzero(np.abs(self._operator([reps[i]], at, width)[0])
                                        <= self.envelope[at:at + width])
                if inside.size:
                    m[i], truncated[i] = at + inside[0], False
                at, size = at + width, 2 * size
        return block, m, truncated

    def group(self, reps: range) -> _Outcomes:
        """The outcomes of the replications in reps (see decide)."""
        block, m, truncated = self.bandwidths(reps)
        head = block if self.scan_from == 0 else self._operator(reps, 0, self.prefix)
        return self.decide(reps, head, m, truncated)

    # -- decisions --------------------------------------------------------------

    def decide(self, reps, head: np.ndarray, m: np.ndarray, truncated: np.ndarray) -> _Outcomes:
        """The outcomes of replications whose scan has ended (bandwidths m,
        truncated); row i of head holds x[:h] of reps[i] (h the same for all).

        Most are decided together from head, their windows gathered end to
        end: only the math.fsums of each one's statistic terms, x**-2 and
        x**-4 are taken one by one, and the thresholds come from those sums
        at once (_threshold_totals).  One with a zero bandwidth is
        degenerate.  One whose window depends on x past head draws what its
        decision reads and is decided alone.  The error raised is the first
        one the reference path meets over reps in order, as it raises it.
        No x that a decision reads is exactly zero, which the reference path
        would refuse: a zero x_j at or past start ends the scan at or before
        j, and below start |x_j| > 0 is certain.
        """
        window = self._windows(head, m)
        width = np.maximum(window, 0)  # 0 for now where decided alone
        rows = np.flatnonzero(width)
        w = width[rows]
        n = int(w.max(initial=0))
        inside = np.arange(n) < width[:, None]
        x, col = head[:, :n][inside], np.nonzero(inside)[1]
        if self.eps > 0.0:
            xi = self.draws.rows([reps[i] for i in rows.tolist()], SIGNAL_STREAM, 0, w.tolist())
            eps_xi = self.eps * xi[inside[rows]]
            y = self.bt[col] + eps_xi
        else:
            y, eps_xi = self.bt[col], np.zeros(col.size)
        with np.errstate(all="ignore"):  # a sum that is not finite is refused below
            terms = (y / x - self.theta0[col]) ** 2
            inv2, inv4 = x ** -2.0, x ** -4.0
        lo = _starts(w)
        t, i2, i4, sums = terms.tolist(), inv2.tolist(), inv4.tolist(), []
        for a, b in zip(lo.tolist(), (lo + w).tolist()):
            try:
                sums.append((math.fsum(t[a:b]), math.fsum(i2[a:b]), math.fsum(i4[a:b])))
            except OverflowError:  # finite terms whose sum is not: refused below
                sums.append((math.inf,) * 3)
        value, inv2_sum, inv4_sum = np.array(sums).reshape(-1, 3).T
        alpha, a_w = self.plan.config.alpha, a_inv_sq(self.plan.spec, w)
        cutoff = _threshold_totals(inv2_sum, inv4_sum, a_w, self.eps, self.sigma, alpha)
        bad = np.flatnonzero(~(np.isfinite(value) & np.isfinite(cutoff)))
        first = rows[bad[0]] if bad.size else len(reps)
        alone = np.flatnonzero(window[:first] < 0)  # decided, or raising, before row first
        solo = [self._alone(reps[i], m[i:i + 1], truncated[i:i + 1]) for i in alone.tolist()]
        if bad.size:  # the reference path's error there: the statistic's, else the threshold's
            span = slice(lo[bad[0]], lo[bad[0]] + w[bad[0]])
            _statistic_sum(terms[span])
            _parts_from_sums(math.fsum(inv2[span].tolist()), math.fsum(inv4[span].tolist()),
                             a_w[bad[0]].item(), self.eps, self.sigma, alpha)
            raise AssertionError("_threshold_totals disagrees with _parts_from_sums")
        statistic = np.zeros(len(reps))
        statistic[rows] = value
        threshold = np.full(len(reps), math.nan)
        threshold[rows] = cutoff
        windows = x, y, eps_xi
        if solo:
            solo = _joined(solo)
            at = np.repeat(_starts(width)[alone], solo.width)
            windows = [np.insert(flat, at, own)
                       for flat, own in zip(windows, (solo.x, solo.y, solo.eps_xi))]
            width[alone], statistic[alone], threshold[alone] = \
                solo.width, solo.statistic, solo.threshold
        return _Outcomes(m, width, statistic, threshold, statistic > threshold, truncated,
                         _starts(width), *windows)

    def _alone(self, rep: int, m: np.ndarray, truncated: np.ndarray) -> _Outcomes:
        """The outcome of one replication (one-row columns m, truncated), on
        the x[:n] it reads (n = m, or a fixed dimension below it) drawn here."""
        dimension = self.plan.config.dimension
        n = m.item() if dimension is None else min(dimension, m.item())
        return self.decide([rep], self._operator([rep], 0, n), m, truncated)

    def _windows(self, head: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Each row's window min(d, m) (0 where m is 0), or -1 where it
        depends on x past head.

        The selected d is the first argmin of the objective over 1..m.  It
        runs over the first `prefix` columns; a row with a longer bandwidth is
        decided there when the objective past the prefix cannot go below the
        minimum found.  The running sum of x**-4 does not decrease and
        rounding is monotone, so with a positive, finite weight every d' past
        the prefix has objective(d') >= the objective of the prefix's sum at
        tail_dim, the dimension past it with the smallest bias.  Any other
        row runs the objective over 1..m; ties go to the smaller d, as
        np.argmin's do.
        """
        dimension = self.plan.config.dimension
        if dimension is not None:
            window = np.minimum(dimension, m)
            return np.where(window <= head.shape[1], window, -1)
        window = np.where(m > 0, -1, 0)
        n = min(head.shape[1], int(m.max(initial=0)))
        cols = n if self.tail_dim is None else min(n, self.prefix)
        if cols:
            d, low, sums = self._select(head[:, :cols], m)
            certain = (m <= cols) & (m > 0)
            if self.tail_dim is not None and (m > cols).any():
                certain |= (m > cols) & (self.objective(sums, self.tail_dim) >= low)
            window[certain] = d[certain]
        redo = np.flatnonzero((window < 0) & (m <= n))
        if redo.size:
            window[redo] = self._select(head[redo, :int(m[redo].max())], m[redo])[0]
        return window

    def _select(self, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The objective over x's columns, past each row's bandwidth masked:
        its first argmin + 1 and its value there, and the running sum of
        x**-4 at the last column, one each per row."""
        n = x.shape[1]
        with np.errstate(all="ignore"):  # entries past a row's bandwidth may overflow
            sums = np.cumsum(x ** -4.0, axis=1)
            objective = self.objective(sums, np.arange(1, n + 1))
        if m.min() < n:
            objective[np.arange(n) >= m[:, None]] = np.inf
        d = objective.argmin(axis=1)
        return d + 1, objective[np.arange(d.size), d], sums[:, -1]


def _simulated(plan: ExperimentPlan, theta: Signal, reps: range) -> _Outcomes:
    """The outcomes of reps by simulate + run_test, one replication at a time."""
    eps, fields, windows = plan.noise.epsilon, [], []
    for rep in reps:
        obs = simulate(theta, plan.spec, plan.noise, plan.master_seed, plan.config.j_max, rep=rep)
        report = run_test(obs, plan.theta0, plan.spec, plan.noise, plan.config)
        w = report.window
        xi = gaussian_draws(plan.master_seed, rep, SIGNAL_STREAM, w) if eps > 0.0 else np.zeros(w)
        fields.append((report.bandwidth, w, report.statistic, report.threshold, report.reject,
                       report.bandwidth_truncated))
        windows.append((obs.x[:w], obs.y[:w], eps * xi))
    bandwidth, width, statistic, threshold, reject, truncated = map(np.array, zip(*fields))
    return _Outcomes(bandwidth, width, statistic, threshold, reject, truncated, _starts(width),
                     *map(np.concatenate, zip(*windows)))


def _replications(plan: ExperimentPlan, theta: Signal, lo: int, hi: int):
    """The outcomes of run_test(simulate(theta, ..., rep=rep), plan.theta0,
    ...) over rep in [lo, hi), one _Outcomes per row group, in order.  The
    error raised is the first one that loop meets, as it raises it, from the
    row group where it meets it."""
    groups = _row_groups(lo, hi, _GROUP_ROWS)
    if not _batchable(plan, theta):
        yield from (_simulated(plan, theta, reps) for reps in groups)
        return
    yield from map(_Kernel(plan, theta).group, groups)


def _reject_counts(plan: ExperimentPlan, theta: Signal, lo: int, hi: int) -> tuple[int, int]:
    """(rejections, degenerate replications) over reps in [lo, hi)."""
    n_reject = 0
    n_degenerate = 0
    for outcomes in _replications(plan, theta, lo, hi):
        n_reject += np.count_nonzero(outcomes.reject)
        n_degenerate += np.count_nonzero(outcomes.width == 0)
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


def _build_radius_cache(plan: ExperimentPlan, lo: int, hi: int) -> _Outcomes:
    """The outcomes of replications [lo, hi) under the null, as one run: a
    spike radius changes only the spiked coordinate of y, and the bandwidth,
    selected dimension and threshold depend on x only, so they are all the
    replications need to be decided again at any radius (see _rejections)."""
    return _joined(list(_replications(plan, plan.theta0, lo, hi)))


def _rejections(cache: _Outcomes, plan: ExperimentPlan, r: float) -> np.ndarray:
    """Each cached replication's decision at spike radius r, as estimate_beta
    on the matching spike alternative makes it: statistic(y, x_win, theta0,
    w, w) > threshold, where y is y_win with its spiked coordinate k
    recomputed.  An entry whose window ends at or before k keeps its null
    decision.

    The others are decided together.  Only the term at k differs from the
    null, so the replayed sum is approximated by approx = (null_total - old)
    + new, the two terms computed by statistic's own float64 operations.
    Let M be the larger of null_total and |approx|, and s = np.spacing(M).
    The exact replayed sum E = T - old + new (T the exact null sum) and
    approx differ by three roundings, each to a float of size at most M: T
    to null_total (fsum is correctly rounded), null_total - old, and the last
    addition.  Each moves by at most half the spacing at its result, so
    |approx - E| <= 1.5 s, and statistic returns fl(E), again by fsum.  When
    approx exceeds the threshold by more than 2 s, E exceeds it by more than
    0.5 s, at least half the spacing above the threshold (which lies below
    M), so fl(E) > threshold.  When approx falls below it by more than 1.5 s,
    so does E, and fl(E) <= threshold.  The margin used is twice that, 4 s,
    and approx decides only where approx + 4 s is finite, so fl(E) is finite
    too.  The rest (within the margin, or a value that is not finite) are
    decided by statistic itself, in order, which keeps its strict > and
    raises its errors where a loop over the entries would.
    """
    j_max = plan.config.j_max
    d_star = spike_index(plan.spec, r, j_max)
    k = d_star - 1
    theta0_k = plan.theta0.padded(max(d_star, len(plan.theta0)))[k]
    spiked = b_vector(plan.spec, j_max)[k] * (theta0_k + r)
    reject = cache.reject.copy()
    rows = np.flatnonzero(cache.width > k)
    at = cache.starts[rows] + k
    x_k, null_total, cutoff = cache.x[at], cache.statistic[rows], cache.threshold[rows]
    with np.errstate(all="ignore"):  # statistic decides a value that is not finite
        old = (cache.y[at] / x_k - theta0_k) ** 2
        new = ((spiked + cache.eps_xi[at]) / x_k - theta0_k) ** 2
        approx = (null_total - old) + new
        margin = 4.0 * np.spacing(np.maximum(null_total, np.abs(approx)))
        certain = (np.abs(approx - cutoff) > margin) & np.isfinite(approx + margin)
        reject[rows] = approx > cutoff
    for i in rows[~certain].tolist():
        lo, w = cache.starts[i], cache.width[i]
        y = cache.y[lo:lo + w].copy()
        y[k] = spiked + cache.eps_xi[lo + k]
        reject[i] = statistic(y, cache.x[lo:lo + w], plan.theta0, w, w) > cache.threshold[i]
    return reject


def _bisect(cache: _Outcomes, plan: ExperimentPlan, beta_target: float,
            r_lo: float, r_hi: float, tol: float) -> float:
    """empirical_separation_radius's search, on the radius cache of plan."""
    n = plan.n_reps

    def beta_at(r: float) -> float:
        return (n - np.count_nonzero(_rejections(cache, plan, r))) / n

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


def _radius_job(plan: ExperimentPlan, beta_target: float, r_lo: float, r_hi: float,
                tol: float) -> _Job:
    """empirical_separation_radius(plan, ...) as a job: its chunks build the
    radius cache, and its finish bisects on it."""
    _check_unit("beta_target", beta_target)
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and 0.0 < r_lo <= r_hi):
        raise ValueError(f"need finite radii with 0 < r_lo <= r_hi, got {r_lo!r}, {r_hi!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    def finish(parts: list) -> float:
        return _bisect(_joined(parts), plan, beta_target, r_lo, r_hi, tol)

    return _Job(_build_radius_cache, (plan,), plan.n_reps, finish)


def empirical_separation_radius(plan: ExperimentPlan, beta_target: float,
                                r_lo: float, r_hi: float, tol: float = 0.05,
                                workers: int = 1) -> float:
    """Smallest spike radius whose estimated second-kind error hits the target.

    Bisects on the radius of a single-coordinate spike placed at the deepest
    coordinate the smoothness class allows for that radius.  All radii are
    evaluated on common random numbers, so the comparison across radii is
    noise-free: one simulation pass under the null fills the radius cache,
    flat arrays holding each replication's window of y, x and the signal
    noise, its null statistic, threshold and decision.  At each radius only
    the spiked coordinate's term changes, so every replication whose window
    holds it is decided at once from its null statistic with that term
    swapped; a rounding certificate (see _rejections) proves the decision
    equal to the full statistic's, which decides the few it leaves open.
    Stops when the bracket width drops below tol times its midpoint and
    returns the midpoint.

    Raises BracketingError if [r_lo, r_hi] does not straddle the target:
    the second-kind error estimate must exceed beta_target at r_lo and fall
    below it at r_hi.  The degenerate call with r_lo == r_hi is accepted when
    that single radius already sits within three standard errors of the
    target, and refused otherwise.
    """
    return _run_jobs([_radius_job(plan, beta_target, r_lo, r_hi, tol)], workers)[0]


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

    One separation radius is estimated per grid point as by
    empirical_separation_radius, holding everything in plan_template fixed
    except the signal noise level; every point's replications are in flight
    at once, and the error raised is the first one of a loop over the grid.
    Default bracket: r_hi at the class ceiling for a first-coordinate spike,
    r_lo a factor 2^-14 below it.
    """
    eps_values = [float(e) for e in epsilon_grid]
    if len(set(eps_values)) < 2:
        raise ValueError("epsilon_grid needs at least two distinct values")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise ValueError("epsilon grid values must lie in (0, 1)")
    r_lo, r_hi = _radius_bracket(plan_template.spec, r_lo, r_hi)
    sigma = plan_template.noise.sigma
    radii = _run_jobs((_radius_job(replace(plan_template, noise=NoiseLevels(eps, sigma)),
                                   beta_target, r_lo, r_hi, tol) for eps in eps_values),
                      workers)
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
                          high_truncated: bool, lo: int, hi: int) -> int:
    kernel = _Kernel(plan, Signal.zeros(0))
    n_fail = 0
    for reps in _row_groups(lo, hi, _GROUP_ROWS):
        _, m, truncated = kernel.bandwidths(reps)
        n_fail += np.count_nonzero((m < low) | ((m >= high) & ~(high_truncated & truncated)))
    return int(n_fail)


def _containment_job(plan: ExperimentPlan) -> _Job:
    """check_bandwidth_containment(plan) as a job."""
    _check_unit("sigma", plan.noise.sigma)
    bracket = bandwidth_bracket(plan.spec, plan.noise.sigma, plan.config.alpha,
                                plan.config.kappa, plan.config.j_max)

    def finish(parts: list) -> ErrorEstimate:
        return ErrorEstimate.from_counts(sum(parts), plan.n_reps)

    return _Job(_containment_failures, (plan, bracket.low, bracket.high, bracket.high_truncated),
                plan.n_reps, finish)


def check_bandwidth_containment(plan: ExperimentPlan, workers: int = 1) -> ErrorEstimate:
    """Frequency of the empirical bandwidth escaping its deterministic bracket
    [low, high).  A truncated scan is counted as contained only when the
    bracket's high end is itself truncated (both sides ran off the horizon).
    """
    return _run_jobs([_containment_job(plan)], workers)[0]


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


def _quadform_job(d: int, nu, v, x: float, n_reps: int, master_seed: int = 0) -> _Job:
    """check_quadform_concentration(d, nu, v, x, n_reps, master_seed) as a job."""
    d = _count("d", d)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    n_reps = _count("n_reps", n_reps)
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

    def finish(parts: list) -> QuadformTails:
        n_up, n_low = _sums(parts)
        return QuadformTails(upper=ErrorEstimate.from_counts(n_up, n_reps),
                             lower=ErrorEstimate.from_counts(n_low, n_reps))

    return _Job(_quadform_failures, (d, nu, v, mean, up_cut, low_cut, master_seed),
                n_reps, finish)


def check_quadform_concentration(d: int, nu, v, x: float, n_reps: int,
                                 master_seed: int = 0, workers: int = 1) -> QuadformTails:
    """Tail frequencies of sum_j (nu_j + v_j * omega_j)^2 around its mean.

    With variance proxy S = sum v^4 + 2 sum v^2 nu^2, the upper event is a
    deviation above 2*sqrt(S*x) + 2*x*max(v^2) and the lower event a deviation
    below -2*sqrt(S*x); each should occur with probability at most exp(-x).
    Scalars nu, v broadcast to length d.
    """
    return _run_jobs([_quadform_job(d, nu, v, x, n_reps, master_seed)], workers)[0]
