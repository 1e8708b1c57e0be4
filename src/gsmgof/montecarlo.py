"""Monte Carlo harness: error-level estimates, empirical separation radii,
rate-slope fits, and concentration checks.

Every estimate is a deterministic function of (master_seed, rep, stream),
so results are identical across runs and across worker counts: replications
are split into contiguous index ranges (see runner) and the per-range integer
counts are summed, which is exact regardless of the split.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketingError, InfeasibleRadiusError
from .gsm import (
    DRAW_BOUND,
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    NoiseLevels,
    RekeyedDraws,
    Signal,
    _log_weight,
    _word,
    spike_index,
)
from .runner import _Job, _run_jobs, _sums
from .sequences import (
    RegimeSpec,
    _b_vector_cached,
    _count,
    _Decay,
    _decay,
    _fsum,
    _Growth,
    _growth,
    _window_sums,
    a_inv_sq,
    a_value,
    b_vector,
)
from .testproc import (
    TestConfig,
    _bias,
    _check_kappa,
    _check_unit,
    _first_hit,
    _objective,
    _objective_weight,
    _parts,
    _squared,
    _table,
    _terms,
    bandwidth_bracket,
    scan_envelope,
    statistic,
    threshold_parts,
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
    """A reproducible simulation experiment: model, test, null signal, size, seed.

    Only a plan in the test's domain is built: sigma in (0, 1), where its
    bias floor sigma**2 ln**1.5(1/sigma) is defined, and epsilon**2 finite,
    each refused with the test's own message.  master_seed is a Philox key.
    """

    spec: RegimeSpec
    noise: NoiseLevels
    config: TestConfig
    theta0: Signal
    n_reps: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_reps", _count("n_reps", self.n_reps, low=MIN_REPS))
        object.__setattr__(self, "master_seed", _word("master_seed", self.master_seed, 128))
        _check_unit("sigma", self.noise.sigma)
        _squared(self.noise.epsilon)


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
# The kernel: replications a row group at a time, drawn only as far as the
# test reads them
# ---------------------------------------------------------------------------

# A row group holds at most _CAP float64 elements in its scan block and in the
# head of x its decisions start from (one row's block can exceed it alone).
# The x past the head that some windows read is drawn for the rows that need it
# only, all such rows of a group together, and may exceed it.
_CAP = 2 ** 14
_FIRST_BLOCK = 64  # a start below it scans from 0; the group floor where end is the horizon
_PREFIX = 16  # columns of the dimension objective run for every row


def _row_groups(lo: int, hi: int, rows: int):
    """lo .. hi - 1 in consecutive index arrays of at most `rows`."""
    for start in range(lo, hi, rows):
        yield np.arange(start, min(start + rows, hi))


class _Outcomes(NamedTuple):
    """run_test's report of each replication of a run of consecutive ones, a
    column per field, and the windows of x, y and the signal noise it read,
    laid end to end (replication i's from _starts(width)[i]).  A report
    rejects where statistic > threshold, and its bandwidth is truncated
    where it is the horizon.  Width 0 marks a degenerate report: statistic
    0, threshold NaN, so no rejection."""

    bandwidth: np.ndarray
    width: np.ndarray  # the report's window, min(d, m)
    statistic: np.ndarray
    threshold: np.ndarray
    x: np.ndarray
    y: np.ndarray
    eps_xi: np.ndarray


def _starts(width: np.ndarray) -> np.ndarray:
    """The offsets of windows of these widths laid end to end."""
    return np.cumsum(width) - width


def _joined(parts: Sequence[_Outcomes]) -> _Outcomes:
    """The outcomes of consecutive runs, in order, as those of one run."""
    return _Outcomes(*map(np.concatenate, zip(*parts)))


class _Scan(NamedTuple):
    """Where the kernel draws a plan's scans.  The block starts at 0 if
    start falls in the first 64 coordinates, at start past them; scan_from
    None: nothing below the horizon triggers.  It holds `block` coordinates,
    up to `end` or the horizon (none when scan_from is None).  prefix: the
    objective's columns that every row runs; head: the columns of x from 0
    that every row draws, the block where it starts at 0, else the prefix.
    envelope: sigma times the scan envelope over the block, read-only."""

    start: int
    end: int
    scan_from: int | None
    block: int
    prefix: int
    head: int
    envelope: np.ndarray


def _scan(plan: ExperimentPlan) -> _Scan:
    """plan's scan geometry, computed once per (decay, sigma, alpha, kappa,
    j_max); a plan refused here raises each time it is asked."""
    config = plan.config
    return _geometry(_decay(plan.spec), plan.noise.sigma, config.alpha, config.kappa,
                     config.j_max)


@lru_cache(maxsize=1024)
def _geometry(decay: _Decay, sigma: float, alpha: float, kappa: float, j_max: int) -> _Scan:
    b = _b_vector_cached(decay, j_max)
    envelope = sigma * _table(scan_envelope, alpha, kappa, j_max)
    start = _first_hit(b <= envelope + sigma * DRAW_BOUND)
    end = _first_hit(b <= envelope - sigma * DRAW_BOUND)
    scan_from = None if start >= j_max else 0 if start < _FIRST_BLOCK else start
    lo = j_max if scan_from is None else scan_from
    block = min(end + 1, j_max) - lo
    window = envelope[lo:lo + block].copy()  # not a view: it would keep all of envelope cached
    window.setflags(write=False)
    prefix = min(_PREFIX, j_max)
    return _Scan(start, end, scan_from, block, prefix, block if scan_from == 0 else prefix,
                 window)


@lru_cache(maxsize=1024)
def _tail_dim(growth: _Growth, sigma: float, alpha: float, j_max: int) -> int:
    """The dimension past the objective's prefix with the smallest bias (the
    first such), computed once per key.  With a positive, finite deviation
    weight the objective of zero sums is its bias, 0 * weight + bias, so
    this is the argmin the kernel would find there; a key refused here
    raises each time it is asked."""
    prefix = min(_PREFIX, j_max)
    return prefix + 1 + int(_bias(growth, np.arange(prefix + 1, j_max + 1), sigma, alpha).argmin())


def _draw_work(plan: ExperimentPlan, scan_only: bool = False) -> float:
    """The work (see _Job) of the kernel's replications: each draws its scan
    block after scan_from % 4 dropped words, and unless scan_only the head
    where the block does not start at 0 and a signal row (of a width unknown
    before the scan) where epsilon > 0.  A plan refused here is unbounded
    work, refused by the kernel in its chunk."""
    try:
        _, _, scan_from, block, prefix, _, _ = _scan(plan)
    except (ValueError, MemoryError):  # an envelope past the float range, a vast horizon
        return math.inf
    sixteenths = 0 if scan_from is None else 16 + scan_from % 4 + block
    if not scan_only:
        sixteenths += (0 if scan_from == 0 else 16 + prefix) + 16 * (plan.noise.epsilon > 0.0)
    return plan.n_reps * sixteenths // 16


def _kernel_job(fn: Callable, args: tuple, plan: ExperimentPlan,
                finish: Callable[[list], Any]) -> _Job:
    """A job whose chunks run plan's kernel: fn(*args, lo, hi[, draws]).
    Most rows it draws lie within the head (see _Scan): x's head is drawn
    for every replication, and a window decided from it lies inside it.  Its
    width is the head, at most _FIRST_BLOCK.  A plan whose geometry is
    refused (unbounded work) reads no shared rows."""
    work = _draw_work(plan)
    draws = None if work == math.inf else (plan.master_seed, min(_scan(plan).head, _FIRST_BLOCK))
    return _Job(fn, args, plan.n_reps, work, finish, draws)


class _Kernel:
    """run_test(simulate(theta, ..., rep=rep), plan.theta0, ...) over many
    replications of a plan, a row group at a time, each in one pass.

    A theta longer than the horizon, or one whose b * theta leaves the float
    range, is refused here with simulate's error.  No other x or y can
    overflow: every draw is under DRAW_BOUND in size, sigma is below 1, and
    epsilon**2 is finite, so epsilon * DRAW_BOUND < 1.2e155 lies far below
    half the float spacing at the top of the range (~1e292).

    Only the x coordinates that can change a decision are drawn, with three
    certificates:

    - the scan's certain prefix: every draw is under DRAW_BOUND in size, so
      below `start`, the first j with b_j <= sigma * (envelope_j +
      DRAW_BOUND), no |x_j| can reach the envelope (nor be zero; the slack
      of 8.3 over the largest draw, 8.2924, covers the rounding of x).  The
      scan starts there; when start is the horizon it draws nothing.
    - the scan's certain end: at `end`, the first j with b_j <= sigma *
      (envelope_j - DRAW_BOUND) (the horizon when there is none), every
      draw lands inside the envelope, so every scan has ended by then
      (m <= end) and none is drawn past it.  Above, x_j = b_j + sigma * eta
      stays under the envelope by 0.0076 sigma (8.3 - 8.2924), which covers
      the rounding of b + sigma * eta and of sigma * envelope (each a
      relative 2**-53 of values below sigma * (envelope_j + 8.3)).  Below,
      x_j >= -8.3 sigma never reaches -sigma * envelope_j, as envelope_j is
      at least 16 + sqrt(2 ln 10) for kappa > e and alpha < 1.
    - the dimension objective's certain argmin: it runs over the first
      _PREFIX coordinates, and a row whose longer objective cannot beat the
      minimum found there is decided from them (see _windows).  The
      dimension past the prefix with the smallest bias is computed once per
      growth, sigma, level and horizon (_tail_dim).

    Besides those, x is drawn up to the bandwidth where the argmin is not
    certain (or up to a fixed dimension past the prefix), for all such rows
    of a group at once, and the signal stream up to the window.  The streams
    are counter-based, so these are slices of simulate's draws, and every
    step works element by element (numpy's power included), sums one row
    in index order or sums as math.fsum does, so every value is the
    reference path's.  The rows come from draws: a chunk's table shared by
    the jobs of one _run_jobs call (see runner._share), else a RekeyedDraws
    of the kernel's own.

    One more certificate replaces a Python loop: the math.fsum of each
    window's statistic terms, x**-2 and x**-4 is taken for a whole row group
    at once, by a cascade of TwoSums whose result is proven to be fsum's
    correctly rounded sum (sequences._window_sums).  A window it leaves open
    (wider than 64, with a value that is not finite or near the top of the
    float range, or a sum too close to a rounding boundary) is summed by
    math.fsum, as the reference path sums it.
    """

    def __init__(self, plan: ExperimentPlan, theta: Signal,
                 draws: RekeyedDraws | None = None) -> None:
        self.plan = plan
        config = plan.config
        self.j_max = j_max = config.j_max
        self.eps, self.sigma = plan.noise.epsilon, plan.noise.sigma
        if len(theta) > j_max:
            raise ValueError("theta does not fit inside the horizon")
        self.b = b_vector(plan.spec, j_max)
        with np.errstate(over="ignore"):
            self.bt = self.b * theta.padded(j_max)
        if not np.isfinite(self.bt).all():
            raise ValueError("y must be finite")
        self.theta0 = plan.theta0.padded(max(j_max, len(plan.theta0)))
        (self.start, self.end, self.scan_from, self.block, self.prefix, head,
         self.envelope) = _scan(plan)
        self.draws = RekeyedDraws(plan.master_seed) if draws is None else draws
        # The rows of a group: its widest matrix is the block, or the head of
        # the objective's prefix when the block does not start at 0.  Where a
        # scan can reach the horizon (or no block is drawn), a window may read
        # x up to it, and the group keeps it with its outcomes: it has at most
        # the rows of a 64-coordinate matrix.  A block wider than _CAP is
        # drawn a row at a time.
        widest = max(self.block, head, _FIRST_BLOCK if self.end == j_max else 0)
        self.group_rows = max(1, _CAP // widest)
        # tail_dim: the dimension past the prefix with the smallest bias; None
        # turns the argmin certificate off (a fixed dimension, or a deviation
        # weight of 0 or inf, where x**-4 overflowing past the prefix can
        # make the objective NaN there).
        self.tail_dim = None
        if (config.dimension is None and self.prefix < j_max
                and 0.0 < _objective_weight(self.eps, config.alpha, config.beta) < math.inf):
            self.tail_dim = np.array([_tail_dim(_growth(plan.spec), self.sigma, config.alpha,
                                                j_max)])

    def _operator(self, reps, start: int, widths) -> np.ndarray:
        """x[start:start + widths[i]] of reps[i] as row i, padded as
        RekeyedDraws.rows pads."""
        eta = self.draws.rows(reps, OPERATOR_STREAM, start, widths)
        return self.b[start:start + eta.shape[1]] + self.sigma * eta

    def objective(self, inv4_sums, dims) -> np.ndarray:
        """testproc's dimension objective under the plan."""
        config = self.plan.config
        return _objective(self.plan.spec, inv4_sums, dims, self.eps, self.sigma,
                          config.alpha, config.beta)

    # -- one row group ----------------------------------------------------------

    def bandwidths(self, reps: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """The scan block x[lo:lo + block] of each replication (one row each;
        lo = scan_from, the block running through the certain end or to the
        horizon), drawn in one call, and each one's bandwidth m, the horizon
        where the scan is truncated (no other m reaches it).  Every scan ends
        inside the block or is truncated, so element by element this is
        empirical_bandwidth on the whole of x.  No block is drawn when no
        index below the horizon triggers."""
        lo = self.scan_from
        if lo is None:
            return None, np.full(len(reps), self.j_max)
        block = self._operator(reps, lo, np.full(len(reps), self.block))
        hits = np.abs(block) <= self.envelope
        return block, np.where(hits.any(axis=1), hits.argmax(axis=1) + lo, self.j_max)

    def group(self, reps: np.ndarray) -> _Outcomes:
        """The outcomes of the replications in reps (see decide)."""
        block, m = self.bandwidths(reps)
        head = block if self.scan_from == 0 else \
            self._operator(reps, 0, np.full(len(reps), self.prefix))
        return self.decide(reps, head, m)

    # -- decisions --------------------------------------------------------------

    def decide(self, reps, head: np.ndarray, m: np.ndarray) -> _Outcomes:
        """The outcomes of replications whose scan has ended (bandwidths m);
        row i of head holds x[:h] of reps[i] (h the same for all).

        All are decided in one pass.  The windows that head leaves open (see
        _windows) are selected together; the rows among them whose bandwidth
        (or fixed dimension below it) lies past head draw x up to there in
        one call, and head is widened to hold them.  The windows are then
        gathered end to end, the math.fsums of each one's statistic terms,
        x**-2 and x**-4 taken for all at once (_window_sums, which sums the
        windows its certificate leaves open one by one), and the thresholds
        from those sums at once (_parts).  One with a zero bandwidth is
        degenerate.  The error raised is the first one the reference path
        meets over reps in order, raised by statistic and threshold_parts on
        that window.  No x that a decision reads is exactly zero, which the
        reference path would refuse: a zero x_j at or past start ends the
        scan at or before j, and below start |x_j| > 0 is certain.
        """
        reps, width = np.asarray(reps), self._windows(head, m)
        pending = np.flatnonzero(width < 0)
        if pending.size:
            dimension = self.plan.config.dimension
            n = m[pending] if dimension is None else np.minimum(dimension, m[pending])
            far = n > head.shape[1]
            if far.any():
                wide = np.empty((len(reps), int(n.max())))  # past a row's window: never read
                wide[:, :head.shape[1]] = head
                wide[pending[far]] = self._operator(reps[pending[far]], 0, n[far])
                head = wide
            width[pending] = n if dimension is not None else \
                self._select(head[pending, :n.max()], n)[0]
        rows = np.flatnonzero(width)
        w = width[rows]
        n = int(w.max(initial=0))
        inside = np.arange(n) < width[:, None]
        x, col = head[:, :n][inside], np.nonzero(inside)[1]
        if self.eps > 0.0:
            xi = self.draws.rows(reps[rows], SIGNAL_STREAM, 0, w)
            eps_xi = self.eps * xi[inside[rows]]
            y = self.bt[col] + eps_xi
        else:
            y, eps_xi = self.bt[col], np.zeros(col.size)
        plan = self.plan
        with np.errstate(all="ignore"):  # a sum that is not finite is refused below
            value, inv2_sum, inv4_sum = _window_sums(
                (_terms(y, x, self.theta0[col]), x ** -2.0, x ** -4.0), w)
            cutoff = _parts(inv2_sum, inv4_sum, a_inv_sq(plan.spec, w), self.eps, self.sigma,
                            plan.config.alpha).total
        bad = np.flatnonzero(~(np.isfinite(value) & np.isfinite(cutoff)))
        if bad.size:  # the reference path's error there: the statistic's, else the threshold's
            n, lo = int(w[bad[0]]), _starts(w)[bad[0]]
            span = slice(lo, lo + n)
            statistic(y[span], x[span], plan.theta0, n, n)
            threshold_parts(x[span], plan.spec, n, n, self.eps, self.sigma, plan.config.alpha)
            raise AssertionError("_parts disagrees with threshold_parts")
        values = np.zeros(len(reps))
        values[rows] = value
        thresholds = np.full(len(reps), math.nan)
        thresholds[rows] = cutoff
        return _Outcomes(m, width, values, thresholds, x, y, eps_xi)

    def _windows(self, head: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Each row's window min(d, m) (0 where m is 0) where it is certain
        from the columns of head that every row reads, else -1.

        The selected d is the first argmin of the objective over 1..m.  It
        runs over the first `prefix` columns; a row with a longer bandwidth is
        decided there when the objective past the prefix cannot go below the
        minimum found.  The running sum of x**-4 does not decrease and
        rounding is monotone, so with a positive, finite weight every d' past
        the prefix has objective(d') >= the objective of the prefix's sum at
        tail_dim, the dimension past it with the smallest bias.  Any other
        row is left open, for decide to run the objective over 1..m; ties go
        to the smaller d, as np.argmin's do.
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


def _replications(plan: ExperimentPlan, theta: Signal, lo: int, hi: int,
                  draws: RekeyedDraws | None = None):
    """The outcomes of run_test(simulate(theta, ..., rep=rep), plan.theta0,
    ...) over rep in [lo, hi), one _Outcomes per row group of the kernel, in
    order, its rows drawn by draws (see _Kernel).  The error raised is the
    first one that loop meets, as it raises it, from the row group where it
    meets it (a theta the kernel refuses, before the first)."""
    kernel = _Kernel(plan, theta, draws)
    yield from map(kernel.group, _row_groups(lo, hi, kernel.group_rows))


def _reject_counts(plan: ExperimentPlan, theta: Signal, lo: int, hi: int,
                   draws: RekeyedDraws | None = None) -> tuple[int, int]:
    """(rejections, degenerate replications) over reps in [lo, hi)."""
    n_reject = 0
    n_degenerate = 0
    for outcomes in _replications(plan, theta, lo, hi, draws):
        n_reject += np.count_nonzero(outcomes.statistic > outcomes.threshold)
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
    return _kernel_job(_reject_counts, (plan, data), plan, finish)


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


def _build_radius_cache(plan: ExperimentPlan, lo: int, hi: int,
                        draws: RekeyedDraws | None = None) -> _Outcomes:
    """The outcomes of replications [lo, hi) under the null, as one run: a
    spike radius changes only the spiked coordinate of y, and the bandwidth,
    selected dimension and threshold depend on x only, so they are all the
    replications need to be decided again at any radius (see _rejections)."""
    return _joined(list(_replications(plan, plan.theta0, lo, hi, draws)))


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
    reject = cache.statistic > cache.threshold
    starts = _starts(cache.width)
    rows = np.flatnonzero(cache.width > k)
    at = starts[rows] + k
    x_k, null_total, cutoff = cache.x[at], cache.statistic[rows], cache.threshold[rows]
    with np.errstate(all="ignore"):  # statistic decides a value that is not finite
        old = _terms(cache.y[at], x_k, theta0_k)
        new = _terms(spiked + cache.eps_xi[at], x_k, theta0_k)
        approx = (null_total - old) + new
        margin = 4.0 * np.spacing(np.maximum(null_total, np.abs(approx)))
        certain = (np.abs(approx - cutoff) > margin) & np.isfinite(approx + margin)
        reject[rows] = approx > cutoff
    for i in rows[~certain].tolist():
        lo, w = starts[i], cache.width[i]
        y = cache.y[lo:lo + w].copy()
        y[k] = spiked + cache.eps_xi[lo + k]
        reject[i] = statistic(y, cache.x[lo:lo + w], plan.theta0, w, w) > cache.threshold[i]
    return reject


def _bisect(cache: _Outcomes, plan: ExperimentPlan, beta_target: float,
            r_lo: float, r_hi: float, tol: float) -> float:
    """empirical_separation_radius's search, on the radius cache of plan."""
    n = plan.n_reps

    def estimate(r: float) -> ErrorEstimate:
        return ErrorEstimate.from_counts(n - np.count_nonzero(_rejections(cache, plan, r)), n)

    if r_lo == r_hi:
        single = estimate(r_lo)
        if abs(single.p_hat - beta_target) <= 3.0 * single.se:
            return r_lo
        raise BracketingError(
            f"single radius {r_lo} has second-kind error {single.p_hat:.4f}, "
            f"not within 3 standard errors of the target {beta_target}"
        )

    p_lo = estimate(r_lo).p_hat
    if p_lo == beta_target:
        return r_lo
    if p_lo < beta_target:
        raise BracketingError(
            f"second-kind error {p_lo:.4f} at r_lo={r_lo} is already below the "
            f"target {beta_target}; shrink r_lo"
        )
    p_hi = estimate(r_hi).p_hat
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
        if estimate(mid).p_hat > beta_target:
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

    return _kernel_job(_build_radius_cache, (plan,), plan, finish)


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
    """(r_lo, r_hi) as floats, a missing one set as fit_rate_slope documents;
    1 / a_1 is taken in logs past the float range, and refused if subnormal."""
    if r_hi is None:
        with np.errstate(over="ignore"):  # past the float range, from ln a_1
            a_1 = float(a_value(spec, 1))
        r_hi = 1.0 / a_1 if a_1 < math.inf else math.exp(-_log_weight(spec, 1))
        if r_hi < sys.float_info.min:
            raise InfeasibleRadiusError(f"the ceiling 1 / a_1 = {r_hi!r} at s={spec.s!r} is below "
                                        "the smallest normal float; give r_hi")
    r_hi = float(r_hi)
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
    alpha/10 + alpha * pi^2 / (6 * kappa), for a level alpha in (0, 1) and
    a finite kappa > e, as the scan envelope takes them."""
    _check_unit("level", alpha)
    _check_kappa(kappa)
    return alpha / 10.0 + alpha * math.pi ** 2 / (6.0 * kappa)


def _containment_failures(plan: ExperimentPlan, low: int, high: int,
                          high_truncated: bool, lo: int, hi: int) -> int:
    kernel = _Kernel(plan, Signal.zeros(0))
    n_fail = 0
    for reps in _row_groups(lo, hi, kernel.group_rows):
        _, m = kernel.bandwidths(reps)
        n_fail += np.count_nonzero((m < low) | ((m >= high) & (not high_truncated)))
    return int(n_fail)


def _containment_job(plan: ExperimentPlan) -> _Job:
    """check_bandwidth_containment(plan) as a job."""
    bracket = bandwidth_bracket(plan.spec, plan.noise.sigma, plan.config.alpha,
                                plan.config.kappa, plan.config.j_max)

    def finish(parts: list) -> ErrorEstimate:
        return ErrorEstimate.from_counts(sum(parts), plan.n_reps)

    return _Job(_containment_failures, (plan, bracket.low, bracket.high, bracket.high_truncated),
                plan.n_reps, _draw_work(plan, scan_only=True), finish)


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
        widths = np.full(len(reps), d)
        omega = draws.rows(reps, QUADFORM_STREAM, 0, widths)
        dev = _window_sums([((nu + v * omega) ** 2).ravel()], widths)[0] - mean
        n_up += np.count_nonzero(dev > up_cut)
        n_low += np.count_nonzero(dev < low_cut)
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
        mean = _fsum((nu ** 2 + v ** 2).tolist())
        proxy = _fsum((v ** 4).tolist()) + 2.0 * _fsum((v ** 2 * nu ** 2).tolist())
        up_cut = 2.0 * math.sqrt(proxy * x) + 2.0 * x * float(np.max(v ** 2))
    if not all(map(math.isfinite, (mean, proxy, up_cut))):
        raise ValueError("the mean, the variance proxy and the cuts must be finite")
    low_cut = -2.0 * math.sqrt(proxy * x)

    def finish(parts: list) -> QuadformTails:
        n_up, n_low = _sums(parts)
        return QuadformTails(upper=ErrorEstimate.from_counts(n_up, n_reps),
                             lower=ErrorEstimate.from_counts(n_low, n_reps))

    return _Job(_quadform_failures, (d, nu, v, mean, up_cut, low_cut, master_seed),
                n_reps, n_reps * (16 + d) // 16, finish)


def check_quadform_concentration(d: int, nu, v, x: float, n_reps: int,
                                 master_seed: int = 0, workers: int = 1) -> QuadformTails:
    """Tail frequencies of sum_j (nu_j + v_j * omega_j)^2 around its mean.

    With variance proxy S = sum v^4 + 2 sum v^2 nu^2, the upper event is a
    deviation above 2*sqrt(S*x) + 2*x*max(v^2) and the lower event a deviation
    below -2*sqrt(S*x); each should occur with probability at most exp(-x).
    Scalars nu, v broadcast to length d.
    """
    return _run_jobs([_quadform_job(d, nu, v, x, n_reps, master_seed)], workers)[0]
