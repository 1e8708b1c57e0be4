"""Monte Carlo harness: error-level estimates, empirical separation radii,
rate-slope fits, and concentration checks.

Every estimate is a deterministic function of (master_seed, rep, stream),
so results are identical across runs and across worker counts: replications
are split into contiguous index ranges and the per-range integer counts are
summed, which is exact regardless of the split.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketingError
from .gsm import (
    DRAW_BOUND,
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    GaussianStream,
    NoiseLevels,
    Signal,
    gaussian_draws,
    simulate,  # noqa: F401 -- unused here; perfbench/test_perfbench.py reads it
    spike_index,
)
from .sequences import RegimeSpec, a_value, b_vector
from .testproc import (
    Bandwidth,
    TestConfig,
    _decide,
    _scan_table,
    bandwidth_bracket,
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


def _map_chunks(fn: Callable, args: tuple, n_reps: int, workers: int) -> list:
    """Results of fn(*args, lo, hi) over the chunk ranges of range(n_reps), in
    chunk order: one chunk in this process when workers <= 1, else one chunk
    per pool process."""
    if workers <= 1:
        return [fn(*args, 0, n_reps)]
    ranges = _chunk_ranges(n_reps, workers)
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]


def _sum_over_chunks(fn: Callable, args: tuple, n_reps: int, workers: int) -> tuple:
    """Run fn(*args, lo, hi) -> tuple[int, ...] over chunk ranges, sum positionally."""
    return tuple(int(sum(col)) for col in zip(*_map_chunks(fn, args, n_reps, workers)))


# ---------------------------------------------------------------------------
# One replication, drawn only as far as the test reads it
# ---------------------------------------------------------------------------

_FIRST_BLOCK = 64


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _signal_noise(epsilon: float, seed: int, rep: int, n: int) -> np.ndarray:
    """epsilon * xi[:n] of one replication; nothing is drawn when epsilon or n is 0."""
    if epsilon > 0.0 and n > 0:
        return epsilon * gaussian_draws(seed, rep, SIGNAL_STREAM, n)
    return np.zeros(n)


def _scan(eta: GaussianStream, b: np.ndarray, sigma: float, envelope: np.ndarray,
          x: np.ndarray) -> tuple[Bandwidth, np.ndarray]:
    """Bandwidth of x = b + sigma*eta and the prefix of x drawn to find it.

    Starting from the prefix x already drawn, the scan draws blocks of 64,
    128, 256, ... coordinates (the last one cut at the horizon b.size) and
    stops at the block holding the first index inside the envelope.  Every
    step is element by element, so the result is empirical_bandwidth's on the
    whole of x."""
    j_max = b.size
    blocks, block = [], x
    n, size = 0, _FIRST_BLOCK
    while True:
        blocks.append(block)
        hits = np.flatnonzero(np.abs(block) <= envelope[n:n + block.size])
        if hits.size:
            return Bandwidth(n + int(hits[0]), False), np.concatenate(blocks)
        n += block.size
        if n == j_max:
            return Bandwidth(j_max, True), np.concatenate(blocks)
        k = min(size, j_max - n)
        block = b[n:n + k] + sigma * eta.take(k)
        size *= 2


def _replications(plan: ExperimentPlan, theta: Signal, lo: int, hi: int):
    """For each replication in [lo, hi), yield (report, x, y_win, eps_xi_win):
    the report of run_test(simulate(theta, ..., rep=rep), plan.theta0, ...),
    the drawn prefix of x, and y and the signal noise inside the report's
    window, as owned arrays.

    Only what the test reads is drawn: x until the bandwidth scan stops, and
    the signal stream up to the window.  The streams are counter-based, so
    these are prefixes of simulate's draws and every value is the same.  The
    checks of simulate and run_test come in their order: theta must fit the
    horizon, y and x must be finite, sigma must be positive.  A finite draw
    is at most DRAW_BOUND in size, so a value the test does not read can only
    overflow when epsilon or sigma is near the float range; that channel is
    then drawn to the horizon and checked first, as simulate does.  (A draw
    is infinite with chance 2**-53; one past what is drawn goes unseen.)
    """
    spec, noise, config = plan.spec, plan.noise, plan.config
    seed, j_max, eps, sigma = plan.master_seed, config.j_max, noise.epsilon, noise.sigma
    if len(theta) > j_max:
        raise ValueError("theta does not fit inside the horizon")
    b = b_vector(spec, j_max)
    bt = b * theta.padded(j_max)
    y_ahead = not math.isfinite(float(np.max(np.abs(bt))) + eps * DRAW_BOUND)
    x_ahead = not math.isfinite(float(np.max(b)) + sigma * DRAW_BOUND)
    envelope = sigma * _scan_table(config.alpha, config.kappa, j_max)
    for rep in range(lo, hi):
        eps_xi = _signal_noise(eps, seed, rep, j_max if y_ahead else 0)
        if y_ahead:
            _finite("y", bt + eps_xi)
        eta = GaussianStream(seed, rep, OPERATOR_STREAM)
        x = _finite("x", b + sigma * eta.take(j_max)) if x_ahead else b[:0]
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        band, x = _scan(eta, b, sigma, envelope, x)
        _finite("x", x)
        window = [np.zeros(0), np.zeros(0)]

        def y_window(w: int) -> np.ndarray:
            window[1] = eps_xi[:w].copy() if y_ahead else _signal_noise(eps, seed, rep, w)
            window[0] = _finite("y", bt[:w] + window[1] if eps > 0.0 else bt[:w].copy())
            return window[0]

        report = _decide(band, x, y_window, plan.theta0, spec, noise, config)
        yield report, x, window[0], window[1]


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


def estimate_alpha(plan: ExperimentPlan, workers: int = 1) -> ErrorEstimate:
    """First-kind error estimate: rejection frequency with theta = theta0."""
    n_reject, n_degen = _sum_over_chunks(
        _reject_counts, (plan, plan.theta0), plan.n_reps, workers)
    return ErrorEstimate.from_counts(n_reject, plan.n_reps, n_degen)


def estimate_beta(plan: ExperimentPlan, theta: Signal, workers: int = 1) -> ErrorEstimate:
    """Second-kind error estimate: acceptance frequency when the data come
    from `theta` but the test still targets plan.theta0.

    Degenerate replications never reject, so they count as acceptances.
    """
    n_reject, n_degen = _sum_over_chunks(
        _reject_counts, (plan, theta), plan.n_reps, workers)
    return ErrorEstimate.from_counts(plan.n_reps - n_reject, plan.n_reps, n_degen)


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
    return [_RadiusRep(report.reject, report.threshold, y_win, x[:report.window].copy(),
                       eps_xi_win)
            for report, x, y_win, eps_xi_win in _replications(plan, plan.theta0, lo, hi)]


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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    cache = [entry for part in _map_chunks(_build_radius_cache, (plan,), plan.n_reps, workers)
             for entry in part]
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
    sigma, config = plan.noise.sigma, plan.config
    b = b_vector(plan.spec, config.j_max)
    envelope = sigma * _scan_table(config.alpha, config.kappa, config.j_max)
    n_fail = 0
    for rep in range(lo, hi):
        eta = GaussianStream(plan.master_seed, rep, OPERATOR_STREAM)
        band, _ = _scan(eta, b, sigma, envelope, b[:0])
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
    (n_fail,) = _sum_over_chunks(
        _containment_failures,
        (plan, bracket.low, bracket.high, bracket.high_truncated),
        plan.n_reps, workers)
    return ErrorEstimate.from_counts(n_fail, plan.n_reps)


class QuadformTails(NamedTuple):
    """Estimated right/left tail exceedance frequencies for the quadratic form."""

    upper: ErrorEstimate
    lower: ErrorEstimate


def _quadform_failures(d: int, nu: np.ndarray, v: np.ndarray, mean: float,
                       up_cut: float, low_cut: float, master_seed: int,
                       lo: int, hi: int) -> tuple[int, int]:
    n_up = 0
    n_low = 0
    for rep in range(lo, hi):
        omega = gaussian_draws(master_seed, rep, QUADFORM_STREAM, d)
        value = math.fsum(((nu + v * omega) ** 2).tolist())
        dev = value - mean
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
    if x <= 0.0:
        raise ValueError("x must be positive")
    if int(n_reps) < 1:
        raise ValueError("n_reps must be >= 1")
    n_reps = int(n_reps)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (d,)).copy()
    v = np.broadcast_to(np.asarray(v, dtype=float), (d,)).copy()
    if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(v))):
        raise ValueError("nu and v must be finite")
    mean = math.fsum((nu ** 2 + v ** 2).tolist())
    proxy = math.fsum((v ** 4).tolist()) + 2.0 * math.fsum((v ** 2 * nu ** 2).tolist())
    up_cut = 2.0 * math.sqrt(proxy * x) + 2.0 * x * float(np.max(v ** 2))
    low_cut = -2.0 * math.sqrt(proxy * x)
    n_up, n_low = _sum_over_chunks(
        _quadform_failures, (d, nu, v, mean, up_cut, low_cut, master_seed),
        n_reps, workers)
    return QuadformTails(
        upper=ErrorEstimate.from_counts(n_up, n_reps),
        lower=ErrorEstimate.from_counts(n_low, n_reps),
    )
