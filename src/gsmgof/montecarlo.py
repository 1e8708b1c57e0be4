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
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    NoiseLevels,
    Signal,
    gaussian_draws,
    simulate,
    spike_index,
)
from .sequences import RegimeSpec, a_value, b_vector
from .testproc import TestConfig, bandwidth_bracket, empirical_bandwidth, run_test

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


def _reject_counts(plan: ExperimentPlan, theta: Signal, lo: int, hi: int) -> tuple[int, int]:
    """(rejections, degenerate replications) over reps in [lo, hi)."""
    n_reject = 0
    n_degenerate = 0
    for rep in range(lo, hi):
        obs = simulate(theta, plan.spec, plan.noise, plan.master_seed,
                       plan.config.j_max, rep=rep)
        report = run_test(obs, plan.theta0, plan.spec, plan.noise, plan.config)
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
    radius without re-simulating.  Only the spiked coordinate of the statistic
    changes with the radius; the bandwidth, selected dimension, threshold and
    the remaining terms are radius-independent because they depend on x and
    the null signal only."""

    degenerate: bool
    null_reject: bool
    threshold: float
    terms: list  # squared residual terms of the null statistic, length w
    x_win: np.ndarray | None
    eps_xi_win: np.ndarray | None
    ref_win: np.ndarray | None  # null coefficients inside the window


def _build_radius_cache(plan: ExperimentPlan, lo: int, hi: int) -> list[_RadiusRep]:
    spec, noise, config, theta0 = plan.spec, plan.noise, plan.config, plan.theta0
    entries: list[_RadiusRep] = []
    for rep in range(lo, hi):
        obs = simulate(theta0, spec, noise, plan.master_seed, config.j_max, rep=rep)
        report = run_test(obs, theta0, spec, noise, config)
        if report.degenerate:
            entries.append(_RadiusRep(True, False, math.nan, [], None, None, None))
            continue
        w = report.window
        xs = obs.x[:w]
        ref = theta0.padded(max(w, len(theta0)))[:w]
        terms = ((obs.y[:w] / xs - ref) ** 2).tolist()
        eps_xi = None
        if noise.epsilon > 0.0:
            eps_xi = (noise.epsilon
                      * gaussian_draws(plan.master_seed, rep, SIGNAL_STREAM, config.j_max))[:w]
        entries.append(_RadiusRep(False, report.reject, report.threshold,
                                  terms, xs, eps_xi, ref))
    return entries


def _accept_counts_from_cache(cache: Sequence[_RadiusRep], spec: RegimeSpec,
                              noise: NoiseLevels, r: float, j_max: int) -> tuple[int, int]:
    """(acceptances, degenerate count) at spike radius r, replaying each
    cached replication with only the spiked term recomputed.  Bit-identical
    to estimate_beta on the matching spike alternative.  A degenerate entry
    has no terms and never rejects, so it counts as an acceptance."""
    d_star = spike_index(spec, r, j_max)
    k = d_star - 1
    b_k = b_vector(spec, j_max)[k]
    eps_pos = noise.epsilon > 0.0
    n_accept = 0
    for entry in cache:
        if d_star > len(entry.terms):
            rejected = entry.null_reject
        else:
            y_alt = b_k * (entry.ref_win[k] + r)
            if eps_pos:
                y_alt = y_alt + entry.eps_xi_win[k]
            term = (y_alt / entry.x_win[k] - entry.ref_win[k]) ** 2
            terms = list(entry.terms)
            terms[k] = term
            rejected = math.fsum(terms) > entry.threshold
        n_accept += not rejected
    return n_accept, sum(entry.degenerate for entry in cache)


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
    j_max = plan.config.j_max

    def beta_at(r: float) -> float:
        n_accept, _ = _accept_counts_from_cache(cache, plan.spec, plan.noise, r, j_max)
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
    if r_hi is None:
        r_hi = 1.0 / float(a_value(plan_template.spec, 1))
    if r_lo is None:
        r_lo = r_hi * 2.0 ** -14
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
    spec, noise, config = plan.spec, plan.noise, plan.config
    b = b_vector(spec, config.j_max)
    n_fail = 0
    for rep in range(lo, hi):
        x = b + noise.sigma * gaussian_draws(plan.master_seed, rep, OPERATOR_STREAM,
                                             config.j_max)
        band = empirical_bandwidth(x, noise.sigma, config.alpha, config.kappa,
                                   config.j_max)
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
