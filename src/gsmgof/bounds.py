"""Theoretical separation-radius bounds and benchmark rate formulas.

The upper bound minimizes a deviation-plus-bias objective over cut-off
dimensions inside the deterministic bandwidth bracket.  The lower bound
combines two channels: an operator-noise (sigma) channel built on two-point
priors, and a signal-noise (epsilon) channel; the final bound is the larger
of the two.  Rate formulas give the four-regime squared-radius benchmarks
with all proportionality constants set to 1, so acceptance checks compare
exponents and slopes, never absolute levels.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundError, InvalidLevelsError, SequenceOverflowError
from .gsm import NoiseLevels, divergence_budget, window_mass
from .sequences import (
    DecayKind,
    GrowthKind,
    RegimeSpec,
    _check_positive,
    _count,
    _decay,
    _running_sums,
    a_inv_sq,
    b_vector,
    cumulative_b_inv4_prefix,
)
from .testproc import (KAPPA_DEFAULT, BandwidthBracket, _blocks, _check_unit,
                       _objective, _squared, bandwidth_bracket)

__all__ = [
    "BoundReport",
    "critical_snr",
    "evaluate_bounds",
    "lower_bound_radius_sq",
    "prior_depth",
    "rate_formula",
    "upper_bound_radius_sq",
]


@dataclass(frozen=True)
class BoundReport:
    """Upper and lower squared separation radii with their diagnostics.

    lower_components is the (sigma_part, epsilon_part) pair whose maximum is
    lower_sq.  bracket_low/bracket_high are the deterministic bandwidth
    bracket; prior_depth is the deepest coordinate usable by the sigma
    channel (0 when the operator noise drowns even the first coordinate).
    """

    upper_sq: float
    upper_argmin_dim: int
    lower_sq: float
    lower_components: tuple[float, float]
    bracket_low: int
    bracket_high: int
    prior_depth: int


# ---------------------------------------------------------------------------
# Upper bound
# ---------------------------------------------------------------------------


def upper_bound_radius_sq(spec: RegimeSpec, epsilon: float, sigma: float,
                          alpha: float, beta: float, j_max: int,
                          kappa: float = KAPPA_DEFAULT) -> tuple[float, int]:
    """Guaranteed-power squared radius: the minimum over cut-off dimensions d
    of the adaptive-dimension objective (testproc.dimension_objective) with
    b_j in place of x_j and the bias floor taken at a_{min(d, low)}, scanned
    for d up to the high end of the deterministic bandwidth bracket (the
    objective is constant past it).  Returns (value, smallest argmin).
    """
    return _upper_bound(spec, epsilon, sigma, alpha, beta, j_max, kappa)[:2]


def _upper_bound(spec: RegimeSpec, epsilon: float, sigma: float, alpha: float, beta: float,
                 j_max: int, kappa: float) -> tuple[float, int, BandwidthBracket]:
    """upper_bound_radius_sq's value and argmin, and the bracket they came from."""
    _check_positive("epsilon", epsilon)
    _check_unit("sigma", sigma)
    if alpha > beta:
        raise InvalidLevelsError("the power guarantee needs alpha <= beta")
    bracket = bandwidth_bracket(spec, sigma, alpha, kappa, j_max)
    if bracket.low == 0:
        raise DegenerateBoundError(
            f"operator noise sigma={sigma} drowns the first coefficient in this regime; "
            "the bound has no admissible dimension"
        )
    n = bracket.high  # at most j_max
    with np.errstate(over="ignore"):  # an objective past the float range is refused below
        objective = _objective(spec, cumulative_b_inv4_prefix(spec, n),
                               np.minimum(np.arange(1, n + 1), bracket.low),
                               float(epsilon), sigma, alpha, beta)
    k = int(np.argmin(objective))
    if not math.isfinite(objective[k]):
        raise ValueError(f"the upper bound at epsilon={epsilon!r} exceeds the float range")
    return float(objective[k]), k + 1, bracket


# ---------------------------------------------------------------------------
# Lower bound
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def critical_snr(alpha: float, beta: float) -> float:
    """Signal-to-noise ratio at which the mass of the operator window [b/2, 2b]
    reaches (1 + 4(1-alpha-beta)^2)^(-1/2), solved by bisection to 1e-10
    (once per pair of levels)."""
    divergence_budget(alpha, beta)  # validates the levels
    gap = 1.0 - alpha - beta
    target = 1.0 / math.sqrt(1.0 + 4.0 * gap * gap)

    def gap_fn(u: float) -> float:
        return window_mass(u) - target

    hi = 1.0
    while gap_fn(hi) < 0.0:  # the mass is 1.0 in floats from u ~ 16.6, so hi stops by 32
        hi *= 2.0
    # Bisection on [0, hi] with the midpoints and stopping rule of
    # scipy.optimize.bisect (xtol 1e-10, rtol 4 * machine epsilon): dm falls
    # below 1e-10 within 39 halvings of hi <= 32.
    xa, fa, dm = 0.0, gap_fn(0.0), hi
    while True:
        dm *= 0.5
        xm = xa + dm
        fm = gap_fn(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < 1e-10 + 4.0 * sys.float_info.epsilon * abs(xm):
            return xm


def prior_depth(spec: RegimeSpec, sigma: float, alpha: float, beta: float, j_max: int) -> int:
    """Deepest coordinate at which the operator-noise channel can still hide
    a detectable shift: the largest d <= j_max with
    b_d >= sigma * max(critical_snr, divergence_budget / 2); 0 if none.
    b is nonincreasing, so that is the number of such d."""
    _check_positive("sigma", sigma)
    level = sigma * max(critical_snr(alpha, beta), divergence_budget(alpha, beta) / 2.0)
    return int(np.count_nonzero(b_vector(spec, _count("j_max", j_max)) >= level))


def lower_bound_radius_sq(spec: RegimeSpec, epsilon: float, sigma: float,
                          alpha: float, beta: float,
                          j_max: int) -> tuple[float, tuple[float, float]]:
    """Combined two-channel lower bound on the squared separation radius.

    sigma channel:  (budget^2 / 16) * sigma^2 * max_{d <= prior_depth} b_d^-2 a_d^-2
    epsilon channel: sup_d min((2*budget)^(1/4) * eps^2 * sqrt(sum_{j<=d} b_j^-4), a_d^-2)

    Returns (value, (sigma_part, epsilon_part)) with value = max(parts).
    The epsilon scan stops early once the running maximum can no longer
    improve (the weight term decreases past the crossing point).  Either
    noise level may be 0, which drops its channel; a negative or non-finite
    one is refused, after the levels are checked.
    """
    divergence_budget(alpha, beta)
    noise = NoiseLevels(epsilon, sigma)
    return _lower_bound(spec, noise.epsilon, noise.sigma, alpha, beta, j_max)[:2]


@functools.lru_cache(maxsize=16)
def _hardest_upto(spec: RegimeSpec, n: int) -> np.ndarray:
    """max_{j <= d} b_j^-2 a_j^-2 at d = 1..n, built once per (spec, n) and
    read-only.  Each product is taken element by element and max is exact, so
    entry d - 1 is the maximum over the first d products (NaN if one of them
    is).  Products past a cell's prior depth may overflow (b_j may even
    underflow to 0); they are not read."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        products = b_vector(spec, n) ** -2.0 * a_inv_sq(spec, np.arange(1, n + 1))
    table = np.maximum.accumulate(products)
    table.setflags(write=False)
    return table


def _lower_bound(spec: RegimeSpec, epsilon: float, sigma: float, alpha: float, beta: float,
                 j_max: int) -> tuple[float, tuple[float, float], int]:
    """lower_bound_radius_sq's value and parts, and the prior depth of its
    sigma channel (0 when sigma is 0)."""
    budget = divergence_budget(alpha, beta)  # validates the levels
    j_max = _count("j_max", j_max)

    depth = prior_depth(spec, sigma, alpha, beta, j_max) if sigma > 0.0 else 0
    if depth >= 1:
        hardest = float(_hardest_upto(spec, j_max)[depth - 1])
        sigma_part = (budget * budget / 16.0) * sigma * sigma * hardest
    else:
        sigma_part = 0.0

    epsilon_part = 0.0
    if epsilon > 0.0:
        scale = (2.0 * budget) ** 0.25 * _squared(epsilon)
        epsilon_part = _epsilon_channel(spec, scale, j_max)

    return max(sigma_part, epsilon_part), (sigma_part, epsilon_part), depth


def _epsilon_channel(spec: RegimeSpec, scale: float, j_max: int) -> float:
    """sup_{d <= j_max} min(grow_d, decay_d), grow_d = scale * sqrt(sum_{j<=d} b_j^-4)
    and decay_d = a_d^-2, over blocks of the cached running sums (see
    testproc._blocks).

    It stops at the first d with grow_d >= decay_d: past it the candidate only
    decreases.  A running sum whose term or total leaves the float range
    raises SequenceOverflowError only when no such d comes before it, as a
    scan index by index would.
    """
    sums = _running_sums(_decay(spec))
    best = 0.0
    for lo, hi in _blocks(j_max):
        block = sums.upto(hi)[lo:]
        with np.errstate(over="ignore"):  # inf, as with Python floats
            grow = scale * np.sqrt(block)
        decay = a_inv_sq(spec, np.arange(lo + 1, lo + block.size + 1))
        crossed = np.flatnonzero(grow >= decay)
        end = crossed[0] + 1 if crossed.size else block.size
        best = max(best, float(np.minimum(grow[:end], decay[:end]).max(initial=0.0)))
        if crossed.size:
            return best
        if block.size < hi - lo:  # the sums stop short of hi
            raise SequenceOverflowError(sums.overflow)
    return best


def evaluate_bounds(spec: RegimeSpec, epsilon: float, sigma: float, alpha: float,
                    beta: float, j_max: int, kappa: float = KAPPA_DEFAULT) -> BoundReport:
    """One-stop report: both bounds plus the bandwidth bracket and the prior
    depth they were computed from."""
    upper, argmin_dim, bracket = _upper_bound(spec, epsilon, sigma, alpha, beta, j_max, kappa)
    lower, components, depth = _lower_bound(spec, epsilon, sigma, alpha, beta, j_max)
    return BoundReport(upper_sq=upper, upper_argmin_dim=argmin_dim, lower_sq=lower,
                       lower_components=components, bracket_low=bracket.low,
                       bracket_high=bracket.high, prior_depth=depth)


# ---------------------------------------------------------------------------
# Benchmark rate formulas
# ---------------------------------------------------------------------------

# Accepted values of rate_formula's `which`.
WHICH = ("upper", "lower", "known")


def rate_formula(spec: RegimeSpec, epsilon: float, sigma: float, which: str) -> float:
    """Benchmark squared-radius rate for the regime, constants set to 1.

    which: 'upper' or 'lower' for the noisy-operator benchmarks (maximum of a
    signal-noise part and an operator-noise part), 'known' for the
    known-operator benchmark (signal-noise part only).  A part past the
    float range, or a noise level whose reciprocal is, is refused.
    """
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    _check_unit("epsilon", epsilon)
    _check_unit("sigma", sigma)
    try:
        eps_part = _signal_rate(spec, epsilon)
        if which == "known":
            return eps_part
        return max(eps_part, _operator_rate(spec, sigma, which == "upper"))
    except OverflowError:
        raise ValueError(f"the {which} rate of {spec.name} (s={spec.s!r}, t={spec.t!r}) at "
                         f"epsilon={epsilon!r}, sigma={sigma!r} exceeds the float range") from None


def _log_inverse(level: float) -> float:
    """math.log(1.0 / level); a reciprocal past the float range overflows."""
    inverse = 1.0 / level
    if inverse == math.inf:
        raise OverflowError
    return math.log(inverse)


def _signal_rate(spec: RegimeSpec, epsilon: float) -> float:
    """rate_formula's signal-noise part."""
    s, t = spec.s, spec.t
    log_eps = _log_inverse(epsilon)
    if spec.b_kind is DecayKind.MILD:
        if spec.a_kind is GrowthKind.ORDINARY:
            return epsilon ** (4.0 * s / (2.0 * s + 2.0 * t + 0.5))
        return epsilon ** 2 * log_eps ** (2.0 * t + 0.5)
    if spec.a_kind is GrowthKind.ORDINARY:
        return log_eps ** (-2.0 * s)
    return epsilon ** (2.0 * s / (s + t))


def _operator_rate(spec: RegimeSpec, sigma: float, upper: bool) -> float:
    """rate_formula's operator-noise part, the 'upper' or the 'lower' one."""
    s, t = spec.s, spec.t
    log_sigma = _log_inverse(sigma)
    cap = 2.0 * min(s / t, 1.0)
    if spec.b_kind is DecayKind.MILD:
        if spec.a_kind is GrowthKind.ORDINARY:
            return (sigma * log_sigma ** 0.75) ** cap if upper else sigma ** cap
        return sigma * sigma * log_sigma ** 1.5 if upper else sigma * sigma
    if spec.a_kind is GrowthKind.ORDINARY:
        if not upper:
            return log_sigma ** (-2.0 * s)
        # sigma * sqrt(ln(1/sigma)) is at most (2e)**-0.5 < 1 on (0, 1): the log is positive
        return math.log(1.0 / (sigma * math.sqrt(log_sigma))) ** (-2.0 * s)
    return (sigma * math.sqrt(log_sigma)) ** cap if upper else sigma ** cap
