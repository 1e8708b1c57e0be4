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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundError, InvalidLevelsError
from .gsm import divergence_budget, window_mass
from .sequences import (
    DecayKind,
    GrowthKind,
    RegimeSpec,
    _b_inv4_running_sums,
    a_inv_sq,
    b_value,
    b_vector,
    cumulative_b_inv4_prefix,
)
from .testproc import KAPPA_DEFAULT, adaptive_constant, bandwidth_bracket, tail_exponent

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
    """Guaranteed-power squared radius: the minimum over cut-off dimensions of

        adaptive_constant * eps^2 * sqrt(sum_{j<=d} b_j^-4)
        + (7 + 4*sqrt(tail_exponent(alpha))) * max(sigma^2 ln^1.5(1/sigma), a_{min(d, low)}^-2)

    scanned for d up to the high end of the deterministic bandwidth bracket
    (the objective is constant past it).  Returns (value, smallest argmin).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    if alpha > beta:
        raise InvalidLevelsError("the power guarantee needs alpha <= beta")
    bracket = bandwidth_bracket(spec, sigma, alpha, kappa, j_max)
    if bracket.low == 0:
        raise DegenerateBoundError(
            f"operator noise sigma={sigma} drowns the first coefficient in this regime; "
            "the bound has no admissible dimension"
        )
    n = min(bracket.high, int(j_max))
    prefix = cumulative_b_inv4_prefix(spec, n)
    j = np.arange(1, n + 1)
    deviation = adaptive_constant(alpha, beta) * epsilon ** 2 * np.sqrt(prefix)
    floor = sigma * sigma * math.log(1.0 / sigma) ** 1.5
    bias_weight = 7.0 + 4.0 * math.sqrt(tail_exponent(alpha))
    bias = bias_weight * np.maximum(floor, a_inv_sq(spec, np.minimum(j, bracket.low)))
    objective = deviation + bias
    k = int(np.argmin(objective))
    return float(objective[k]), k + 1


# ---------------------------------------------------------------------------
# Lower bound
# ---------------------------------------------------------------------------


def critical_snr(alpha: float, beta: float, c0: float = 0.5, c1: float = 2.0) -> float:
    """Signal-to-noise ratio at which the operator window mass reaches
    (1 + 4(1-alpha-beta)^2)^(-1/2), solved by bisection to 1e-10."""
    gap = 1.0 - alpha - beta
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0 and gap > 0.0):
        raise InvalidLevelsError(
            f"need alpha, beta in (0, 1) with alpha + beta < 1, got {alpha}, {beta}"
        )
    target = 1.0 / math.sqrt(1.0 + 4.0 * gap * gap)

    def gap_fn(u: float) -> float:
        return window_mass(u, c0, c1) - target

    hi = 1.0
    while gap_fn(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - the mass reaches 1 long before this
            raise RuntimeError("window mass failed to reach its target")
    # Bisection on [0, hi] with the midpoints and stopping rule of
    # scipy.optimize.bisect (xtol 1e-10, rtol 4 * machine epsilon).
    xa, fa, dm = 0.0, gap_fn(0.0), hi
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = gap_fn(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < 1e-10 + 4.0 * sys.float_info.epsilon * abs(xm):
            return xm
    raise RuntimeError("bisection failed to converge")  # pragma: no cover


def prior_depth(spec: RegimeSpec, sigma: float, alpha: float, beta: float,
                j_max: int, c0: float = 0.5, c1: float = 2.0) -> int:
    """Deepest coordinate at which the operator-noise channel can still hide
    a detectable shift: the largest d <= j_max with
    b_d >= sigma * max(critical_snr, divergence_budget / 2); 0 if none."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    level = sigma * max(critical_snr(alpha, beta, c0, c1),
                        divergence_budget(alpha, beta) / 2.0)
    if b_value(spec, 1) < level:
        return 0
    j_max = int(j_max)
    # Closed-form seed, then exact local adjustment against the predicate.
    if spec.b_kind is DecayKind.MILD:
        guess = int((spec.c_b / level) ** (1.0 / spec.t)) if level <= spec.c_b else 1
    else:
        guess = int(math.log(spec.c_b / level) / spec.t) if level <= spec.c_b else 1
    d = min(max(guess, 1), j_max)
    while d > 1 and b_value(spec, d) < level:
        d -= 1
    while d < j_max and b_value(spec, d + 1) >= level:
        d += 1
    return d


def lower_bound_radius_sq(spec: RegimeSpec, epsilon: float, sigma: float,
                          alpha: float, beta: float, j_max: int,
                          c0: float = 0.5, c1: float = 2.0) -> tuple[float, tuple[float, float]]:
    """Combined two-channel lower bound on the squared separation radius.

    sigma channel:  (budget^2 / 16) * sigma^2 * max_{d <= prior_depth} b_d^-2 a_d^-2
    epsilon channel: sup_d min((2*budget)^(1/4) * eps^2 * sqrt(sum_{j<=d} b_j^-4), a_d^-2)

    Returns (value, (sigma_part, epsilon_part)) with value = max(parts).
    The epsilon scan stops early once the running maximum can no longer
    improve (the weight term decreases past the crossing point).
    """
    budget = divergence_budget(alpha, beta)  # validates the levels
    j_max = int(j_max)

    if sigma > 0.0:
        depth = prior_depth(spec, sigma, alpha, beta, j_max, c0, c1)
    else:
        depth = 0
    if depth >= 1:
        j = np.arange(1, depth + 1)
        hardest = float(np.max(b_vector(spec, depth) ** -2.0 * a_inv_sq(spec, j)))
        sigma_part = (budget * budget / 16.0) * sigma * sigma * hardest
    else:
        sigma_part = 0.0

    epsilon_part = 0.0
    if epsilon > 0.0:
        scale = (2.0 * budget) ** 0.25 * epsilon ** 2
        running = 0.0
        for d, total in enumerate(_b_inv4_running_sums(spec, j_max), start=1):
            grow = scale * math.sqrt(total)
            decay = a_inv_sq(spec, d)
            running = max(running, min(grow, decay))
            if grow >= decay:
                break  # past the crossing the candidate only decreases
        epsilon_part = running

    return max(sigma_part, epsilon_part), (sigma_part, epsilon_part)


def evaluate_bounds(spec: RegimeSpec, epsilon: float, sigma: float, alpha: float,
                    beta: float, j_max: int, kappa: float = KAPPA_DEFAULT,
                    c0: float = 0.5, c1: float = 2.0) -> BoundReport:
    """One-stop report: both bounds plus the bandwidth diagnostics."""
    upper, argmin_dim = upper_bound_radius_sq(spec, epsilon, sigma, alpha, beta, j_max, kappa)
    lower, components = lower_bound_radius_sq(spec, epsilon, sigma, alpha, beta, j_max, c0, c1)
    bracket = bandwidth_bracket(spec, sigma, alpha, kappa, j_max)
    depth = prior_depth(spec, sigma, alpha, beta, j_max, c0, c1)
    return BoundReport(
        upper_sq=upper,
        upper_argmin_dim=argmin_dim,
        lower_sq=lower,
        lower_components=components,
        bracket_low=bracket.low,
        bracket_high=bracket.high,
        prior_depth=depth,
    )


# ---------------------------------------------------------------------------
# Benchmark rate formulas
# ---------------------------------------------------------------------------

# Accepted values of rate_formula's `which`.
WHICH = ("upper", "lower", "known")


def rate_formula(spec: RegimeSpec, epsilon: float, sigma: float, which: str) -> float:
    """Benchmark squared-radius rate for the regime, constants set to 1.

    which: 'upper' or 'lower' for the noisy-operator benchmarks (maximum of a
    signal-noise part and an operator-noise part), 'known' for the
    known-operator benchmark (signal-noise part only).
    """
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    s, t = spec.s, spec.t
    log_eps = math.log(1.0 / epsilon)
    log_sigma = math.log(1.0 / sigma)
    cap = 2.0 * min(s / t, 1.0)
    mild = spec.b_kind is DecayKind.MILD

    if mild and spec.a_kind is GrowthKind.ORDINARY:
        eps_part = epsilon ** (4.0 * s / (2.0 * s + 2.0 * t + 0.5))
        if which == "upper":
            sigma_part = (sigma * log_sigma ** 0.75) ** cap
        else:
            sigma_part = sigma ** cap
    elif mild:
        eps_part = epsilon ** 2 * log_eps ** (2.0 * t + 0.5)
        if which == "upper":
            sigma_part = sigma * sigma * log_sigma ** 1.5
        else:
            sigma_part = sigma * sigma
    elif spec.a_kind is GrowthKind.ORDINARY:
        eps_part = log_eps ** (-2.0 * s)
        if which == "upper":
            damped = sigma * math.sqrt(log_sigma)
            if damped >= 1.0:
                raise ValueError(
                    f"sigma={sigma} too large for the exponential-decay benchmark"
                )
            sigma_part = math.log(1.0 / damped) ** (-2.0 * s)
        else:
            sigma_part = log_sigma ** (-2.0 * s)
    else:
        eps_part = epsilon ** (2.0 * s / (s + t))
        if which == "upper":
            sigma_part = (sigma * math.sqrt(log_sigma)) ** cap
        else:
            sigma_part = sigma ** cap

    if which == "known":
        return eps_part
    return max(eps_part, sigma_part)
