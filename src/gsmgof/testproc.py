"""Spectral cut-off goodness-of-fit test.

The statistic accumulates (y_j/x_j - theta0_j)**2 over the active window
j <= min(d, m), where the random bandwidth m reads off how deep the noisy
operator coefficients remain informative.  It is compared against a
data-driven threshold whose three parts (centering, deviation, bias) are
exposed individually for diagnostics.  The adaptive dimension selector
balances the deviation term against the bias floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBandwidthError, DegenerateObservationError
from .gsm import NoiseLevels, Observations, Signal
from .sequences import RegimeSpec, a_inv_sq, b_vector

__all__ = [
    "KAPPA_DEFAULT",
    "Bandwidth",
    "BandwidthBracket",
    "TestConfig",
    "TestReport",
    "ThresholdParts",
    "adaptive_constant",
    "bandwidth_bracket",
    "bracket_envelope_high",
    "bracket_envelope_low",
    "empirical_bandwidth",
    "run_test",
    "scan_envelope",
    "select_dimension",
    "statistic",
    "tail_exponent",
    "threshold",
    "threshold_constant",
    "threshold_parts",
]

KAPPA_DEFAULT = 5.0 * (3.0 * math.pi ** 2 + 12.0) / 6.0


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {alpha!r}")


def tail_exponent(alpha: float) -> float:
    """The x solving exp(-x) = alpha/2: tail budget for a two-sided split of alpha."""
    _check_level(alpha)
    return math.log(2.0 / alpha)


def threshold_constant(alpha: float) -> float:
    """Deviation multiplier 3*sqrt(x) + 2*x at x = tail_exponent(alpha)."""
    x = tail_exponent(alpha)
    return 3.0 * math.sqrt(x) + 2.0 * x


def adaptive_constant(alpha: float, beta: float) -> float:
    """Deviation weight of the adaptive-dimension objective:
    16 * (threshold_constant(alpha) + 3*sqrt(tail_exponent(beta)))."""
    return 16.0 * (threshold_constant(alpha) + 3.0 * math.sqrt(tail_exponent(beta)))


# ---------------------------------------------------------------------------
# Scan envelopes and bandwidths
# ---------------------------------------------------------------------------


def _envelope(j, alpha: float, kappa: float, coefficient: float, shifted: bool):
    _check_level(alpha)
    if not kappa > math.e:
        raise ValueError(f"kappa must exceed e, got {kappa!r}")
    j = np.asarray(j, dtype=float)
    if j.size and np.min(j) < 1:
        raise ValueError("index must be >= 1")
    out = coefficient * np.sqrt(np.log(kappa * j * j / alpha))
    if shifted:
        out = out + math.sqrt(2.0 * math.log(10.0 / alpha))
    return out if out.ndim else float(out)


def scan_envelope(j, alpha: float, kappa: float = KAPPA_DEFAULT):
    """Stopping envelope for the empirical bandwidth scan:
    16*sqrt(ln(kappa*j^2/alpha)) + sqrt(2*ln(10/alpha)).  Increasing in j."""
    return _envelope(j, alpha, kappa, 16.0, True)


def bracket_envelope_low(j, alpha: float, kappa: float = KAPPA_DEFAULT):
    """Wide envelope (coefficient 18, shifted): its deterministic first-trigger
    index, minus one, bounds the empirical bandwidth from below."""
    return _envelope(j, alpha, kappa, 18.0, True)


def bracket_envelope_high(j, alpha: float, kappa: float = KAPPA_DEFAULT):
    """Narrow envelope (coefficient 16, no shift): its deterministic
    first-trigger index bounds the empirical bandwidth from above."""
    return _envelope(j, alpha, kappa, 16.0, False)


class Bandwidth(NamedTuple):
    value: int
    truncated: bool  # the scan reached the horizon without triggering


class BandwidthBracket(NamedTuple):
    low: int
    high: int
    low_truncated: bool
    high_truncated: bool


def empirical_bandwidth(x, sigma: float, alpha: float, kappa: float = KAPPA_DEFAULT,
                        j_max: int | None = None) -> Bandwidth:
    """First index where |x_j| drops inside sigma times the scan envelope, minus one.

    Zero is a legal value (the very first coefficient is already drowned).
    If no index triggers within the horizon the scan is truncated: the true
    bandwidth exceeds the horizon, which usually means j_max is undersized.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    n = x.size if j_max is None else min(int(j_max), x.size)
    if n < 1:
        raise ValueError("empty observation vector")
    envelope = sigma * scan_envelope(np.arange(1, n + 1), alpha, kappa)
    hits = np.nonzero(np.abs(x[:n]) <= envelope)[0]
    if hits.size == 0:
        return Bandwidth(n, True)
    return Bandwidth(int(hits[0]), False)


def bandwidth_bracket(spec: RegimeSpec, sigma: float, alpha: float,
                      kappa: float = KAPPA_DEFAULT, j_max: int = 10_000) -> BandwidthBracket:
    """Deterministic bracket [low, high) that contains the empirical bandwidth
    with high probability: low from the wide envelope (first trigger minus
    one), high from the narrow one (first trigger itself)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    j_max = int(j_max)
    j = np.arange(1, j_max + 1)
    b = b_vector(spec, j_max)
    hits_low = np.nonzero(b <= sigma * bracket_envelope_low(j, alpha, kappa))[0]
    hits_high = np.nonzero(b <= sigma * bracket_envelope_high(j, alpha, kappa))[0]
    low, low_trunc = (int(hits_low[0]), False) if hits_low.size else (j_max, True)
    high, high_trunc = (int(hits_high[0]) + 1, False) if hits_high.size else (j_max, True)
    return BandwidthBracket(low, high, low_trunc, high_trunc)


# ---------------------------------------------------------------------------
# Statistic, threshold, dimension choice
# ---------------------------------------------------------------------------


def _window(x, w: int) -> np.ndarray:
    """The first w observed operator coefficients.  One that is exactly zero
    (a probability-zero event) would divide by zero, so it is refused."""
    xs = np.asarray(x, dtype=float)[:w]
    if np.any(xs == 0.0):
        raise DegenerateObservationError(
            f"observed operator coefficient is exactly zero within the first {w}"
        )
    return xs


def statistic(y, x, theta0: Signal, d: int, m: int) -> float:
    """Cut-off statistic: sum over j <= min(d, m) of (y_j/x_j - theta0_j)**2.

    The empty window returns 0.  A zero observed operator coefficient inside
    the window (a probability-zero event) is refused explicitly.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    w = min(int(d), int(m))
    if w == 0:
        return 0.0
    y = np.asarray(y, dtype=float)
    xs = _window(x, w)
    ref = theta0.padded(max(w, len(theta0)))[:w]
    terms = (y[:w] / xs - ref) ** 2
    return float(math.fsum(terms.tolist()))


class ThresholdParts(NamedTuple):
    centering: float  # eps^2 * sum x_j^-2: null mean of the statistic given x
    deviation: float  # threshold_constant(alpha) * eps^2 * sqrt(sum x_j^-4)
    bias: float  # (1 + sqrt(tail_exponent(alpha))) * max(sigma^2 ln^1.5(1/sigma), a_w^-2)


def threshold_parts(x, spec: RegimeSpec, d: int, m: int, epsilon: float,
                    sigma: float, alpha: float) -> ThresholdParts:
    """The three threshold summands over the active window w = min(d, m)."""
    w = min(int(d), int(m))
    if w <= 0:
        raise DegenerateBandwidthError("empty active window: min(d, m) = 0")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    xs = _window(x, w)
    sum_inv2 = math.fsum((xs ** -2.0).tolist())
    sum_inv4 = math.fsum((xs ** -4.0).tolist())
    x_tail = tail_exponent(alpha)
    floor = max(sigma * sigma * math.log(1.0 / sigma) ** 1.5, a_inv_sq(spec, w))
    return ThresholdParts(
        centering=epsilon * epsilon * sum_inv2,
        deviation=threshold_constant(alpha) * epsilon * epsilon * math.sqrt(sum_inv4),
        bias=(1.0 + math.sqrt(x_tail)) * floor,
    )


def threshold(x, spec: RegimeSpec, d: int, m: int, epsilon: float,
              sigma: float, alpha: float) -> float:
    """Data-driven rejection threshold: centering + deviation + bias.

    Strictly decreasing in alpha, so rejection regions are nested across
    levels at fixed data.
    """
    parts = threshold_parts(x, spec, d, m, epsilon, sigma, alpha)
    return parts.centering + parts.deviation + parts.bias


def dimension_objective(x, spec: RegimeSpec, m: int, epsilon: float, sigma: float,
                        alpha: float, beta: float, n: int | None = None) -> np.ndarray:
    """Adaptive-dimension objective evaluated at every d in {1..n} (n = m by default):

        adaptive_constant * eps^2 * sqrt(sum_{j<=d} x_j^-4)
        + (7 + 4*sqrt(tail_exponent(alpha))) * max(sigma^2 ln^1.5(1/sigma), a_d^-2)

    Every occurrence of the dimension is through min(d, m), so the objective
    is constant beyond m and the scan never needs to look past it.
    """
    if m < 1:
        raise DegenerateBandwidthError("bandwidth is zero; no dimension to select")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma!r}")
    n = int(m) if n is None else min(int(n), int(m))
    xs = _window(x, n)
    j = np.arange(1, n + 1)
    deviation = adaptive_constant(alpha, beta) * epsilon ** 2 * np.sqrt(np.cumsum(xs ** -4.0))
    floor = sigma * sigma * math.log(1.0 / sigma) ** 1.5
    bias = (7.0 + 4.0 * math.sqrt(tail_exponent(alpha))) * np.maximum(floor, a_inv_sq(spec, j))
    return deviation + bias


def select_dimension(x, spec: RegimeSpec, m: int, epsilon: float, sigma: float,
                     alpha: float, beta: float, j_max: int | None = None) -> int:
    """Smallest minimizer of the adaptive-dimension objective over {1..j_max}.

    Ties break toward the smaller dimension (cheapest statistic among equals).
    """
    obj = dimension_objective(x, spec, m, epsilon, sigma, alpha, beta, j_max)
    return int(np.argmin(obj)) + 1


# ---------------------------------------------------------------------------
# Full test pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestConfig:
    """Levels, envelope constant, horizon, and dimension policy.

    dimension=None selects the dimension adaptively from the data; a positive
    integer fixes the cut-off.  The adaptive objective assumes the first-kind
    level does not exceed the second-kind target, so alpha <= beta is
    enforced in that mode.
    """

    __test__ = False  # not a pytest class, despite the name

    alpha: float
    beta: float
    j_max: int
    kappa: float = KAPPA_DEFAULT
    dimension: int | None = None

    def __post_init__(self) -> None:
        _check_level(self.alpha)
        _check_level(self.beta)
        if not self.kappa > math.e:
            raise ValueError(f"kappa must exceed e, got {self.kappa!r}")
        if int(self.j_max) < 1:
            raise ValueError("j_max must be >= 1")
        object.__setattr__(self, "j_max", int(self.j_max))
        if self.dimension is not None:
            if int(self.dimension) < 1:
                raise ValueError("dimension must be >= 1 when fixed")
            object.__setattr__(self, "dimension", int(self.dimension))
        elif self.alpha > self.beta:
            raise ValueError("adaptive dimension selection requires alpha <= beta")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run.

    ``window`` is the number of coefficients actually summed, min(dimension,
    bandwidth).  A zero bandwidth short-circuits to the degenerate accepting
    report: no usable coefficient survives, and never rejecting preserves the
    first-kind error level.  The threshold is NaN in that case.
    """

    __test__ = False  # not a pytest class, despite the name

    bandwidth: int
    window: int
    statistic: float
    threshold: float
    reject: bool
    degenerate: bool
    bandwidth_truncated: bool = False


def run_test(obs: Observations, theta0: Signal, spec: RegimeSpec,
             noise: NoiseLevels, config: TestConfig) -> TestReport:
    """Full pipeline: bandwidth scan, dimension choice, statistic vs threshold."""
    if len(obs) < config.j_max:
        raise ValueError(
            f"observations of length {len(obs)} are shorter than the horizon {config.j_max}"
        )
    band = empirical_bandwidth(obs.x, noise.sigma, config.alpha, config.kappa, config.j_max)
    if band.value == 0:
        return TestReport(
            bandwidth=0, window=0, statistic=0.0, threshold=math.nan,
            reject=False, degenerate=True, bandwidth_truncated=band.truncated,
        )
    if config.dimension is not None:
        d = config.dimension
    else:
        d = select_dimension(obs.x, spec, band.value, noise.epsilon, noise.sigma,
                             config.alpha, config.beta, config.j_max)
    value = statistic(obs.y, obs.x, theta0, d, band.value)
    cutoff = threshold(obs.x, spec, d, band.value, noise.epsilon, noise.sigma, config.alpha)
    return TestReport(
        bandwidth=band.value,
        window=min(d, band.value),
        statistic=value,
        threshold=cutoff,
        reject=bool(value > cutoff),
        degenerate=False,
        bandwidth_truncated=band.truncated,
    )
