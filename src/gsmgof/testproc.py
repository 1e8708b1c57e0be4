"""Spectral cut-off goodness-of-fit test.

The statistic accumulates (y_j/x_j - theta0_j)**2 over the active window
j <= min(d, m), where the random bandwidth m reads off how deep the noisy
operator coefficients remain informative.  It is compared against a
data-driven threshold whose three parts (centering, deviation, bias) are
exposed individually for diagnostics.  The adaptive dimension selector
balances the deviation term against the bias floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateBandwidthError, DegenerateObservationError
from .gsm import NoiseLevels, Observations, Signal
from .sequences import (RegimeSpec, _check_nonnegative, _check_positive, _count, _fsum, _index,
                        a_inv_sq, b_vector)

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
    "dimension_objective",
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


def _check_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _check_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa > math.e):
        raise ValueError(f"kappa must be finite and exceed e, got {kappa!r}")


def tail_exponent(alpha: float) -> float:
    """The x solving exp(-x) = alpha/2: tail budget for a two-sided split of alpha."""
    _check_unit("level", alpha)
    ratio = 2.0 / alpha
    if ratio == math.inf:
        raise ValueError(f"level {alpha!r} is too small: 2 / level exceeds the float range")
    return math.log(ratio)


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
    _check_unit("level", alpha)
    _check_kappa(kappa)
    j = _index(j)
    with np.errstate(over="ignore"):  # refused below
        out = coefficient * np.sqrt(np.log(kappa * j * j / alpha))
        if shifted:
            out = out + math.sqrt(2.0 * math.log(10.0 / alpha))
    if not np.isfinite(out).all():
        raise ValueError(f"the envelope leaves the float range at kappa={kappa!r}, "
                         f"alpha={alpha!r}, from j={np.min(j[~np.isfinite(out)]):.17g}")
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


@functools.lru_cache(maxsize=32)
def _table(envelope: Callable, alpha: float, kappa: float, n: int) -> np.ndarray:
    """envelope (scan_envelope, bracket_envelope_low or bracket_envelope_high)
    at j = 1..n, built once per (envelope, alpha, kappa, n) and read-only.
    The envelope is computed index by index, so a prefix of this table equals
    the envelope built at that shorter length."""
    table = envelope(np.arange(1, n + 1), alpha, kappa)
    table.setflags(write=False)
    return table


def _check_finite(xs: np.ndarray) -> None:
    """Refuse an observed operator coefficient that is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise ValueError(f"observed operator coefficient {bad[0] + 1} is {float(xs[bad[0]])!r}")


def _first_hit(hits: np.ndarray) -> int:
    """Index of the first True in a nonempty hits, its length when there is none."""
    k = int(hits.argmax())
    return k if hits[k] else hits.size


def _blocks(n: int):
    """The consecutive blocks (lo, hi) of range(n) in which a scan that stops
    at its first hit compares: 64, 128, 256, ... indices, the last one cut at n."""
    lo, size = 0, 64
    while lo < n:
        yield lo, min(lo + size, n)
        lo, size = lo + size, 2 * size


def _first_trigger(b: np.ndarray, sigma: float, table: np.ndarray) -> int:
    """_first_hit(b <= sigma * table), compared a block at a time (see
    _blocks) and stopping at the first block with a hit.  Each comparison is
    the full-length one's, so the answer is too, whatever the shape of b."""
    for lo, hi in _blocks(b.size):
        k = lo + _first_hit(b[lo:hi] <= sigma * table[lo:hi])
        if k < hi:
            return k
    return b.size


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
    An x within the horizon that is not finite is refused.
    """
    _check_positive("sigma", sigma)
    x = np.asarray(x, dtype=float)
    n = x.size if j_max is None else min(_count("j_max", j_max), x.size)
    if n < 1:
        raise ValueError("empty observation vector")
    _check_finite(x[:n])
    k = _first_hit(np.abs(x[:n]) <= sigma * _table(scan_envelope, alpha, kappa, n))
    return Bandwidth(k, k == n)


def bandwidth_bracket(spec: RegimeSpec, sigma: float, alpha: float,
                      kappa: float = KAPPA_DEFAULT, j_max: int = 10_000) -> BandwidthBracket:
    """Deterministic bracket [low, high) that contains the empirical bandwidth
    with high probability: low from the wide envelope (first trigger minus
    one), high from the narrow one (first trigger itself).  Each scan stops
    at its first trigger."""
    _check_positive("sigma", sigma)
    j_max = _count("j_max", j_max)
    b = b_vector(spec, j_max)
    low = _first_trigger(b, sigma, _table(bracket_envelope_low, alpha, kappa, j_max))
    high = _first_trigger(b, sigma, _table(bracket_envelope_high, alpha, kappa, j_max))
    return BandwidthBracket(low, min(high + 1, j_max), low == j_max, high == j_max)


# ---------------------------------------------------------------------------
# Statistic, threshold, dimension choice
# ---------------------------------------------------------------------------


def _window(x, w: int) -> np.ndarray:
    """The first w observed operator coefficients.  One that is not finite is
    refused, and so is one that is exactly zero (a probability-zero event),
    which would divide by zero."""
    xs = np.asarray(x, dtype=float)[:w]
    _check_finite(xs)
    if np.any(xs == 0.0):
        raise DegenerateObservationError(
            f"observed operator coefficient is exactly zero within the first {w}"
        )
    return xs


def statistic(y, x, theta0: Signal, d: int, m: int) -> float:
    """Cut-off statistic: sum over j <= min(d, m) of (y_j/x_j - theta0_j)**2.

    The empty window returns 0.  A zero observed operator coefficient inside
    the window (a probability-zero event) and a sum that is not finite are refused.
    """
    w = min(_count("d", d), _count("m", m, low=0))
    if w == 0:
        return 0.0
    y = np.asarray(y, dtype=float)
    xs = _window(x, w)
    ref = theta0.padded(max(w, len(theta0)))[:w]
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        total = _fsum(_terms(y[:w], xs, ref).tolist())
    if not math.isfinite(total):
        raise ValueError(f"the statistic over the first {w} coefficients is not finite")
    return total


def _terms(y, x, theta0):
    """The statistic's terms (y_j/x_j - theta0_j)**2, element by element."""
    return (y / x - theta0) ** 2


class ThresholdParts(NamedTuple):
    centering: float  # eps^2 * sum x_j^-2: null mean of the statistic given x
    deviation: float  # threshold_constant(alpha) * eps^2 * sqrt(sum x_j^-4)
    bias: float  # (1 + sqrt(tail_exponent(alpha))) * max(sigma^2 ln^1.5(1/sigma), a_w^-2)

    @property
    def total(self) -> float:
        """The threshold: centering + deviation + bias."""
        return self.centering + self.deviation + self.bias


def threshold_parts(x, spec: RegimeSpec, d: int, m: int, epsilon: float,
                    sigma: float, alpha: float) -> ThresholdParts:
    """The three threshold summands over the active window w = min(d, m)."""
    w = min(_count("d", d, low=0), _count("m", m, low=0))
    if w == 0:
        raise DegenerateBandwidthError("empty active window: min(d, m) = 0")
    _check_unit("sigma", sigma)
    _check_nonnegative("epsilon", epsilon)
    xs = _window(x, w)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        inv2, inv4 = xs ** -2.0, xs ** -4.0
        parts = _parts(_fsum(inv2.tolist()), _fsum(inv4.tolist()), a_inv_sq(spec, w),
                       epsilon, sigma, alpha)
    parts = ThresholdParts(*map(float, parts))
    if not math.isfinite(parts.total):
        raise ValueError(f"the threshold is not finite: {parts}")
    return parts


def _parts(sum_inv2, sum_inv4, a_w, epsilon: float, sigma: float,
           alpha: float) -> ThresholdParts:
    """The threshold's parts from a window's sums of x_j^-2 and x_j^-4 and
    its a_w^-2, element by element on floats or arrays; nothing is refused
    (threshold_parts refuses a total that is not finite)."""
    return ThresholdParts(
        centering=epsilon * epsilon * sum_inv2,
        deviation=threshold_constant(alpha) * epsilon * epsilon * np.sqrt(sum_inv4),
        bias=(1.0 + math.sqrt(tail_exponent(alpha))) * _floor(a_w, sigma),
    )


def _floor(a_w, sigma: float):
    """The bias floor max(sigma^2 ln^1.5(1/sigma), a_w^-2), given a_w^-2 as
    a_w.  A subnormal sigma makes the first NaN, and the floor with it."""
    return np.maximum(sigma * sigma * math.log(1.0 / sigma) ** 1.5, a_w)


def threshold(x, spec: RegimeSpec, d: int, m: int, epsilon: float,
              sigma: float, alpha: float) -> float:
    """Data-driven rejection threshold: centering + deviation + bias.

    Strictly decreasing in alpha, so rejection regions are nested across
    levels at fixed data.
    """
    return threshold_parts(x, spec, d, m, epsilon, sigma, alpha).total


def _squared(epsilon: float) -> float:
    """epsilon ** 2 of a finite nonnegative epsilon; one past the float range
    is refused."""
    _check_nonnegative("epsilon", epsilon)
    try:
        return epsilon ** 2
    except OverflowError:
        raise ValueError(f"epsilon={epsilon!r} squared exceeds the float range") from None


def _objective_weight(epsilon: float, alpha: float, beta: float) -> float:
    """adaptive_constant * eps^2, the dimension objective's deviation weight."""
    return adaptive_constant(alpha, beta) * _squared(epsilon)


def _objective(spec: RegimeSpec, inv4_sums, dims, epsilon: float, sigma: float,
               alpha: float, beta: float) -> np.ndarray:
    """Deviation-plus-bias objective from the running sums of the inverse
    fourth powers (one row per replication, or a single one) and the
    dimensions that set the bias floor:

        adaptive_constant * eps^2 * sqrt(inv4_sums)
        + (7 + 4*sqrt(tail_exponent(alpha))) * max(sigma^2 ln^1.5(1/sigma), a_dims^-2)
    """
    weight = _objective_weight(epsilon, alpha, beta)
    bias = _bias(spec, dims, sigma, alpha)
    objective = np.sqrt(inv4_sums)
    objective *= weight
    objective += bias
    return objective


def _bias(spec: RegimeSpec, dims, sigma: float, alpha: float) -> np.ndarray:
    """The dimension objective's bias term at dims (see _objective)."""
    bias = _floor(a_inv_sq(spec, dims), sigma)
    bias *= 7.0 + 4.0 * math.sqrt(tail_exponent(alpha))
    return bias


def dimension_objective(x, spec: RegimeSpec, m: int, epsilon: float, sigma: float,
                        alpha: float, beta: float) -> np.ndarray:
    """Adaptive-dimension objective evaluated at every d in {1..m}, with the
    running sums of x_j^-4 (see _objective).

    Every occurrence of the dimension is through min(d, m), so the objective
    is constant beyond m and the scan never needs to look past it.  An
    objective that is not finite at some d (a sum of x_j^-4 past the float
    range, or the NaN bias floor of a subnormal sigma) is refused.
    """
    objective = _dimension_objective(x, spec, m, epsilon, sigma, alpha, beta)
    finite = np.isfinite(objective)
    if not finite.all():
        raise ValueError(f"the dimension objective is {objective[finite.argmin()]} "
                         f"from d={finite.argmin() + 1}")
    return objective


def _dimension_objective(x, spec: RegimeSpec, m: int, epsilon: float, sigma: float,
                         alpha: float, beta: float) -> np.ndarray:
    """dimension_objective, with what it refuses as NaN or inf entries (the
    Monte Carlo kernel's objective)."""
    m = _count("m", m, low=0)
    if m == 0:
        raise DegenerateBandwidthError("bandwidth is zero; no dimension to select")
    _check_unit("sigma", sigma)
    xs = _window(x, m)
    with np.errstate(over="ignore", invalid="ignore"):  # inf sums, and 0 * inf, as the kernel's
        return _objective(spec, np.cumsum(xs ** -4.0), np.arange(1, m + 1),
                          epsilon, sigma, alpha, beta)


def select_dimension(x, spec: RegimeSpec, m: int, epsilon: float, sigma: float,
                     alpha: float, beta: float) -> int:
    """Smallest minimizer of the adaptive-dimension objective over {1..m}.

    Ties break toward the smaller dimension (cheapest statistic among equals).
    An objective that is not finite at some d is read as the Monte Carlo
    kernel reads it: np.argmin's first NaN, else its first minimum.
    """
    return int(np.argmin(_dimension_objective(x, spec, m, epsilon, sigma, alpha, beta))) + 1


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
        _check_unit("level", self.alpha)
        _check_unit("level", self.beta)
        _check_kappa(self.kappa)
        object.__setattr__(self, "j_max", _count("j_max", self.j_max))
        if self.dimension is not None:
            object.__setattr__(self, "dimension", _count("dimension", self.dimension))
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
    _check_unit("sigma", noise.sigma)
    if len(obs) < config.j_max:
        raise ValueError(
            f"observations of length {len(obs)} are shorter than the horizon {config.j_max}"
        )
    band = empirical_bandwidth(obs.x, noise.sigma, config.alpha, config.kappa, config.j_max)
    return _decide(band, obs.x, obs.y, theta0, spec, noise, config)


def _decide(band: Bandwidth, x, y, theta0: Signal, spec: RegimeSpec, noise: NoiseLevels,
            config: TestConfig) -> TestReport:
    """The test once the bandwidth is known: dimension choice on x[:m], then
    statistic vs threshold over the window min(d, m) of y.  A zero bandwidth
    gives the accepting degenerate report (see TestReport)."""
    if band.value == 0:
        return TestReport(bandwidth=0, window=0, statistic=0.0, threshold=math.nan,
                          reject=False, degenerate=True, bandwidth_truncated=band.truncated)
    if config.dimension is not None:
        d = config.dimension
    else:
        d = select_dimension(x, spec, band.value, noise.epsilon, noise.sigma,
                             config.alpha, config.beta)
    value = statistic(y, x, theta0, d, band.value)
    cutoff = threshold(x, spec, d, band.value, noise.epsilon, noise.sigma, config.alpha)
    return TestReport(bandwidth=band.value, window=min(d, band.value), statistic=value,
                      threshold=cutoff, reject=bool(value > cutoff), degenerate=False,
                      bandwidth_truncated=band.truncated)
