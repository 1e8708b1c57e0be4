"""Sequence-space observation model with noisy operator coefficients.

One replication draws the pair

    y[j] = b[j] * theta[j] + epsilon * xi[j]
    x[j] = b[j] + sigma * eta[j]          (j = 1..j_max)

with independent standard Gaussian streams xi and eta.  All randomness is
counter-based: every draw is a pure function of (seed, replication, stream,
index), so replications can be evaluated in any order, on any number of
workers, with bit-identical results.

The module also constructs the signal pairs used for power evaluation: the
hardest two-point pair concentrated on a single coordinate, and spike
alternatives placed at the largest frequency the smoothness class admits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import InfeasibleConstructionError, InfeasibleRadiusError, InvalidLevelsError
from .sequences import DecayKind, GrowthKind, RegimeSpec, a_value, b_value, b_vector

__all__ = [
    "GaussianStream",
    "NoiseLevels",
    "Observations",
    "Signal",
    "SIGNAL_STREAM",
    "OPERATOR_STREAM",
    "QUADFORM_STREAM",
    "RekeyedDraws",
    "default_j_max",
    "divergence_budget",
    "gaussian_draws",
    "make_spike_alternative",
    "make_two_point_pair",
    "simulate",
    "spike_index",
    "two_point_shift_constant",
    "window_mass",
]

# ---------------------------------------------------------------------------
# Counter-based Gaussian streams
# ---------------------------------------------------------------------------

SIGNAL_STREAM = 1  # xi: additive noise on y
OPERATOR_STREAM = 2  # eta: additive noise on x
QUADFORM_STREAM = 3  # omega: draws for the quadratic-form tail checker

_INV_2_53 = 2.0 ** -53
_HALF_ULP = 2.0 ** -54


def _gaussian(words: np.ndarray) -> np.ndarray:
    """Standard Gaussian draws from raw 64-bit Philox words, element by
    element: the top 53 bits, centred in their interval, through the inverse
    normal CDF."""
    return ndtri((words >> np.uint64(11)) * _INV_2_53 + _HALF_ULP)


def _check_rep(rep: int) -> None:
    """Refuse a replication index that is not a counter word."""
    if not 0 <= rep < 2 ** 64:
        raise ValueError(f"rep must lie in [0, 2**64), got {rep!r}")


class GaussianStream:
    """The standard Gaussian draws of one (seed, replication, stream) triple,
    taken in order.

    The k-th draw is a pure function of (seed, rep, stream, k): the counter
    of a Philox generator starts at (0, 0, rep, stream) and the raw 64-bit
    words are pushed through the inverse normal CDF.  Distinct (rep, stream)
    pairs can never overlap, so worker scheduling cannot change any value.
    Each take(k) continues where the last one stopped, so takes of any sizes
    concatenate to the same values as one take of their total.  Every finite
    draw lies within DRAW_BOUND of zero.
    """

    def __init__(self, seed: int, rep: int, stream: int) -> None:
        _check_rep(rep)
        self._bits = Philox(key=seed, counter=np.array([0, 0, rep, stream], dtype=np.uint64))

    def take(self, n: int) -> np.ndarray:
        """The next n draws of the stream."""
        return _gaussian(self._bits.random_raw(n))


DRAW_BOUND = 8.3  # -ndtri(2**-54) = 8.2924 bounds the smallest draw


def gaussian_draws(seed: int, rep: int, stream: int, n: int) -> np.ndarray:
    """The first n draws of the (seed, replication, stream) triple (see
    GaussianStream)."""
    return GaussianStream(seed, rep, stream).take(n)


class RekeyedDraws:
    """The draws of any (replication, stream) pair under one seed, from a
    single Philox generator re-keyed through its state: building a generator
    per pair costs several times more than setting its counter.

    Philox turns counter c into four words, so draw k of a pair comes from
    counter (k // 4 + 1, 0, rep, stream): the draws are GaussianStream's.
    """

    def __init__(self, seed: int) -> None:
        self._bits = Philox(key=seed)
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]

    def _words(self, rep: int, stream: int, start: int, n: int) -> np.ndarray:
        _check_rep(rep)
        block, skip = divmod(start, 4)
        self._counter[0] = block
        self._counter[2] = rep
        self._counter[3] = stream
        self._bits.state = self._state
        if skip:
            self._bits.random_raw(skip)
        return self._bits.random_raw(n)

    def rows(self, reps, stream: int, start: int, widths) -> np.ndarray:
        """Row i holds draws start .. start + widths[i] - 1 of (reps[i],
        stream), all pushed through the inverse CDF at once; a row shorter
        than the widest is padded with finite values no one should read."""
        words = np.empty((len(reps), max(widths, default=0)), dtype=np.uint64)
        for row, rep, width in zip(words, reps, widths):
            row[:width] = self._words(rep, stream, start, width)
            row[width:] = 0
        return _gaussian(words)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseLevels:
    """Additive noise scales: epsilon on the signal channel, sigma on the operator channel."""

    epsilon: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "sigma"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class Signal:
    """Finite coefficient vector, implicitly zero beyond its length."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float, copy=True)
        if coeffs.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zeros(cls, n: int = 0) -> "Signal":
        return cls(np.zeros(int(n)))

    def __len__(self) -> int:
        return self.coefficients.size

    def padded(self, n: int) -> np.ndarray:
        """Coefficients extended with zeros to length n (writable copy)."""
        if len(self) > n:
            raise ValueError(f"signal of length {len(self)} does not fit in {n} coefficients")
        out = np.zeros(int(n))
        out[: len(self)] = self.coefficients
        return out


@dataclass(frozen=True, eq=False)
class Observations:
    """One realization of the observation pair (y, x)."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "x"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if self.y.size != self.x.size:
            raise ValueError("y and x must have equal length")

    def __len__(self) -> int:
        return self.y.size


def default_j_max(spec: RegimeSpec) -> int:
    """Default truncation horizon: 10_000 for polynomial decay, 200 for
    exponential decay (beyond which the singular values underflow)."""
    return 200 if spec.b_kind is DecayKind.SEVERE else 10_000


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def simulate(theta: Signal, spec: RegimeSpec, noise: NoiseLevels, seed: int,
             j_max: int, rep: int = 0) -> Observations:
    """Draw one replication of the observation model.

    Parameters
    ----------
    theta : Signal
        True coefficients; must fit inside the horizon.
    spec : RegimeSpec
    noise : NoiseLevels
    seed : int
        Master seed; combined with ``rep`` and the per-channel stream tags.
    j_max : int
        Horizon: both output vectors have this length.
    rep : int, optional
        Replication index.  Monte Carlo loops pass consecutive values and
        obtain independent, order-insensitive draws.
    """
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if len(theta) > j_max:
        raise ValueError("theta does not fit inside the horizon")
    b = b_vector(spec, j_max)
    y = b * theta.padded(j_max)
    if noise.epsilon > 0.0:
        y = y + noise.epsilon * gaussian_draws(seed, rep, SIGNAL_STREAM, j_max)
    if noise.sigma > 0.0:
        x = b + noise.sigma * gaussian_draws(seed, rep, OPERATOR_STREAM, j_max)
    else:
        x = b.copy()
    return Observations(y=y, x=x)


# ---------------------------------------------------------------------------
# Hardest two-point pairs
# ---------------------------------------------------------------------------


def divergence_budget(alpha: float, beta: float) -> float:
    """Log divergence budget ln(1 + 4(1 - alpha - beta)^2).

    The largest log chi-square-type divergence between the null and an
    alternative mixture that still forces some test to exceed first-kind
    error alpha or second-kind error beta.  Defined for alpha + beta < 1.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0 and alpha + beta < 1.0):
        raise InvalidLevelsError(
            f"need alpha, beta in (0, 1) with alpha + beta < 1, got {alpha}, {beta}"
        )
    gap = 1.0 - alpha - beta
    return math.log1p(4.0 * gap * gap)


# The two-point prior keeps each noisy operator coefficient inside [b/2, 2b].
_WINDOW_LOW, _WINDOW_HIGH = 0.5, 2.0


def _phi(z: float) -> float:
    """Standard normal CDF via erfc (accurate far into both tails)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def window_mass(u: float) -> float:
    """Gaussian probability that a noisy operator coefficient stays inside
    the window [b/2, 2b], at signal-to-noise ratio u = b/sigma.

    Equals Phi(u) - Phi(-u/2); increases from 0 to 1 in u.
    """
    if u < 0.0:
        raise ValueError("signal-to-noise ratio must be nonnegative")
    return _phi((_WINDOW_HIGH - 1.0) * u) - _phi((_WINDOW_LOW - 1.0) * u)


def two_point_shift_constant(spec: RegimeSpec, sigma: float, alpha: float, beta: float,
                             d: int) -> float:
    """Shift multiplier for the hardest two-point pair at coordinate d.

    The divergence budget plus the log window mass at u = b_d / sigma.  In
    the zero-noise limit the window mass is 1 and only the budget remains.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return divergence_budget(alpha, beta)
    mass = window_mass(b_value(spec, d) / sigma)
    if mass <= 0.0:
        raise InfeasibleConstructionError(
            f"operator window mass vanished at coordinate {d} (sigma={sigma}); "
            "operator noise too large for a two-point pair here"
        )
    return divergence_budget(alpha, beta) + math.log(mass)


def make_two_point_pair(spec: RegimeSpec, noise: NoiseLevels, alpha: float, beta: float,
                        d: int) -> tuple[Signal, Signal]:
    """Hardest two-point pair (theta0, theta) concentrated on coordinate d.

    theta puts half the admissible amplitude at d; theta0 shifts it up by the
    relative amount shift_constant * sigma / b_d, which must not exceed 1 for
    both signals to stay inside the smoothness class.  Their distance is then
    exactly (shift_constant / 2) * sigma / (a_d * b_d).
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    base = 0.5 / a_value(spec, d)
    if noise.sigma == 0.0:
        theta0_d = base  # zero separation
    else:
        shift = two_point_shift_constant(spec, noise.sigma, alpha, beta, d)
        if shift <= 0.0:
            raise InfeasibleConstructionError(
                f"nonpositive shift constant {shift:.6g} at coordinate {d}; "
                "the window mass discount exceeds the divergence budget"
            )
        relative = shift * noise.sigma / b_value(spec, d)
        if relative > 1.0:
            raise InfeasibleConstructionError(
                f"relative shift {relative:.6g} exceeds 1 at coordinate {d}; "
                "the shifted signal would leave the smoothness class"
            )
        theta0_d = base + relative * base
    pair = np.zeros((2, d))
    pair[:, d - 1] = theta0_d, base
    return Signal(pair[0]), Signal(pair[1])


# ---------------------------------------------------------------------------
# Spike alternatives
# ---------------------------------------------------------------------------


def spike_index(spec: RegimeSpec, r: float, j_max: int) -> int:
    """Largest coordinate whose weight still admits a bump of norm r.

    Returns max{d <= j_max : a_d * r <= 1}; raises when even the first
    coordinate cannot carry the bump.
    """
    if r <= 0.0 or not math.isfinite(r):
        raise ValueError("spike norm must be positive and finite")
    j_max = int(j_max)
    if a_value(spec, 1) * r > 1.0:
        raise InfeasibleRadiusError(
            f"spike of norm {r:.6g} does not fit the smoothness class at any coordinate"
        )
    # Closed-form seed, then exact local adjustment against the predicate.
    bound = 1.0 / (spec.c_a * r)
    if spec.a_kind is GrowthKind.ORDINARY:
        guess = int(bound ** (1.0 / spec.s)) if bound >= 1.0 else 1
    else:
        guess = int(math.log(bound) / spec.s) if bound >= 1.0 else 1
    d = min(max(guess, 1), j_max)
    while d > 1 and a_value(spec, d) * r > 1.0:
        d -= 1
    while d < j_max and a_value(spec, d + 1) * r <= 1.0:
        d += 1
    return d


def make_spike_alternative(spec: RegimeSpec, theta0: Signal, r: float, j_max: int) -> Signal:
    """theta0 plus a single-coordinate bump of norm exactly r.

    The bump sits at the largest admissible frequency, so the difference from
    theta0 is the hardest direction of the class at this norm: it has norm r
    and stays inside the smoothness ellipsoid.
    """
    d = spike_index(spec, r, j_max)
    coeffs = theta0.padded(max(len(theta0), d))
    coeffs[d - 1] += r
    return Signal(coeffs)
