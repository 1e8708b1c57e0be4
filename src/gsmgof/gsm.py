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
from .sequences import DecayKind, GrowthKind, RegimeSpec, _count, a_value, b_value, b_vector

__all__ = [
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
_U_MAX = 1.0 - _INV_2_53  # the largest float below 1


def _gaussian(words: np.ndarray) -> np.ndarray:
    """Standard Gaussian draws from raw 64-bit Philox words, element by
    element: the top 53 bits, centred in their interval, through the inverse
    normal CDF.  The top centre rounds to 1.0 (ndtri: +inf) and is clamped to
    1 - 2**-53; every other one is at most 1 - 2**-52, so no draw is infinite."""
    u = (words >> np.uint64(11)) * _INV_2_53 + _HALF_ULP
    return ndtri(np.minimum(u, _U_MAX, out=u))


DRAW_BOUND = 8.3  # over -ndtri(2**-54) = 8.2924 and ndtri(1 - 2**-53) = 8.2095


class RekeyedDraws:
    """The standard Gaussian draws of any (replication, stream) pair under one
    seed, from a single Philox generator re-keyed through its state: building
    a generator per pair costs several times more than setting its counter.

    Draw k is a pure function of (seed, rep, stream, k): Philox turns counter
    c into four words, and draw k is word k % 4 of counter (k // 4 + 1, 0,
    rep, stream) pushed through the inverse normal CDF.  Distinct
    (rep, stream) pairs can never overlap, so worker scheduling cannot change
    any value, and rows from any start offset continue the same stream.
    Every draw lies within DRAW_BOUND of zero.

    The state handed to Philox's setter holds plain ints, as reading numpy
    scalars costs the setter more than drawing a short row; block and stream
    are set once a rows call, and each row sets only its rep.
    """

    def __init__(self, seed: int) -> None:
        self._bits = Philox(key=_word("seed", seed, 128))
        self._state = state = self._bits.state
        self._counter = state["state"]["counter"].tolist()
        state.update(state={"counter": self._counter, "key": state["state"]["key"].tolist()},
                     buffer=state["buffer"].tolist())

    def _words(self, reps, stream: int, start: int, widths) -> list:
        """The raw words of rows (see rows), one array each."""
        block, skip = divmod(start, 4)
        counter, bits, state, rows = self._counter, self._bits, self._state, []
        counter[0], counter[3] = block, stream
        for rep, width in zip(reps, widths):
            counter[2] = rep
            bits.state = state
            if skip:
                bits.random_raw(skip)
            rows.append(bits.random_raw(width))
        return rows

    def rows(self, reps, stream: int, start: int, widths) -> np.ndarray:
        """Row i holds draws start .. start + widths[i] - 1 of (reps[i],
        stream), all pushed through the inverse CDF at once; a row shorter
        than the widest is padded with finite values no one should read.
        The arguments are checked once a call (see _word)."""
        reps, widths = _words_of("rep", reps), _words_of("width", widths)
        if len(reps) != len(widths):
            raise ValueError(f"reps and widths differ in length: {len(reps)} and {len(widths)}")
        stream, start = _word("stream", stream, 64), _word("start", start, 66)
        words = self._words(reps, stream, start, widths)
        flat = np.concatenate(words) if words else np.zeros(0, dtype=np.uint64)
        n = max(widths, default=0)
        if n * len(words) == flat.size:  # equal widths
            return _gaussian(flat.reshape(len(words), n))
        padded = np.zeros((len(words), n), dtype=np.uint64)
        padded[np.arange(n) < np.array(widths)[:, None]] = flat
        return _gaussian(padded)


def _word(name: str, value, bits: int) -> int:
    """value as an int in [0, 2**bits), refused by name otherwise: a Philox
    key has 128 bits, a counter word 64, and a start offset 66 (four draws
    to a counter)."""
    number = _count(name, value, low=-math.inf)
    if not 0 <= number < 2 ** bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value!r}")
    return number


def _words_of(name: str, values):
    """values, each one an int in [0, 2**64): checked in one numpy pass when
    numpy reads them as nonnegative integers, else one by one by _word."""
    array = np.asarray(values)
    if array.dtype.kind in "iu" and not (array.size and array.min() < 0):
        return values
    return [_word(name, value, 64) for value in values]


def gaussian_draws(seed: int, rep: int, stream: int, n: int) -> np.ndarray:
    """The first n draws of the (seed, replication, stream) triple (see
    RekeyedDraws)."""
    return RekeyedDraws(seed).rows([rep], stream, 0, [_count("n", n, low=0)])[0]


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
        return cls(np.zeros(_count("n", n, low=0)))

    def __len__(self) -> int:
        return self.coefficients.size

    def padded(self, n: int) -> np.ndarray:
        """Coefficients extended with zeros to length n (writable copy)."""
        if len(self) > n:
            raise ValueError(f"signal of length {len(self)} does not fit in {n} coefficients")
        out = np.zeros(_count("n", n, low=0))
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
    j_max = _count("j_max", j_max)
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
    if not u >= 0.0:
        raise ValueError(f"signal-to-noise ratio must be nonnegative, got {u!r}")
    return _phi((_WINDOW_HIGH - 1.0) * u) - _phi((_WINDOW_LOW - 1.0) * u)


def two_point_shift_constant(spec: RegimeSpec, sigma: float, alpha: float, beta: float,
                             d: int) -> float:
    """Shift multiplier for the hardest two-point pair at coordinate d.

    The divergence budget plus the log window mass at u = b_d / sigma.  In
    the zero-noise limit the window mass is 1 and only the budget remains.
    """
    d = _count("d", d)
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
    d = _count("d", d)
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
    j_max = _count("j_max", j_max)
    if a_value(spec, 1) * r > 1.0:
        raise InfeasibleRadiusError(
            f"spike of norm {r:.6g} does not fit the smoothness class at any coordinate"
        )
    # Closed-form seed, then exact local adjustment against the predicate.
    # The seed is taken in log space and capped at the horizon: 1/(c_a*r)
    # and its power can leave the float range at a tiny r.
    depth = max(-math.log(spec.c_a) - math.log(r), 0.0) / spec.s
    if spec.a_kind is GrowthKind.ORDINARY:
        depth = math.exp(min(depth, math.log(j_max)))
    d = max(int(min(depth, j_max)), 1)
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
