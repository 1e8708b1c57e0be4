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
    normal CDF.  The top centre rounds to 1.0 (an infinite draw) and is
    clamped to 1 - 2**-53; every other one is at most 1 - 2**-52, so every
    uniform lies in [2**-54, 1 - 2**-53], the only domain _ndtri handles, and
    no draw is infinite.  The transform is Cephes ndtri, bit for bit, with
    libm's log in its tails: numpy's SIMD log is not bit-identical to libm's."""
    u = (words >> np.uint64(11)) * _INV_2_53 + _HALF_ULP
    return _ndtri(np.minimum(u, _U_MAX, out=u))


# Cephes ndtri (S. L. Moshier), the inverse normal CDF that scipy.special.ndtri
# computes: a rational function of y = u - 1/2 on the centre (exp(-2),
# 1 - exp(-2)], and of z = 1/x, x = sqrt(-2 log y) with y = u or 1 - u, in
# each tail (P1/Q1 for x < 8, P2/Q2 beyond).  Each Q is monic; its leading 1
# is left out, as in Cephes.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(t: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """t * P(t) / Q(t) as Cephes rounds it: each Horner step a multiply, then
    an add (a fused step would round differently), Q with its leading 1."""
    num, den = np.full_like(t, p[0]), t + q[0]
    for c in p[1:]:
        num *= t
        num += c
    for c in q[1:]:
        den *= t
        den += c
    num *= t
    num /= den
    return num


def _log(v: np.ndarray) -> np.ndarray:
    """The natural log of each entry of a contiguous v by libm (math.log):
    numpy's SIMD log is not bit-identical to it, and differs in the last bit
    on a few inputs in ten thousand.  A memoryview hands math.log plain
    floats without building a list."""
    return np.fromiter(map(math.log, memoryview(v)), np.float64, v.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of every u in [2**-54, 1 - 2**-53], computed in
    u's buffer: Cephes ndtri operation for operation, so each value is
    scipy.special.ndtri's to the bit.  The centre formula runs over the whole
    array (its Q0 has no root for y**2 in [0, 1/4], so every entry is finite)
    and the tails, about 27% of the entries, are gathered and written over it.
    """
    flat = u.reshape(-1)
    upper = flat > 1.0 - _EXP_M2
    tail = np.flatnonzero(upper | (flat <= _EXP_M2))
    y, upper = flat[tail], upper[tail]
    np.subtract(1.0, y, out=y, where=upper)
    flat -= 0.5
    flat += flat * _rational(flat * flat, _P0, _Q0)
    flat *= _S2PI
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = _rational(z, _P1, _Q1)
    far = x >= 8.0  # y <= exp(-32): 114 of the 2**53 uniforms at each end
    if far.any():
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 -= x1
    flat[tail] = np.negative(x0, out=x0, where=~upper)
    return flat.reshape(u.shape)


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
        """The raw words of rows (see rows), one array each; a row starting
        inside a counter draws the words before it in its call and drops them."""
        block, skip = divmod(start, 4)
        counter, bits, state, rows = self._counter, self._bits, self._state, []
        counter[0], counter[3] = block, stream
        for rep, width in zip(reps, widths):
            counter[2] = rep
            bits.state = state
            rows.append(bits.random_raw(skip + width)[skip:] if skip else bits.random_raw(width))
        return rows

    def rows(self, reps, stream: int, start: int, widths) -> np.ndarray:
        """Row i holds draws start .. start + widths[i] - 1 of (reps[i],
        stream), all pushed through the inverse CDF at once; a row shorter
        than the widest is padded with finite values no one should read.
        The arguments are checked once a call (see _word)."""
        reps, widths = _words_of("rep", reps), _words_of("width", widths)
        if len(reps) != len(widths):
            raise ValueError(f"reps and widths differ in length: {len(reps)} and {len(widths)}")
        return self._rows(reps, _word("stream", stream, 64), _word("start", start, 66), widths)

    def _rows(self, reps, stream: int, start: int, widths) -> np.ndarray:
        """rows on checked arguments."""
        words = self._words(reps, stream, start, widths)
        flat = np.concatenate(words) if words else np.zeros(0, dtype=np.uint64)
        n = max(widths, default=0)
        if n * len(words) == flat.size:  # equal widths
            return _gaussian(flat.reshape(len(words), n))
        padded = np.zeros((len(words), n), dtype=np.uint64)
        padded[np.arange(n) < np.array(widths)[:, None]] = flat
        return _gaussian(padded)


class _ChunkDraws(RekeyedDraws):
    """RekeyedDraws that keeps, per stream, a table of draws 0 .. width - 1
    of every replication in [lo, hi), each row drawn once, at its first
    request.  A request from start whose rows all lie in [lo, hi) and end by
    the table's width (start + max(widths) <= width) is sliced from it; its
    padding is the rows' later draws, finite as every draw is.  Any other
    request draws as RekeyedDraws does.  The values are RekeyedDraws', bit
    for bit: a draw depends on its index only, not on the row it is drawn in.
    """

    def __init__(self, seed: int, lo: int, hi: int, width: int) -> None:
        super().__init__(seed)
        self.lo, self.hi, self.width = lo, hi, width
        self._tables = {}  # stream: (draws, whether each row is drawn)

    def _rows(self, reps, stream: int, start: int, widths) -> np.ndarray:
        n, index = max(widths, default=0), np.asarray(reps)
        if not (index.size and index.dtype.kind in "iu" and start + n <= self.width
                and self.lo <= index.min() and index.max() < self.hi):
            return super()._rows(reps, stream, start, widths)
        index = index.astype(np.intp) - self.lo
        if stream not in self._tables:
            self._tables[stream] = (np.empty((self.hi - self.lo, self.width)),
                                    np.zeros(self.hi - self.lo, dtype=bool))
        table, drawn = self._tables[stream]
        new = np.zeros(drawn.size, dtype=bool)  # not np.unique: it imports numpy.ma
        new[index] = ~drawn[index]
        new = np.flatnonzero(new)
        if new.size:
            words = self._words((new + self.lo).tolist(), stream, 0, [self.width] * new.size)
            table[new] = _gaussian(np.concatenate(words).reshape(new.size, self.width))
            drawn[new] = True
        return table[index, start:start + n]

    def clear(self) -> None:
        """Drop every table (the object may outlive its use in a traceback)."""
        self._tables.clear()


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
    with np.errstate(over="ignore"):  # past the float range, from ln a_d
        a = a_value(spec, d)
    base = 0.5 / a if a < math.inf else 0.5 * math.exp(-_log_weight(spec, d))
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


def _log_weight(spec: RegimeSpec, d: int) -> float:
    """ln a_d, finite where a_d itself passes the float range."""
    growth = d * spec.s if spec.a_kind is GrowthKind.SUPER else spec.s * math.log(d)
    return math.log(spec.c_a) + growth


def _admits(spec: RegimeSpec, d: int, r: float) -> bool:
    """a_d * r <= 1, in logs where a_d passes the float range."""
    with np.errstate(over="ignore"):
        a = a_value(spec, d)
    return a * r <= 1.0 if a < math.inf else _log_weight(spec, d) + math.log(r) <= 0.0


def spike_index(spec: RegimeSpec, r: float, j_max: int) -> int:
    """Largest coordinate whose weight still admits a bump of norm r.

    Returns max{d <= j_max : a_d * r <= 1}; raises when even the first
    coordinate cannot carry the bump.
    """
    if r <= 0.0 or not math.isfinite(r):
        raise ValueError("spike norm must be positive and finite")
    j_max = _count("j_max", j_max)
    if not _admits(spec, 1, r):
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
    while d > 1 and not _admits(spec, d, r):
        d -= 1
    while d < j_max and _admits(spec, d + 1, r):
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
