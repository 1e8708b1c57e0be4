"""Benchmark coefficient sequences and smoothness-ellipsoid arithmetic.

Two families of operator singular values (polynomial and exponential decay)
combine with two families of smoothness weights (polynomial and exponential
growth) into four benchmark regimes.  Everything here is evaluated lazily up
to a caller-supplied horizon; no global cap lives in this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SequenceOverflowError

__all__ = [
    "DecayKind",
    "GrowthKind",
    "RegimeSpec",
    "a_inv_sq",
    "a_value",
    "b_value",
    "b_vector",
    "cumulative_b_inv4",
    "cumulative_b_inv4_prefix",
    "ellipsoid_weighted_norm",
]


class DecayKind(str, enum.Enum):
    """How fast the operator singular values fall off."""

    MILD = "mild"  # b_j = c_b * j**(-t)
    SEVERE = "severe"  # b_j = c_b * exp(-j*t)


class GrowthKind(str, enum.Enum):
    """How fast the smoothness weights grow."""

    ORDINARY = "ordinary"  # a_j = c_a * j**s
    SUPER = "super"  # a_j = c_a * exp(j*s)


@dataclass(frozen=True)
class RegimeSpec:
    """One of the four benchmark regimes.

    Parameters
    ----------
    b_kind : DecayKind or str
        Decay family of the singular values.
    a_kind : GrowthKind or str
        Growth family of the smoothness weights.
    t : float
        Decay exponent of the singular values, > 0.
    s : float
        Growth exponent of the smoothness weights, > 0.
    c_b, c_a : float, optional
        Proportionality constants, > 0 (default 1).  Fixing them makes every
        downstream number reproducible.
    """

    b_kind: DecayKind
    a_kind: GrowthKind
    t: float
    s: float
    c_b: float = 1.0
    c_a: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_kind", DecayKind(self.b_kind))
        object.__setattr__(self, "a_kind", GrowthKind(self.a_kind))
        for name in ("t", "s", "c_b", "c_a"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))

    @classmethod
    def from_name(cls, name: str, s: float = 1.0, t: float = 1.0,
                  c_b: float = 1.0, c_a: float = 1.0) -> "RegimeSpec":
        """Build a spec from a ``"<decay>-<growth>"`` name like ``"mild-ordinary"``."""
        try:
            decay, growth = name.split("-")
            kinds = DecayKind(decay), GrowthKind(growth)
        except ValueError:
            raise ValueError(
                f"unknown regime name {name!r}; expected e.g. 'mild-ordinary' or 'severe-super'"
            ) from None
        return cls(*kinds, t=t, s=s, c_b=c_b, c_a=c_a)

    @property
    def name(self) -> str:
        return f"{self.b_kind.value}-{self.a_kind.value}"


def _count(name: str, value, low: int = 1) -> int:
    """value as an int: one that int() would truncate (or cannot read) is
    refused, and so is one below low."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return number


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")


def _check_vector(name: str, values) -> np.ndarray:
    """values as a one-dimensional float array, refused by name unless every
    entry is finite."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def _fsum(values) -> float:
    """math.fsum of nonnegative floats; inf where finite ones sum past the
    float range, which fsum refuses with an OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


_SUM_CAP = 64  # the widest window _window_sums certifies; a wider one goes to math.fsum
_SUM_BOUND = 2.0 ** 1014  # 64 values under it sum to under 2**1020: nothing near overflow


def _two_sum(a, b, s, err, z) -> None:
    """Knuth's TwoSum into s and err: s = fl(a + b) and err = a + b - s,
    exactly unless a + b overflows.  z is scratch; a is none of s, err and
    z, and b is not z."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=z)
    np.subtract(b, z, out=err)
    np.subtract(s, z, out=z)
    np.subtract(a, z, out=z)
    err += z


def _window_sums(columns, width) -> np.ndarray:
    """math.fsum of every window of every column, bit for bit: out[c, i] is
    that of values width[:i].sum() .. width[:i + 1].sum() - 1 of columns[c],
    the windows being laid end to end.  A window in which any column's
    finite values sum past the float range (fsum's OverflowError) is inf in
    every column.

    The windows of at most _SUM_CAP values are summed at once, zero-padded
    to a block, by a cascade of TwoSums (Knuth; see Ogita, Rump & Oishi
    2005), each exact: s + err = s' + v at every step, and a second TwoSum
    on the running error, e + loss = e' + err, so the exact sum is s + e
    plus the sum of the losses.  A last TwoSum gives r = fl(s + e) and the
    exact remainder rr = s + e - r.  fsum returns the exact sum rounded to
    nearest, ties to even (Shewchuk 1997), and r is that in two cases:
    - every loss is 0: r is IEEE's rounding of the exact sum itself;
    - 2 (|rr| + 2 L) < g, L the float sum of the |losses| and g the smaller
      gap between r and its neighbours: the float sum of at most 64
      nonnegative values is above half their exact sum, so the exact sum
      lies strictly within g / 2 of r, and rounds to r.  g is a power of
      two, so g / 2 is a float, or g is the least subnormal and every
      value here a multiple of it; either way, as rounding is monotone, a
      computed left side below g shows the exact one below it.  g is NaN
      at r = 0, which this case never accepts.
    Both need each value of the window finite and under _SUM_BOUND in size,
    so that no step of the cascade or of fsum's partials can overflow.  Any
    other window (wider than the cap, with a larger or a non-finite value,
    or a sum neither case settles) is summed by math.fsum, in order, so an
    error is raised where a loop over the windows would raise it.
    """
    columns = [np.ascontiguousarray(values, dtype=float) for values in columns]
    width = np.asarray(width)
    out = np.zeros((len(columns), width.size))
    narrow = width <= _SUM_CAP
    n = int(width[narrow].max(initial=0))
    padded = np.zeros((len(columns), width.size, n))
    inside = np.arange(n) < np.where(narrow, width, 0)[:, None]
    keep = None if narrow.all() else np.repeat(narrow, width)
    for block, values in zip(padded, columns):
        block[inside] = values if keep is None else values[keep]
    ok = narrow
    if n:
        s, e, loss = padded[:, :, 0].copy(), np.zeros(out.shape), np.zeros(out.shape)
        t, err, u, lost, z = (np.empty(out.shape) for _ in range(5))
        with np.errstate(all="ignore"):  # a value that is not finite goes to fsum
            for k in range(1, n):
                _two_sum(s, padded[:, :, k], t, err, z)
                _two_sum(e, err, u, lost, z)
                s, t, e, u = t, s, u, e
                loss += np.abs(lost, out=lost)
            _two_sum(s, e, out, err, z)  # r and rr
            size = np.abs(out)
            bits = size.view(np.int64)  # the floats next to |r|, below and above
            gap = np.minimum(size - (bits - 1).view(float), (bits + 1).view(float) - size)
            sure = (loss == 0.0) | (2.0 * (np.abs(err) + 2.0 * loss) < gap)
            if not np.abs(padded).max() < _SUM_BOUND:  # then find the windows that hold one
                sure &= np.abs(padded).max(axis=2) < _SUM_BOUND
        ok = ok & sure.all(axis=0)
    if not ok.all():
        views, ends = [memoryview(values) for values in columns], np.cumsum(width)
        for i in np.flatnonzero(~ok).tolist():
            a, b = int(ends[i] - width[i]), int(ends[i])
            try:
                out[:, i] = [math.fsum(view[a:b]) for view in views]
            except OverflowError:
                out[:, i] = math.inf
    return out


def _index(j) -> np.ndarray:
    """j as a float array; an index that is not a positive integer (NaN and
    inf among them) is refused, naming the first one."""
    j = np.asarray(j)
    integral = j.dtype.kind in "iub"  # integral and finite: only the sign can be wrong
    j = j.astype(float, copy=False)
    ok = j >= 1 if integral else (j >= 1) & (np.floor(j) == j) & np.isfinite(j)
    if not ok.all():
        bad = float(j.flat[np.flatnonzero(~ok)[0]])
        shown = int(bad) if bad.is_integer() else bad
        raise ValueError(f"sequence index must be a positive integer, got {shown!r}")
    return j


def b_value(spec: RegimeSpec, j):
    """Singular value at index j (positive integer or integer array)."""
    j = _index(j)
    if spec.b_kind is DecayKind.MILD:
        out = spec.c_b * j ** (-spec.t)
    else:
        out = spec.c_b * np.exp(-j * spec.t)
    return out if out.ndim else float(out)


def a_value(spec: RegimeSpec, j):
    """Smoothness weight at index j (positive integer or integer array).  A
    weight past the float range is refused."""
    out = _weight(spec, j)
    finite = np.isfinite(np.ravel(out))
    if not finite.all():
        raise SequenceOverflowError(f"a_{np.ravel(j)[finite.argmin()]} exceeds the floating-point "
                                    f"range (s={spec.s}, c_a={spec.c_a})")
    return out


def _weight(spec: RegimeSpec, j):
    """a_value, but inf (and no warning) where a weight passes the float range."""
    j = _index(j)
    with np.errstate(over="ignore"):
        if spec.a_kind is GrowthKind.ORDINARY:
            out = spec.c_a * j ** spec.s
        else:
            out = spec.c_a * np.exp(j * spec.s)
    return out if out.ndim else float(out)


def _inverse_power(spec: RegimeSpec, name: str, power: float) -> float:
    """The constant spec.<name> to the power -power, or a
    SequenceOverflowError naming the constant when that leaves the float range."""
    value = getattr(spec, name)
    try:
        return value ** -power
    except OverflowError:
        raise SequenceOverflowError(
            f"{name}**(-{power:g}) exceeds the floating-point range ({name}={value!r})"
        ) from None


def a_inv_sq(spec: RegimeSpec, j):
    """Inverse squared smoothness weight a_j**(-2).

    Evaluated in a form that underflows gracefully to 0 for exponential
    growth instead of overflowing on the way; used as the bias floor by the
    test threshold and both bound evaluators, so they all share one rounding.
    """
    j = _index(j)
    scale = _inverse_power(spec, "c_a", 2.0)
    if spec.a_kind is GrowthKind.ORDINARY:
        out = scale * j ** (-2.0 * spec.s)
    else:
        out = scale * np.exp(-2.0 * spec.s * j)
    return out if out.ndim else float(out)


class _Decay(NamedTuple):
    """All that b and the sums of b_j**(-4) read or name in an error: the key
    of their caches, so specs that differ only in growth share them."""

    b_kind: DecayKind
    t: float
    c_b: float


def _decay(spec: RegimeSpec) -> _Decay:
    return _Decay(spec.b_kind, spec.t, spec.c_b)


class _Growth(NamedTuple):
    """All that a and a**(-2) read or name in an error: a cache key that specs
    differing only in decay share."""

    a_kind: GrowthKind
    s: float
    c_a: float


def _growth(spec: RegimeSpec) -> _Growth:
    return _Growth(spec.a_kind, spec.s, spec.c_a)


@lru_cache(maxsize=128)
def _b_vector_cached(decay: _Decay, n: int) -> np.ndarray:
    arr = np.asarray(b_value(decay, np.arange(1, n + 1)))
    arr.setflags(write=False)
    return arr


def b_vector(spec: RegimeSpec, n: int) -> np.ndarray:
    """Read-only array of the first n singular values (cached per decay:
    b_kind, t and c_b)."""
    return _b_vector_cached(_decay(spec), _count("n", n))


def _overflow_error(spec: RegimeSpec, j: int) -> SequenceOverflowError:
    return SequenceOverflowError(
        f"b_{j}**(-4) exceeds the floating-point range (index {j}, t={spec.t})"
    )


def _sum_overflow_error(spec: RegimeSpec, d: int) -> SequenceOverflowError:
    return SequenceOverflowError(
        f"the sum of b_j**(-4) for j = 1..{d} exceeds the floating-point range (t={spec.t})"
    )


def _b_inv4_terms(spec: RegimeSpec, d: int, start: int = 1):
    """An iterator of b_j**(-4) for j = start..d, raising on floating-point
    overflow; a c_b**(-4) past the float range is refused at once."""
    return _scaled_b_inv4_terms(spec, _inverse_power(spec, "c_b", 4.0), d, start)


def _scaled_b_inv4_terms(spec: RegimeSpec, scale: float, d: int, start: int):
    mild = spec.b_kind is DecayKind.MILD
    for j in range(start, d + 1):
        try:
            term = scale * (float(j) ** (4.0 * spec.t) if mild else math.exp(4.0 * j * spec.t))
        except OverflowError:
            raise _overflow_error(spec, j) from None
        if math.isinf(term):
            raise _overflow_error(spec, j)
        yield term


def cumulative_b_inv4(spec: RegimeSpec, d: int) -> float:
    """Sum of b_j**(-4) for j = 1..d, exactly rounded via compensated summation.
    A term or a sum past the float range is refused."""
    d = _count("d", d)
    try:
        return math.fsum(_b_inv4_terms(spec, d))
    except SequenceOverflowError:
        raise
    except OverflowError:  # fsum's own: finite terms whose sum leaves the float range
        raise _sum_overflow_error(spec, d) from None


class _RunningSums:
    """The partial sums of b_j**(-4) for one decay, Kahan-compensated: each
    agrees with an exactly rounded sum to a few ulps even when the terms span
    many orders of magnitude, and the sequence is nondecreasing.

    They are read-only and grown on demand by resuming the compensated sum
    (total, carry) where the last request stopped.  The sum is sequential, so
    every prefix is the one a single pass to that length gives.  Growth stops
    for good at the first index whose term or sum leaves the float range; the
    message of that refusal is kept.
    """

    def __init__(self, decay: _Decay) -> None:
        self.decay = decay
        self.sums = np.empty(0)
        self.total = 0.0
        self.carry = 0.0
        self.overflow: str | None = None  # why growth stopped for good, once it has

    def upto(self, d: int) -> np.ndarray:
        """The sums for j = 1..d, cut before the first index that overflows
        when that lies within d."""
        n = self.sums.size
        if d > n and self.overflow is None:
            grown = []
            total, carry = self.total, self.carry
            terms = _b_inv4_terms(self.decay, d, start=n + 1)
            try:
                for term in terms:
                    y = term - carry
                    tmp = total + y
                    if tmp == math.inf:
                        raise _sum_overflow_error(self.decay, n + len(grown) + 1)
                    carry = (tmp - total) - y
                    total = tmp
                    grown.append(total)
            except SequenceOverflowError as refusal:
                self.overflow = str(refusal)
            self.total, self.carry = total, carry
            self.sums = np.concatenate((self.sums, grown))
            self.sums.setflags(write=False)
        return self.sums[:d]


@lru_cache(maxsize=128)
def _running_sums(decay: _Decay) -> _RunningSums:
    return _RunningSums(decay)


def cumulative_b_inv4_prefix(spec: RegimeSpec, d: int) -> np.ndarray:
    """Read-only array of the partial sums of b_j**(-4) for j = 1..d
    (Kahan-compensated, monotone nondecreasing; cached per decay)."""
    d = _count("d", d)
    sums = _running_sums(_decay(spec))
    prefix = sums.upto(d)
    if prefix.size < d:
        raise SequenceOverflowError(sums.overflow)
    return prefix


def ellipsoid_weighted_norm(spec: RegimeSpec, theta) -> float:
    """Weighted squared norm sum_j a_j**2 * theta_j**2.

    Membership in the smoothness class holds iff the result is <= 1.  Only
    nonzero coordinates are touched, so trailing zeros never trip the
    exponential weights.  A theta that is not finite is refused, and so is
    one whose weighted sum leaves the float range (a SequenceOverflowError
    naming the index where the running sum does).
    """
    theta = _check_vector("theta", theta)
    nz = np.nonzero(theta)[0]
    if nz.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # a weight or term past the float range is refused below
        terms = (np.asarray(_weight(spec, nz + 1)) * theta[nz]) ** 2
        total = _fsum(terms.tolist())
        if not math.isfinite(total):
            past = np.flatnonzero(~np.isfinite(np.cumsum(terms)))
            j = int(nz[past[0] if past.size else -1]) + 1
            raise SequenceOverflowError(
                f"sum of a_j**2 * theta_j**2 exceeds the floating-point range at index {j}"
            )
    return total
