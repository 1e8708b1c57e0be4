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


def _fsum(values) -> float:
    """math.fsum of nonnegative floats; inf where finite ones sum past the
    float range, which fsum refuses with an OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


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
    """Smoothness weight at index j (positive integer or integer array)."""
    j = _index(j)
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
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("theta must be one-dimensional")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    nz = np.nonzero(theta)[0]
    if nz.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # a weight or term past the float range is refused below
        terms = (np.asarray(a_value(spec, nz + 1)) * theta[nz]) ** 2
        total = _fsum(terms.tolist())
        if not math.isfinite(total):
            past = np.flatnonzero(~np.isfinite(np.cumsum(terms)))
            j = int(nz[past[0] if past.size else -1]) + 1
            raise SequenceOverflowError(
                f"sum of a_j**2 * theta_j**2 exceeds the floating-point range at index {j}"
            )
    return total
