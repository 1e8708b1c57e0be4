"""Exception types shared across the package."""

__all__ = [
    "GsmGofError",
    "SequenceOverflowError",
    "DegenerateObservationError",
    "DegenerateBandwidthError",
    "DegenerateBoundError",
    "InfeasibleConstructionError",
    "InfeasibleRadiusError",
    "InvalidLevelsError",
    "BracketingError",
    "WorkerError",
]


class GsmGofError(Exception):
    """Base class for all library-specific failures."""


class SequenceOverflowError(GsmGofError, OverflowError):
    """A sequence term left the representable floating-point range.

    Exponential-decay singular values make the inverse-fourth-power terms
    grow like exp(4*j*t); they overflow once j*t passes roughly 177.  The
    summation routines raise this instead of silently returning infinity.
    """


class DegenerateObservationError(GsmGofError):
    """An observed operator coefficient inside the active window is exactly zero."""


class DegenerateBandwidthError(GsmGofError):
    """The active window min(d, m) is empty, so no coefficient can be tested."""


class DegenerateBoundError(GsmGofError):
    """The operator noise level is too large for the regime: the deterministic
    bandwidth vanishes and the upper bound has no admissible dimension."""


class InfeasibleConstructionError(GsmGofError):
    """The two-point signal pair cannot be built: the shift constant violates
    its admissibility condition at this (sigma, coordinate)."""


class InfeasibleRadiusError(GsmGofError):
    """No coordinate can carry a spike of the requested norm inside the
    smoothness ellipsoid."""


class InvalidLevelsError(GsmGofError):
    """Error levels lie outside the admissible region (e.g. alpha + beta >= 1)."""


class BracketingError(GsmGofError):
    """A bisection bracket does not straddle the target error level."""


class WorkerError(GsmGofError):
    """A worker process ended before sending its results, or raised an
    error that cannot be sent back to the calling process."""
