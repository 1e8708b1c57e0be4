"""The domain contract of the public entry points: every one of sequences,
gsm, testproc and bounds, given NaN, +-inf, -1, 0, 1, the smallest subnormal
or 1e300 in any one real argument, returns finite results or raises a
GsmGofError or ValueError.  It returns no NaN or inf, warns of no overflow or
invalid value, and raises nothing else.  The Monte Carlo harness is left out.

A real argument is a float parameter, a field of the regime (s, t, c_b,
c_a), of the noise levels or of the test configuration, and the first entry
of a coefficient vector (theta, y or x).  Count arguments are
tests/test_counts.py's."""

import dataclasses
import enum
import math

import numpy as np
import pytest

from gsmgof import (
    KAPPA_DEFAULT,
    GsmGofError,
    NoiseLevels,
    Observations,
    RegimeSpec,
    Signal,
    TestConfig,
    TestReport,
    a_inv_sq,
    a_value,
    adaptive_constant,
    b_value,
    b_vector,
    bandwidth_bracket,
    bracket_envelope_high,
    bracket_envelope_low,
    critical_snr,
    cumulative_b_inv4,
    cumulative_b_inv4_prefix,
    default_j_max,
    dimension_objective,
    divergence_budget,
    ellipsoid_weighted_norm,
    empirical_bandwidth,
    evaluate_bounds,
    lower_bound_radius_sq,
    make_spike_alternative,
    make_two_point_pair,
    prior_depth,
    rate_formula,
    run_test,
    scan_envelope,
    select_dimension,
    simulate,
    spike_index,
    statistic,
    tail_exponent,
    threshold,
    threshold_constant,
    threshold_parts,
    two_point_shift_constant,
    upper_bound_radius_sq,
    window_mass,
)
from gsmgof import bounds, gsm, sequences, testproc
from gsmgof.bounds import WHICH

VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 5e-324, 1e300)
REGIMES = ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super")
J_MAX = 50

# The value of each real argument when another one is varied.  theta, y and x
# are the first entries of the vectors below.
BASE = dict(s=1.0, t=1.0, c_b=1.0, c_a=1.0, epsilon=1e-2, sigma=1e-3, alpha=0.05,
            beta=0.5, kappa=KAPPA_DEFAULT, r=0.1, u=1.0, j=3.0, theta=0.1, y=1e-3, x=1.0)
THETA = np.array([0.1, 0.05])
Y = np.full(J_MAX, 1e-3)
X = 1.0 / np.arange(1.0, J_MAX + 1.0)
SPEC = ("s", "t", "c_b", "c_a")


def _spec(args: dict, regime: str) -> RegimeSpec:
    return RegimeSpec.from_name(regime, s=args["s"], t=args["t"], c_b=args["c_b"],
                                c_a=args["c_a"])


def _vector(args: dict, name: str, base: np.ndarray) -> np.ndarray:
    """base with its first entry set to the argument name."""
    vector = base.copy()
    vector[0] = args[name]
    return vector


def _noise(args: dict) -> NoiseLevels:
    return NoiseLevels(args["epsilon"], args["sigma"])


def _theta(args: dict) -> Signal:
    return Signal(_vector(args, "theta", THETA))


# entry point: (its real arguments, the entry point as a function of them and
# of the regime)
CASES = {
    "RegimeSpec": (SPEC, _spec),
    "a_value": (SPEC + ("j",), lambda a, g: a_value(_spec(a, g), a["j"])),
    "a_inv_sq": (SPEC + ("j",), lambda a, g: a_inv_sq(_spec(a, g), a["j"])),
    "b_value": (SPEC + ("j",), lambda a, g: b_value(_spec(a, g), a["j"])),
    "b_vector": (SPEC, lambda a, g: b_vector(_spec(a, g), J_MAX)),
    "cumulative_b_inv4": (SPEC, lambda a, g: cumulative_b_inv4(_spec(a, g), J_MAX)),
    "cumulative_b_inv4_prefix": (SPEC, lambda a, g: cumulative_b_inv4_prefix(_spec(a, g), J_MAX)),
    "ellipsoid_weighted_norm": (SPEC + ("theta",), lambda a, g: ellipsoid_weighted_norm(
        _spec(a, g), _vector(a, "theta", THETA))),
    "NoiseLevels": (("epsilon", "sigma"), lambda a, g: _noise(a)),
    "Signal": (("theta",), lambda a, g: _theta(a)),
    "Observations": (("y", "x"), lambda a, g: Observations(_vector(a, "y", Y),
                                                           _vector(a, "x", X))),
    "default_j_max": (SPEC, lambda a, g: default_j_max(_spec(a, g))),
    "divergence_budget": (("alpha", "beta"),
                          lambda a, g: divergence_budget(a["alpha"], a["beta"])),
    "window_mass": (("u",), lambda a, g: window_mass(a["u"])),
    "two_point_shift_constant": (SPEC + ("sigma", "alpha", "beta"),
                                 lambda a, g: two_point_shift_constant(
                                     _spec(a, g), a["sigma"], a["alpha"], a["beta"], 3)),
    "make_two_point_pair": (SPEC + ("epsilon", "sigma", "alpha", "beta"),
                            lambda a, g: make_two_point_pair(_spec(a, g), _noise(a), a["alpha"],
                                                             a["beta"], 3)),
    "spike_index": (SPEC + ("r",), lambda a, g: spike_index(_spec(a, g), a["r"], J_MAX)),
    "make_spike_alternative": (SPEC + ("theta", "r"), lambda a, g: make_spike_alternative(
        _spec(a, g), _theta(a), a["r"], J_MAX)),
    "simulate": (SPEC + ("theta", "epsilon", "sigma"),
                 lambda a, g: simulate(_theta(a), _spec(a, g), _noise(a), 7, J_MAX)),
    "TestConfig": (("alpha", "beta", "kappa"),
                   lambda a, g: TestConfig(a["alpha"], a["beta"], J_MAX, a["kappa"])),
    "tail_exponent": (("alpha",), lambda a, g: tail_exponent(a["alpha"])),
    "threshold_constant": (("alpha",), lambda a, g: threshold_constant(a["alpha"])),
    "adaptive_constant": (("alpha", "beta"), lambda a, g: adaptive_constant(a["alpha"],
                                                                            a["beta"])),
    "scan_envelope": (("j", "alpha", "kappa"),
                      lambda a, g: scan_envelope(a["j"], a["alpha"], a["kappa"])),
    "bracket_envelope_low": (("j", "alpha", "kappa"),
                             lambda a, g: bracket_envelope_low(a["j"], a["alpha"], a["kappa"])),
    "bracket_envelope_high": (("j", "alpha", "kappa"),
                              lambda a, g: bracket_envelope_high(a["j"], a["alpha"], a["kappa"])),
    "empirical_bandwidth": (("x", "sigma", "alpha", "kappa"), lambda a, g: empirical_bandwidth(
        _vector(a, "x", X), a["sigma"], a["alpha"], a["kappa"])),
    "bandwidth_bracket": (SPEC + ("sigma", "alpha", "kappa"), lambda a, g: bandwidth_bracket(
        _spec(a, g), a["sigma"], a["alpha"], a["kappa"], J_MAX)),
    "statistic": (("y", "x", "theta"), lambda a, g: statistic(
        _vector(a, "y", Y), _vector(a, "x", X), _theta(a), 3, 5)),
    "threshold_parts": (SPEC + ("x", "epsilon", "sigma", "alpha"), lambda a, g: threshold_parts(
        _vector(a, "x", X), _spec(a, g), 3, 5, a["epsilon"], a["sigma"], a["alpha"])),
    "threshold": (SPEC + ("x", "epsilon", "sigma", "alpha"), lambda a, g: threshold(
        _vector(a, "x", X), _spec(a, g), 3, 5, a["epsilon"], a["sigma"], a["alpha"])),
    "dimension_objective": (SPEC + ("x", "epsilon", "sigma", "alpha", "beta"),
                            lambda a, g: dimension_objective(
                                _vector(a, "x", X), _spec(a, g), 5, a["epsilon"], a["sigma"],
                                a["alpha"], a["beta"])),
    "select_dimension": (SPEC + ("x", "epsilon", "sigma", "alpha", "beta"),
                         lambda a, g: select_dimension(
                             _vector(a, "x", X), _spec(a, g), 5, a["epsilon"], a["sigma"],
                             a["alpha"], a["beta"])),
    "run_test": (SPEC + ("y", "x", "theta", "epsilon", "sigma", "alpha", "beta", "kappa"),
                 lambda a, g: run_test(
                     Observations(_vector(a, "y", Y), _vector(a, "x", X)), _theta(a),
                     _spec(a, g), _noise(a), TestConfig(a["alpha"], a["beta"], J_MAX,
                                                        a["kappa"]))),
    "critical_snr": (("alpha", "beta"), lambda a, g: critical_snr(a["alpha"], a["beta"])),
    "prior_depth": (SPEC + ("sigma", "alpha", "beta"), lambda a, g: prior_depth(
        _spec(a, g), a["sigma"], a["alpha"], a["beta"], J_MAX)),
    "lower_bound_radius_sq": (SPEC + ("epsilon", "sigma", "alpha", "beta"),
                              lambda a, g: lower_bound_radius_sq(
                                  _spec(a, g), a["epsilon"], a["sigma"], a["alpha"], a["beta"],
                                  J_MAX)),
    "upper_bound_radius_sq": (SPEC + ("epsilon", "sigma", "alpha", "beta", "kappa"),
                              lambda a, g: upper_bound_radius_sq(
                                  _spec(a, g), a["epsilon"], a["sigma"], a["alpha"], a["beta"],
                                  J_MAX, a["kappa"])),
    "evaluate_bounds": (SPEC + ("epsilon", "sigma", "alpha", "beta", "kappa"),
                        lambda a, g: evaluate_bounds(
                            _spec(a, g), a["epsilon"], a["sigma"], a["alpha"], a["beta"], J_MAX,
                            a["kappa"])),
    "rate_formula": (SPEC + ("epsilon", "sigma"), lambda a, g: [
        rate_formula(_spec(a, g), a["epsilon"], a["sigma"], which) for which in WHICH]),
}

# Names that are records or constants, not entry points.
RECORDS = {"DecayKind", "GrowthKind", "KAPPA_DEFAULT", "SIGNAL_STREAM", "OPERATOR_STREAM",
           "QUADFORM_STREAM", "Bandwidth", "BandwidthBracket", "ThresholdParts", "TestReport",
           "BoundReport"}
# Entry points with no real argument.
NO_REAL_ARGUMENT = {"RekeyedDraws", "gaussian_draws"}


def _non_finite(result) -> list:
    """The numbers in result that are NaN or infinite, searched through
    tuples, lists, arrays and dataclasses."""
    if result is None or isinstance(result, (bool, str, enum.Enum)):
        return []
    if isinstance(result, TestReport) and result.degenerate:
        # the degenerate report's threshold is NaN by definition (see TestReport)
        result = dataclasses.replace(result, threshold=0.0)
    if dataclasses.is_dataclass(result):
        result = tuple(getattr(result, field.name) for field in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return [bad for item in result for bad in _non_finite(item)]
    return [] if np.isfinite(np.asarray(result, dtype=float)).all() else [result]


def test_every_entry_point_is_covered():
    public = set()
    for module in (sequences, gsm, testproc, bounds):
        public |= set(module.__all__)
    assert public - RECORDS - NO_REAL_ARGUMENT == set(CASES)


def test_the_finite_check_looks_inside_records():
    assert _non_finite((1, [np.array([1.0, math.nan])], Signal([1.0]))) != []
    assert _non_finite(NoiseLevels(0.0, 1.0)) == []
    degenerate = TestReport(0, 0, 0.0, math.nan, False, True)
    assert _non_finite(degenerate) == []
    assert _non_finite(dataclasses.replace(degenerate, degenerate=False)) != []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_finite_or_refused(name, regime):
    reals, call = CASES[name]
    wrong = []
    for real in reals:
        for value in VALUES:
            try:
                result = call({**BASE, real: value}, regime)
            except (GsmGofError, ValueError):
                continue
            except Exception as error:  # noqa: BLE001 -- any other exception breaks the contract
                wrong.append(f"{real}={value!r}: {type(error).__name__}: {error}")
                continue
            if _non_finite(result):
                wrong.append(f"{real}={value!r}: returned {result!r}")
    assert not wrong, wrong
