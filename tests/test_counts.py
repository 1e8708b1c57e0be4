"""Every count argument of the public API (a horizon, a dimension, a
bandwidth, a length, a replication or worker count) is an integer: a value
that int() would truncate or cannot read is refused with a ValueError naming
the argument, and an integral float counts as the int it equals."""

import math
import pickle
import re

import numpy as np
import pytest

from gsmgof import (
    ErrorEstimate,
    ExperimentPlan,
    NoiseLevels,
    RegimeSpec,
    Signal,
    TestConfig,
    b_vector,
    bandwidth_bracket,
    check_quadform_concentration,
    cumulative_b_inv4,
    cumulative_b_inv4_prefix,
    dimension_objective,
    empirical_bandwidth,
    estimate_alpha,
    evaluate_bounds,
    lower_bound_radius_sq,
    make_spike_alternative,
    make_two_point_pair,
    prior_depth,
    select_dimension,
    simulate,
    spike_index,
    statistic,
    threshold,
    threshold_parts,
    two_point_shift_constant,
    upper_bound_radius_sq,
)

SPEC = RegimeSpec.from_name("mild-ordinary")
NOISE = NoiseLevels(1e-3, 1e-3)
X = np.linspace(1.0, 0.5, 200)
Y = np.linspace(0.5, 0.1, 200)
THETA0 = Signal.zeros()
LEVELS = (0.05, 0.5)
CONFIG = TestConfig(alpha=0.05, beta=0.5, j_max=50)


def _plan(**changes) -> ExperimentPlan:
    settings = dict(spec=SPEC, noise=NOISE, config=CONFIG, theta0=THETA0, n_reps=100,
                    master_seed=1)
    return ExperimentPlan(**{**settings, **changes})


# entry point: (the count's name, the entry point as a function of the count)
CASES = {
    "b_vector": ("n", lambda n: b_vector(SPEC, n)),
    "cumulative_b_inv4": ("d", lambda d: cumulative_b_inv4(SPEC, d)),
    "cumulative_b_inv4_prefix": ("d", lambda d: cumulative_b_inv4_prefix(SPEC, d)),
    "Signal.zeros": ("n", Signal.zeros),
    "Signal.padded": ("n", THETA0.padded),
    "simulate": ("j_max", lambda j_max: simulate(THETA0, SPEC, NOISE, 1, j_max)),
    "make_two_point_pair": ("d", lambda d: make_two_point_pair(SPEC, NoiseLevels(1e-3, 1e-6),
                                                               *LEVELS, d)),
    # the coordinate d is refused also where sigma = 0 leaves it unread
    "two_point_shift_constant": ("d", lambda d: two_point_shift_constant(SPEC, 1e-3, *LEVELS,
                                                                         d)),
    "two_point_shift_constant-zero-sigma": ("d", lambda d: two_point_shift_constant(
        SPEC, 0.0, *LEVELS, d)),
    "spike_index": ("j_max", lambda j_max: spike_index(SPEC, 0.01, j_max)),
    "make_spike_alternative": ("j_max",
                               lambda j_max: make_spike_alternative(SPEC, THETA0, 0.01, j_max)),
    "empirical_bandwidth": ("j_max", lambda j_max: empirical_bandwidth(X, 1e-3, 0.05,
                                                                       j_max=j_max)),
    "bandwidth_bracket": ("j_max", lambda j_max: bandwidth_bracket(SPEC, 1e-3, 0.05,
                                                                   j_max=j_max)),
    "statistic-d": ("d", lambda d: statistic(Y, X, THETA0, d, 150)),
    "statistic-m": ("m", lambda m: statistic(Y, X, THETA0, 150, m)),
    "threshold_parts-d": ("d", lambda d: threshold_parts(X, SPEC, d, 150, 1e-3, 1e-3, 0.05)),
    "threshold_parts-m": ("m", lambda m: threshold_parts(X, SPEC, 150, m, 1e-3, 1e-3, 0.05)),
    "threshold": ("d", lambda d: threshold(X, SPEC, d, 150, 1e-3, 1e-3, 0.05)),
    "dimension_objective": ("m", lambda m: dimension_objective(X, SPEC, m, 1e-3, 1e-3,
                                                               *LEVELS)),
    "select_dimension": ("m", lambda m: select_dimension(X, SPEC, m, 1e-3, 1e-3, *LEVELS)),
    "TestConfig-j_max": ("j_max", lambda j_max: TestConfig(*LEVELS, j_max=j_max)),
    "TestConfig-dimension": ("dimension",
                             lambda d: TestConfig(*LEVELS, j_max=200, dimension=d)),
    "ExperimentPlan": ("n_reps", lambda n_reps: _plan(n_reps=n_reps)),
    "ErrorEstimate.from_counts": ("n_reps", lambda n_reps: ErrorEstimate.from_counts(7, n_reps)),
    "check_quadform_concentration-d": ("d", lambda d: check_quadform_concentration(
        d, 0.1, 0.5, 2.0, 100)),
    "check_quadform_concentration-n_reps": ("n_reps", lambda n_reps: check_quadform_concentration(
        10, 0.1, 0.5, 2.0, n_reps)),
    "estimate_alpha": ("workers", lambda workers: estimate_alpha(_plan(), workers=workers)),
    "upper_bound_radius_sq": ("j_max", lambda j_max: upper_bound_radius_sq(
        SPEC, 1e-3, 1e-3, *LEVELS, j_max)),
    "lower_bound_radius_sq": ("j_max", lambda j_max: lower_bound_radius_sq(
        SPEC, 1e-3, 1e-3, *LEVELS, j_max)),
    "prior_depth": ("j_max", lambda j_max: prior_depth(SPEC, 1e-3, *LEVELS, j_max)),
    "evaluate_bounds": ("j_max", lambda j_max: evaluate_bounds(SPEC, 1e-3, 1e-3, *LEVELS,
                                                               j_max)),
}


@pytest.mark.parametrize("case", CASES)
def test_a_count_is_refused_where_int_would_truncate_it(case):
    name, call = CASES[case]
    for value in (2.5, math.nan, math.inf):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
    assert pickle.dumps(call(1e2)) == pickle.dumps(call(100))


@pytest.mark.parametrize("case, value, message", [
    ("estimate_alpha", 0, "workers must be >= 1, got 0"),
    ("Signal.zeros", -1, "n must be >= 0, got -1"),
    ("statistic-m", -1, "m must be >= 0, got -1"),
    ("evaluate_bounds", 0, "j_max must be >= 1, got 0"),
    ("ExperimentPlan", 99, "n_reps must be >= 100, got 99"),
])
def test_a_count_below_its_floor_is_refused_by_name(case, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CASES[case][1](value)
