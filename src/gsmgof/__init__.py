"""Goodness-of-fit testing in Gaussian sequence models with noisy operator
coefficients: spectral cut-off test, separation-radius bounds, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    critical_snr,
    evaluate_bounds,
    lower_bound_radius_sq,
    prior_depth,
    rate_formula,
    upper_bound_radius_sq,
)
from .errors import (
    BracketingError,
    DegenerateBandwidthError,
    DegenerateBoundError,
    DegenerateObservationError,
    GsmGofError,
    InfeasibleConstructionError,
    InfeasibleRadiusError,
    InvalidLevelsError,
    SequenceOverflowError,
)
from .gsm import (
    GaussianStream,
    NoiseLevels,
    Observations,
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    Signal,
    default_j_max,
    divergence_budget,
    gaussian_draws,
    make_spike_alternative,
    make_two_point_pair,
    simulate,
    spike_index,
    two_point_shift_constant,
    window_mass,
)
from .montecarlo import (
    ErrorEstimate,
    ExperimentPlan,
    QuadformTails,
    RateFit,
    bandwidth_escape_bound,
    check_bandwidth_containment,
    check_quadform_concentration,
    empirical_separation_radius,
    estimate_alpha,
    estimate_beta,
    fit_rate_slope,
)
from .sequences import (
    DecayKind,
    GrowthKind,
    RegimeSpec,
    a_inv_sq,
    a_value,
    b_value,
    b_vector,
    cumulative_b_inv4,
    cumulative_b_inv4_prefix,
    ellipsoid_weighted_norm,
)
from .testproc import (
    KAPPA_DEFAULT,
    Bandwidth,
    BandwidthBracket,
    TestConfig,
    TestReport,
    ThresholdParts,
    adaptive_constant,
    bandwidth_bracket,
    bracket_envelope_high,
    bracket_envelope_low,
    dimension_objective,
    empirical_bandwidth,
    run_test,
    scan_envelope,
    select_dimension,
    statistic,
    tail_exponent,
    threshold,
    threshold_constant,
    threshold_parts,
)

__all__ = [
    "__version__",
    # errors
    "GsmGofError", "SequenceOverflowError", "DegenerateObservationError",
    "DegenerateBandwidthError", "DegenerateBoundError",
    "InfeasibleConstructionError", "InfeasibleRadiusError",
    "InvalidLevelsError", "BracketingError",
    # sequences
    "DecayKind", "GrowthKind", "RegimeSpec", "a_inv_sq", "a_value", "b_value",
    "b_vector", "cumulative_b_inv4", "cumulative_b_inv4_prefix",
    "ellipsoid_weighted_norm",
    # model
    "GaussianStream", "NoiseLevels", "Observations", "Signal", "default_j_max",
    "OPERATOR_STREAM", "QUADFORM_STREAM", "SIGNAL_STREAM",
    "divergence_budget", "gaussian_draws", "make_spike_alternative",
    "make_two_point_pair", "simulate", "spike_index",
    "two_point_shift_constant", "window_mass",
    # test procedure
    "KAPPA_DEFAULT", "Bandwidth", "BandwidthBracket", "TestConfig",
    "TestReport", "ThresholdParts", "adaptive_constant", "bandwidth_bracket",
    "bracket_envelope_high", "bracket_envelope_low", "dimension_objective",
    "empirical_bandwidth", "run_test", "scan_envelope", "select_dimension",
    "statistic", "tail_exponent", "threshold", "threshold_constant",
    "threshold_parts",
    # bounds
    "BoundReport", "critical_snr", "evaluate_bounds", "lower_bound_radius_sq",
    "prior_depth", "rate_formula", "upper_bound_radius_sq",
    # monte carlo
    "ErrorEstimate", "ExperimentPlan", "QuadformTails", "RateFit",
    "bandwidth_escape_bound", "check_bandwidth_containment",
    "check_quadform_concentration", "empirical_separation_radius",
    "estimate_alpha", "estimate_beta", "fit_rate_slope",
]
