"""Separation-radius bounds: pinned reports, brute-force scans, rate formulas."""

import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gsmgof import (
    KAPPA_DEFAULT,
    DegenerateBoundError,
    GsmGofError,
    InvalidLevelsError,
    RegimeSpec,
    SequenceOverflowError,
    a_inv_sq,
    a_value,
    adaptive_constant,
    b_value,
    bandwidth_bracket,
    critical_snr,
    cumulative_b_inv4_prefix,
    divergence_budget,
    evaluate_bounds,
    lower_bound_radius_sq,
    prior_depth,
    rate_formula,
    tail_exponent,
    upper_bound_radius_sq,
    window_mass,
)
from gsmgof import bounds, cli, sequences
from gsmgof.sequences import _b_inv4_terms, _sum_overflow_error

REGIMES = ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super")

# The bounds-grid benchmark workload (perfbench/run.py's WORKLOADS)
BOUNDS_GRID_ARGV = ["bounds", "--regime", "mild-ordinary,mild-super",
                    "--epsilon", "1e-1,3e-2,1e-2,3e-3,1e-3,3e-4,1e-4,3e-5",
                    "--sigma", "1e-2,3e-3,1e-3,3e-4,1e-4,3e-5,1e-5,1e-6",
                    "--jmax", "100000"]


def _outcome(fn):
    """repr of fn()'s result, or the type and message of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return f"{type(exc).__name__}: {exc}"


class TestCriticalSnr:
    def test_pinned_value(self):
        assert critical_snr(0.05, 0.05) == 0.8911932681803592

    def test_root_certificate(self):
        """The returned ratio puts the window mass on its target."""
        alpha = beta = 0.05
        u = critical_snr(alpha, beta)
        gap = 1.0 - alpha - beta
        target = 1.0 / math.sqrt(1.0 + 4.0 * gap * gap)
        assert abs(window_mass(u) - target) < 1e-9

    def test_decreasing_in_gap(self):
        # a wider error gap lowers the mass target, so a smaller ratio suffices
        assert critical_snr(0.01, 0.01) < critical_snr(0.1, 0.1)

    def test_invalid_levels(self):
        with pytest.raises(InvalidLevelsError):
            critical_snr(0.6, 0.5)

    def test_solved_once_per_pair_of_levels(self, monkeypatch):
        calls = collections.Counter()

        def counted(u):
            calls[u] += 1
            return window_mass(u)

        critical_snr.cache_clear()
        monkeypatch.setattr(bounds, "window_mass", counted)
        first = critical_snr(0.05, 0.05)
        solved = sum(calls.values())
        assert solved > 30
        assert critical_snr(0.05, 0.05) == first == 0.8911932681803592
        assert sum(calls.values()) == solved
        critical_snr(0.05, 0.5)
        assert sum(calls.values()) > solved

    def test_refuses_what_divergence_budget_refuses(self):
        """Pairs such as (0.7, 0.3) sum to 1 up to rounding: both functions
        refuse them, whichever way 1 - alpha - beta rounds."""
        for k in range(1, 100):
            alpha, beta = k / 100, (100 - k) / 100
            with pytest.raises(InvalidLevelsError):
                divergence_budget(alpha, beta)
            with pytest.raises(InvalidLevelsError):
                critical_snr(alpha, beta)


class TestPriorDepth:
    def test_pinned_value(self, severe_ordinary):
        assert prior_depth(severe_ordinary, 0.01, 0.05, 0.05, j_max=200) == 4

    def test_depth_certificate(self, severe_ordinary):
        sigma, alpha, beta = 0.01, 0.05, 0.05
        d = prior_depth(severe_ordinary, sigma, alpha, beta, j_max=200)
        level = sigma * max(critical_snr(alpha, beta), divergence_budget(alpha, beta) / 2.0)
        assert b_value(severe_ordinary, d) >= level
        assert b_value(severe_ordinary, d + 1) < level

    def test_capped_by_horizon(self, mild_ordinary):
        assert prior_depth(mild_ordinary, 1e-6, 0.05, 0.05, j_max=50) == 50

    def test_drowned_first_coordinate(self, severe_ordinary):
        # level = 0.5 * 0.891... exceeds b_1 = e^-1
        assert prior_depth(severe_ordinary, 0.5, 0.05, 0.05, j_max=200) == 0

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf])
    def test_sigma_validation(self, mild_ordinary, sigma):
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            prior_depth(mild_ordinary, sigma, 0.05, 0.05, j_max=100)

    def test_horizon_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            prior_depth(mild_ordinary, 0.01, 0.05, 0.05, j_max=0)

    @pytest.mark.parametrize("j_max", [1, 5, 200, 10_000])
    @pytest.mark.parametrize("s, t", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_matches_scalar_scan(self, regime, s, t, j_max):
        """The depth is max{d <= j_max : b_d >= level}, found by trying every
        d with the scalar b_value; sigma runs up to levels above b_1."""
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        b = [b_value(spec, d) for d in range(1, j_max + 1)]
        depths = set()
        for alpha, beta in [(0.05, 0.5), (0.05, 0.05), (0.3, 0.4)]:
            snr = max(critical_snr(alpha, beta), divergence_budget(alpha, beta) / 2.0)
            for sigma in np.geomspace(1e-9, 2.0, 25):
                level = sigma * snr
                expected = max((d for d in range(1, j_max + 1) if b[d - 1] >= level), default=0)
                depth = prior_depth(spec, sigma, alpha, beta, j_max)
                assert depth == expected, (alpha, beta, sigma)
                depths.add(depth)
        assert 0 in depths and len(depths) > 1


class TestUpperBound:
    def test_matches_exhaustive_scan(self, mild_ordinary):
        """Vectorized objective against a dimension-by-dimension recomputation."""
        eps, sigma, alpha, beta, j_max = 0.01, 1e-3, 0.05, 0.5, 10_000
        value, argmin_dim = upper_bound_radius_sq(mild_ordinary, eps, sigma, alpha,
                                                  beta, j_max)
        bracket = bandwidth_bracket(mild_ordinary, sigma, alpha, j_max=j_max)
        n = min(bracket.high, j_max)
        const = adaptive_constant(alpha, beta)
        weight = 7.0 + 4.0 * math.sqrt(tail_exponent(alpha))
        floor = sigma ** 2 * math.log(1.0 / sigma) ** 1.5
        brute = []
        for d in range(1, n + 1):
            tail = math.fsum(float(j) ** 4.0 for j in range(1, d + 1))
            dev = const * eps ** 2 * math.sqrt(tail)
            bias = weight * max(floor, a_inv_sq(mild_ordinary, min(d, bracket.low)))
            brute.append(dev + bias)
        brute = np.asarray(brute)
        assert_allclose(value, float(np.min(brute)), rtol=1e-12)
        assert argmin_dim == int(np.argmin(brute)) + 1
        assert np.all(brute[: argmin_dim - 1] > brute[argmin_dim - 1])

    def test_monotone_in_epsilon(self):
        spec = RegimeSpec.from_name("mild-ordinary", c_b=4.0)
        vals = [upper_bound_radius_sq(spec, 2.0 ** -k, 2.0 ** -8, 0.05, 0.5, 2000)[0]
                for k in range(4, 13)]
        assert np.all(np.diff(vals) < 0)  # epsilon shrinks along the grid

    def test_monotone_in_sigma(self):
        spec = RegimeSpec.from_name("mild-ordinary", c_b=4.0)
        vals = [upper_bound_radius_sq(spec, 2.0 ** -8, 2.0 ** -k, 0.05, 0.5, 2000)[0]
                for k in range(4, 13)]
        assert np.all(np.diff(vals) <= 0)

    def test_degenerate_when_first_coefficient_drowns(self, mild_ordinary):
        with pytest.raises(DegenerateBoundError):
            upper_bound_radius_sq(mild_ordinary, 0.01, 0.5, 0.05, 0.5, 1000)

    def test_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            upper_bound_radius_sq(mild_ordinary, 0.0, 0.01, 0.05, 0.5, 1000)
        with pytest.raises(ValueError):
            upper_bound_radius_sq(mild_ordinary, 0.01, 1.0, 0.05, 0.5, 1000)
        with pytest.raises(InvalidLevelsError):
            upper_bound_radius_sq(mild_ordinary, 0.01, 0.01, 0.5, 0.05, 1000)

    def test_objective_past_the_float_range_is_refused(self, mild_ordinary):
        """epsilon**2 is finite at 1e153, but the objective's minimum is not."""
        assert math.isfinite(evaluate_bounds(mild_ordinary, 1e150, 1e-2, 0.05, 0.1, 1000).upper_sq)
        message = r"the upper bound at epsilon=1e\+153 exceeds the float range"
        with pytest.raises(ValueError, match=message):
            evaluate_bounds(mild_ordinary, 1e153, 1e-2, 0.05, 0.1, 1000)
        with pytest.raises(ValueError, match=message):
            upper_bound_radius_sq(mild_ordinary, 1e153, 1e-2, 0.05, 0.1, 1000)

    def test_epsilon_rate_at_negligible_sigma(self, mild_ordinary):
        """With the operator noise floor pushed away, the bound scales like
        the polynomial benchmark exponent 8/9 in epsilon."""
        sigma = 1e-6
        grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
        vals = [upper_bound_radius_sq(mild_ordinary, e, sigma, 0.05, 0.5, 10_000)[0]
                for e in grid]
        slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
        assert abs(slope - 8.0 / 9.0) <= 0.15 * (8.0 / 9.0)


class TestLowerBound:
    def test_value_is_max_of_components(self, mild_ordinary):
        value, parts = lower_bound_radius_sq(mild_ordinary, 1e-3, 1e-3, 0.05, 0.5, 10_000)
        assert value == max(parts)
        assert parts[0] >= 0.0 and parts[1] >= 0.0

    def test_early_stop_matches_full_scan(self, mild_ordinary):
        """The epsilon-channel scan may stop at the crossing; a full pass over
        every dimension must land on the same supremum."""
        eps, alpha, beta, j_max = 1e-3, 0.05, 0.5, 10_000
        budget = divergence_budget(alpha, beta)
        _, (_, eps_part) = lower_bound_radius_sq(mild_ordinary, eps, 1e-3, alpha,
                                                 beta, j_max)
        scale = (2.0 * budget) ** 0.25 * eps ** 2
        prefix = cumulative_b_inv4_prefix(mild_ordinary, j_max)
        j = np.arange(1, j_max + 1)
        candidates = np.minimum(scale * np.sqrt(prefix), a_inv_sq(mild_ordinary, j))
        assert_allclose(eps_part, float(np.max(candidates)), rtol=1e-12)

    def test_sigma_channel_hardest_coordinate(self, severe_ordinary):
        sigma, alpha, beta = 0.01, 0.05, 0.05
        _, (sigma_part, _) = lower_bound_radius_sq(severe_ordinary, 1e-8, sigma,
                                                   alpha, beta, 200)
        depth = prior_depth(severe_ordinary, sigma, alpha, beta, 200)
        budget = divergence_budget(alpha, beta)
        hardest = max(
            b_value(severe_ordinary, d) ** -2.0 * a_value(severe_ordinary, d) ** -2.0
            for d in range(1, depth + 1)
        )
        assert_allclose(sigma_part, budget ** 2 / 16.0 * sigma ** 2 * hardest, rtol=1e-12)

    def test_zero_sigma_drops_its_channel(self, mild_ordinary):
        value, parts = lower_bound_radius_sq(mild_ordinary, 1e-3, 0.0, 0.05, 0.5, 10_000)
        assert parts[0] == 0.0
        assert value == parts[1] > 0.0

    def test_zero_epsilon_drops_its_channel(self, mild_ordinary):
        value, parts = lower_bound_radius_sq(mild_ordinary, 0.0, 1e-3, 0.05, 0.5, 10_000)
        assert parts[1] == 0.0
        assert value == parts[0] > 0.0

    def test_monotone_in_both_noise_levels(self):
        spec = RegimeSpec.from_name("mild-ordinary", c_b=4.0)
        eps_vals = [lower_bound_radius_sq(spec, 2.0 ** -k, 2.0 ** -8, 0.05, 0.5, 4000)[0]
                    for k in range(4, 13)]
        sig_vals = [lower_bound_radius_sq(spec, 2.0 ** -8, 2.0 ** -k, 0.05, 0.5, 4000)[0]
                    for k in range(4, 13)]
        assert np.all(np.diff(eps_vals) <= 0)
        assert np.all(np.diff(sig_vals) <= 0)

    def test_invalid_levels(self, mild_ordinary):
        with pytest.raises(InvalidLevelsError):
            lower_bound_radius_sq(mild_ordinary, 0.01, 0.01, 0.7, 0.5, 1000)

    @pytest.mark.parametrize("sigma", [0.01, 0.0])
    def test_epsilon_past_the_float_range(self, mild_ordinary, sigma):
        with pytest.raises(ValueError, match=r"epsilon=1e\+200 squared exceeds the float range"):
            lower_bound_radius_sq(mild_ordinary, 1e200, sigma, 0.05, 0.5, 100)

    @pytest.mark.parametrize("name,epsilon,sigma", [
        ("epsilon", -1.0, 0.01), ("sigma", 0.01, -0.5), ("epsilon", math.nan, 0.01),
        ("sigma", 0.01, math.nan), ("epsilon", math.inf, 0.01), ("sigma", 0.01, math.inf),
    ])
    def test_refuses_a_negative_or_non_finite_noise_level(self, mild_ordinary, name,
                                                          epsilon, sigma):
        with pytest.raises(ValueError, match=f"{name} must be a finite nonnegative number"):
            lower_bound_radius_sq(mild_ordinary, epsilon, sigma, 0.05, 0.5, 100)

    def test_levels_are_checked_before_the_noise(self, mild_ordinary):
        with pytest.raises(InvalidLevelsError):
            lower_bound_radius_sq(mild_ordinary, -1.0, math.nan, 0.7, 0.5, 100)


def _kahan_running_sums(spec, d):
    """The running sums of b_j**-4 as the lower bound read them before they
    were cached: one fresh Kahan pass, refused where the sum overflows."""
    total = carry = 0.0
    for j, term in enumerate(_b_inv4_terms(spec, d), start=1):
        y = term - carry
        tmp = total + y
        if tmp == math.inf:
            raise _sum_overflow_error(spec, j)
        carry = (tmp - total) - y
        total = tmp
        yield total


def _scalar_lower_bound(spec, epsilon, sigma, alpha, beta, j_max):
    """bounds._lower_bound as a scalar loop over the dimensions, without the
    cached tables: the oracle of the vectorised epsilon scan."""
    budget = divergence_budget(alpha, beta)
    depth = prior_depth(spec, sigma, alpha, beta, j_max) if sigma > 0.0 else 0
    if depth >= 1:
        j = np.arange(1, depth + 1)
        hardest = float(np.max(b_value(spec, j) ** -2.0 * a_inv_sq(spec, j)))
        sigma_part = (budget * budget / 16.0) * sigma * sigma * hardest
    else:
        sigma_part = 0.0
    epsilon_part = 0.0
    if epsilon > 0.0:
        scale = (2.0 * budget) ** 0.25 * epsilon ** 2
        for d, total in enumerate(_kahan_running_sums(spec, j_max), start=1):
            grow = scale * math.sqrt(total)
            decay = a_inv_sq(spec, d)
            epsilon_part = max(epsilon_part, min(grow, decay))
            if grow >= decay:
                break
    return max(sigma_part, epsilon_part), (sigma_part, epsilon_part), depth


def _overflow_index(spec, horizon=1000):
    """The first j <= horizon whose b_j**-4 exceeds the float range, or None."""
    n = 0
    try:
        for _ in _b_inv4_terms(spec, horizon):
            n += 1
    except SequenceOverflowError:
        return n + 1
    return None


def _epsilon_crossing_at(spec, budget, d):
    """About the epsilon at which the scan's two terms meet at dimension d
    (c_a = c_b = 1): (2*budget)^(1/4) eps^2 sqrt(sum_{j<=d} b_j^-4) = a_d^-2."""
    if spec.b_kind.value == "mild":
        log_sum = math.log(math.fsum(float(j) ** (4.0 * spec.t) for j in range(1, d + 1)))
    else:
        log_sum = 4.0 * d * spec.t - math.log1p(-math.exp(-4.0 * spec.t))
    if spec.a_kind.value == "ordinary":
        log_decay = -2.0 * spec.s * math.log(d)
    else:
        log_decay = -2.0 * spec.s * d
    return math.exp(0.5 * (log_decay - 0.25 * math.log(2.0 * budget) - 0.5 * log_sum))


@st.composite
def lower_bound_cases(draw):
    """Any regime and horizon up to 500; for severe decay, sometimes a t
    whose first overflowing term lies next to the horizon.  epsilon either
    anywhere in (1e-150, 1), or where the scan's crossing lands within 3 of
    the overflowing index (of the horizon under mild decay)."""
    regime = draw(st.sampled_from(REGIMES))
    j_max = draw(st.integers(1, 500))
    if regime.startswith("severe") and draw(st.booleans()):
        m = max(1, j_max + draw(st.integers(-2, 2)))
        t = math.log(sys.float_info.max) / (4.0 * (m - 0.5))  # b_m**-4 is the first to overflow
    else:
        t = draw(st.floats(0.3, 3.0))
    spec = RegimeSpec.from_name(regime, s=draw(st.floats(0.2, 3.0)), t=t)
    alpha = draw(st.floats(0.01, 0.3))
    beta = draw(st.floats(alpha, 0.6))
    sigma = draw(st.just(0.0) | st.floats(-9.0, -0.1).map(lambda e: 10.0 ** e))
    if draw(st.booleans()):
        edge = _overflow_index(spec) or j_max
        target = max(1, edge + draw(st.integers(-3, 3)))
        epsilon = _epsilon_crossing_at(spec, divergence_budget(alpha, beta), target)
        epsilon *= draw(st.floats(0.5, 2.0))
    else:
        epsilon = 10.0 ** draw(st.floats(-150.0, 0.0))
    return spec, epsilon, sigma, alpha, beta, j_max


@st.composite
def bound_cases(draw):
    """Anywhere in evaluate_bounds' domain, leaning on its edges: severe decay
    whose b_j**-4 first overflows next to the horizon, super growth whose
    a_j**-2 underflows inside it, constants far from 1, sigma near 0 and 1."""
    regime = draw(st.sampled_from(REGIMES))
    j_max = draw(st.integers(1, 2000))
    powers = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    t, s = draw(powers), draw(powers)
    if regime.startswith("severe") and draw(st.booleans()):
        m = max(1, j_max + draw(st.integers(-3, 3)))
        t = math.log(sys.float_info.max) / (4.0 * (m - 0.5))  # b_m**-4 is the first to overflow
    if regime.endswith("super") and draw(st.booleans()):
        s = draw(st.floats(400.0 / j_max, 800.0))  # exp(-2 s j) is 0 before j_max
    constants = st.just(1.0) | st.floats(-80.0, 80.0).map(lambda e: 10.0 ** e)
    spec = RegimeSpec.from_name(regime, s=s, t=t, c_b=draw(constants), c_a=draw(constants))
    alpha = draw(st.floats(1e-6, 0.45))
    beta = draw(st.floats(alpha, 0.999 - alpha))
    sigma = draw(st.floats(-323.0, -0.005).map(lambda e: 10.0 ** e)
                 | st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e))
    epsilon = 10.0 ** draw(st.floats(-160.0, 10.0))
    kappa = draw(st.just(KAPPA_DEFAULT) | st.floats(3.0, 1e6))
    return spec, epsilon, sigma, alpha, beta, j_max, kappa


class TestLowerBoundScan:
    """The lower bound reads cached tables and scans the epsilon channel a
    block at a time; every value, part and error must be the scalar loop's."""

    @settings(max_examples=300, deadline=None)
    @given(case=lower_bound_cases())
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_property_matches_scalar_loop(self, case):
        assert _outcome(lambda: bounds._lower_bound(*case)) == \
            _outcome(lambda: _scalar_lower_bound(*case))

    @pytest.mark.parametrize("epsilon, j_max", [
        (1e-30, 500), (1e-80, 177), (1e-80, 178), (1e-80, 500), (1e-300, 500)])
    def test_severe_overflow_edge(self, severe_ordinary, epsilon, j_max):
        """exp(4j) overflows at j = 178: the scan raises only when its
        crossing would come at or after that index and the horizon reaches it."""
        case = (severe_ordinary, epsilon, 1e-3, 0.05, 0.5, j_max)
        got = _outcome(lambda: bounds._lower_bound(*case))
        assert got == _outcome(lambda: _scalar_lower_bound(*case))
        raises = epsilon < 1e-70 and j_max >= 178
        assert got.startswith("SequenceOverflowError: b_178**(-4)") == raises

    def test_tables_are_shared_across_cells(self, mild_ordinary):
        """Horizons and depths of earlier cells do not change a later cell."""
        for j_max in (5, 300, 40, 1000, 1):
            for sigma in (0.0, 1e-2, 1e-5):
                for epsilon in (0.0, 0.3, 1e-4):
                    case = (mild_ordinary, epsilon, sigma, 0.05, 0.5, j_max)
                    assert repr(bounds._lower_bound(*case)) == repr(_scalar_lower_bound(*case))


class TestEvaluateBounds:
    def test_pinned_report(self, mild_ordinary):
        report = evaluate_bounds(mild_ordinary, 1e-3, 1e-3, 0.05, 0.5, 10_000)
        assert_allclose(report.upper_sq, 0.16657966764698234, rtol=1e-12)
        assert report.upper_argmin_dim == 13
        assert_allclose(report.lower_sq, 0.001531680054886808, rtol=1e-12)
        assert_allclose(report.lower_components[0], 2.200229658295178e-08, rtol=1e-12)
        assert_allclose(report.lower_components[1], 0.001531680054886808, rtol=1e-12)
        assert report.bracket_low == 15
        assert report.bracket_high == 18
        assert report.prior_depth == 609

    def test_bracket_and_depth_computed_once(self, mild_ordinary, monkeypatch):
        """Both bounds and the report share one bracket and one prior depth."""
        calls = collections.Counter()

        def counted(name):
            original = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("bandwidth_bracket", "prior_depth"):
            monkeypatch.setattr(bounds, name, counted(name))
        report = evaluate_bounds(mild_ordinary, 1e-3, 1e-3, 0.05, 0.5, 10_000)
        assert calls == {"bandwidth_bracket": 1, "prior_depth": 1}
        monkeypatch.undo()
        bracket = bandwidth_bracket(mild_ordinary, 1e-3, 0.05, j_max=10_000)
        assert (report.bracket_low, report.bracket_high) == (bracket.low, bracket.high)
        assert report.prior_depth == prior_depth(mild_ordinary, 1e-3, 0.05, 0.5, 10_000)
        assert (report.upper_sq, report.upper_argmin_dim) == upper_bound_radius_sq(
            mild_ordinary, 1e-3, 1e-3, 0.05, 0.5, 10_000)
        assert (report.lower_sq, report.lower_components) == lower_bound_radius_sq(
            mild_ordinary, 1e-3, 1e-3, 0.05, 0.5, 10_000)

    @pytest.mark.parametrize("args, error, message", [
        ((0.0, 2.0, 0.9, 0.5, 0), ValueError, "epsilon must be positive"),
        ((1e-3, 2.0, 0.9, 0.5, 0), ValueError, "sigma must lie in"),
        ((1e-3, 1e-3, 0.9, 0.5, 0), InvalidLevelsError, "the power guarantee needs"),
        ((1e-3, 1e-3, 0.05, 1.0, 0), ValueError, "j_max must be >= 1, got 0"),
        ((1e-3, 0.5, 0.05, 1.0, 100), DegenerateBoundError, "drowns the first"),
        ((1e-3, 1e-3, 0.05, 1.0, 100), ValueError, "level must lie in"),
        ((1e-3, 1e-3, 0.5, 0.5, 100), InvalidLevelsError, "need alpha, beta"),
    ])
    def test_first_fault_wins(self, mild_ordinary, args, error, message):
        """With several faults at once, the upper bound's checks come first,
        then the lower bound's, as when the report called both in turn."""
        with pytest.raises(error, match=message):
            evaluate_bounds(mild_ordinary, *args)

    @pytest.mark.parametrize("epsilon, message", [
        (math.nan, "epsilon must be positive and finite, got nan"),
        (math.inf, "epsilon must be positive and finite, got inf"),
        (np.float64(1e200), "squared exceeds the float range"),
    ], ids=["nan", "inf", "numpy-overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_epsilon_outside_the_float_range_is_refused(self, mild_ordinary, epsilon, message):
        """No NaN or inf bound comes back: a non-finite epsilon is refused,
        and a numpy float whose square overflows is refused like a Python one."""
        with pytest.raises(ValueError, match=message):
            evaluate_bounds(mild_ordinary, epsilon, 1e-3, 0.05, 0.5, 1000)
        with pytest.raises(ValueError, match=message):
            upper_bound_radius_sq(mild_ordinary, epsilon, 1e-3, 0.05, 0.5, 1000)

    def test_grid_sums_each_term_once(self, monkeypatch):
        """Over the bounds-grid cells, both regimes read the one mild decay's
        running sums, built once: no more terms than the longest prefix any
        cell asks for, where building them per cell took the sum over the
        cells."""
        terms = collections.Counter()
        longest = per_cell = 0
        requests = []
        original_terms = sequences._b_inv4_terms
        original_upto = sequences._RunningSums.upto

        def counted_terms(decay, d, start=1):
            for term in original_terms(decay, d, start):
                terms[decay] += 1
                yield term

        def recorded_upto(self, d):
            requests.append(d)
            return original_upto(self, d)

        monkeypatch.setattr(sequences, "_b_inv4_terms", counted_terms)
        monkeypatch.setattr(sequences._RunningSums, "upto", recorded_upto)
        sequences._running_sums.cache_clear()
        cfg = cli._resolve(cli._build_parser().parse_args(BOUNDS_GRID_ARGV))
        for cell in cli._cells(cfg):
            evaluate_bounds(cell.spec, cell.epsilon, cell.sigma, cfg["alpha"], cfg["beta"],
                            cell.j_max, kappa=cfg["kappa"])
            per_cell += max(requests)
            longest = max(longest, max(requests))
            requests.clear()
        assert sequences._running_sums.cache_info().misses == 1 and len(terms) == 1
        assert sum(terms.values()) <= longest
        assert 5 * sum(terms.values()) < per_cell

    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases())
    def test_finite_or_refused(self, case):
        """Anywhere in its domain evaluate_bounds returns finite values or
        raises a typed error: never NaN or inf, never a bare OverflowError,
        and no numpy warning (tier-1 makes RuntimeWarning an error)."""
        spec, epsilon, sigma, alpha, beta, j_max, kappa = case
        try:
            report = evaluate_bounds(spec, epsilon, sigma, alpha, beta, j_max, kappa=kappa)
        except (GsmGofError, ValueError):
            return
        values = (report.upper_sq, report.lower_sq, *report.lower_components)
        assert all(math.isfinite(value) for value in values), report

    def test_report_internally_consistent(self, severe_ordinary):
        report = evaluate_bounds(severe_ordinary, 1e-3, 1e-3, 0.05, 0.5, 200)
        assert report.upper_sq > 0.0
        assert report.lower_sq == max(report.lower_components)
        assert report.bracket_low < report.bracket_high
        assert 1 <= report.upper_argmin_dim <= report.bracket_high


class TestRateFormula:
    def test_polynomial_signal_exponent(self, mild_ordinary):
        eps = 0.01
        got = rate_formula(mild_ordinary, eps, 0.5, which="known")
        assert_allclose(got, eps ** (8.0 / 9.0), rtol=1e-14)

    def test_polynomial_general_exponent(self):
        spec = RegimeSpec.from_name("mild-ordinary", s=2.0, t=0.5)
        eps = 0.05
        expected = eps ** (4.0 * 2.0 / (2.0 * 2.0 + 2.0 * 0.5 + 0.5))
        assert_allclose(rate_formula(spec, eps, 0.5, "known"), expected, rtol=1e-14)

    def test_mild_super_signal_part(self, mild_super):
        eps = 0.01
        expected = eps ** 2 * math.log(1.0 / eps) ** 2.5
        assert_allclose(rate_formula(mild_super, eps, 0.5, "known"), expected, rtol=1e-14)

    def test_severe_ordinary_pinned(self, severe_ordinary):
        got = rate_formula(severe_ordinary, 0.1, 0.5, which="known")
        assert_allclose(got, math.log(10.0) ** -2.0, rtol=1e-14)
        assert_allclose(got, 0.1886116970116139, rtol=1e-13)

    @pytest.mark.parametrize("sigma, rate", [
        (math.exp(-0.5), 1.395309553548244),  # sigma * sqrt(ln(1/sigma)) at its maximum
        (1.0 - 2.0 ** -53, 0.003078948196753858),  # the largest sigma below 1
    ], ids=["peak", "below-one"])
    def test_severe_ordinary_upper_operator_part_is_finite(self, severe_ordinary, sigma, rate):
        """The operator part ln(1/(sigma sqrt(ln(1/sigma))))**(-2s) is finite on
        all of (0, 1): sigma * sqrt(ln(1/sigma)) peaks at (2e)**-0.5 < 1."""
        assert sigma * math.sqrt(math.log(1.0 / sigma)) < 0.43
        assert rate_formula(severe_ordinary, 1e-300, sigma, "upper") == rate

    def test_lower_takes_channel_maximum(self):
        spec = RegimeSpec.from_name("severe-super", s=1.0, t=2.0)
        got = rate_formula(spec, 1e-3, 0.3, which="lower")
        eps_part = (1e-3) ** (2.0 / 3.0)
        sigma_part = 0.3  # exponent 2*min(s/t, 1) = 1
        assert_allclose(got, max(eps_part, sigma_part), rtol=1e-14)
        assert got == pytest.approx(0.3)

    def test_upper_carries_log_damping(self, mild_ordinary):
        eps, sigma = 1e-4, 0.1
        got = rate_formula(mild_ordinary, eps, sigma, which="upper")
        sigma_part = (sigma * math.log(1.0 / sigma) ** 0.75) ** 2.0
        assert_allclose(got, max(eps ** (8.0 / 9.0), sigma_part), rtol=1e-14)

    def test_signal_part_ignores_sigma(self, mild_ordinary):
        a = rate_formula(mild_ordinary, 0.01, 0.1, "known")
        b = rate_formula(mild_ordinary, 0.01, 0.9, "known")
        assert a == b

    def test_domain_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            rate_formula(mild_ordinary, 1.5, 0.5, "known")
        with pytest.raises(ValueError):
            rate_formula(mild_ordinary, 0.5, 0.0, "known")
        with pytest.raises(ValueError):
            rate_formula(mild_ordinary, 0.5, 0.5, "sideways")

    @pytest.mark.parametrize("regime, s, t, epsilon, sigma, which", [
        ("mild-super", 1.0, 1000.0, 1e-2, 1e-2, "upper"),
        ("severe-ordinary", 1000.0, 1.0, 0.9, 0.9, "upper"),
        ("severe-ordinary", 1000.0, 1.0, 0.9, 0.5, "lower"),
    ])
    def test_a_rate_past_the_float_range_is_refused(self, regime, s, t, epsilon, sigma, which):
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        with pytest.raises(ValueError, match=f"the {which} rate of {regime} .* exceeds the "
                                             "float range"):
            rate_formula(spec, epsilon, sigma, which)

    def test_the_known_rate_ignores_the_operator_part(self):
        """The known-operator rate is the signal part alone, so an operator
        part past the float range does not refuse it."""
        spec = RegimeSpec.from_name("severe-ordinary", s=1000.0)
        assert rate_formula(spec, 0.01, 0.9, "known") == math.log(100.0) ** -2000.0
        with pytest.raises(ValueError, match="exceeds the float range"):
            rate_formula(spec, 0.01, 0.9, "lower")

    @settings(max_examples=300, deadline=None)
    @given(regime=st.sampled_from(REGIMES),
           s=st.floats(1e-3, 1e4), t=st.floats(1e-3, 1e4),
           epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           sigma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           which=st.sampled_from(bounds.WHICH))
    def test_a_rate_is_finite_or_refused(self, regime, s, t, epsilon, sigma, which):
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        try:
            rate = rate_formula(spec, epsilon, sigma, which)
        except ValueError:
            return
        assert math.isfinite(rate) and rate >= 0.0
