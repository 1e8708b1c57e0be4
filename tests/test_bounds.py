"""Separation-radius bounds: pinned reports, brute-force scans, rate formulas."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsmgof import (
    DegenerateBoundError,
    InvalidLevelsError,
    RegimeSpec,
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

    def test_sigma_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            prior_depth(mild_ordinary, 0.0, 0.05, 0.05, j_max=100)


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
