"""Monte Carlo harness: error estimates, radius search, rate fits, concentration checks."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsmgof import montecarlo
from gsmgof import (
    KAPPA_DEFAULT,
    BracketingError,
    ErrorEstimate,
    ExperimentPlan,
    NoiseLevels,
    RegimeSpec,
    Signal,
    TestConfig,
    bandwidth_escape_bound,
    check_bandwidth_containment,
    check_quadform_concentration,
    empirical_separation_radius,
    estimate_alpha,
    estimate_beta,
    fit_rate_slope,
    make_spike_alternative,
    make_two_point_pair,
)
from gsmgof.montecarlo import (
    _accept_counts_from_cache,
    _build_radius_cache,
    _chunk_ranges,
)


def fix_threshold(monkeypatch, cutoff):
    """Make every in-process test run reject exactly when statistic > cutoff."""
    real = montecarlo.run_test

    def fixed(*args):
        report = real(*args)
        return dataclasses.replace(report, threshold=cutoff,
                                   reject=report.statistic > cutoff)

    monkeypatch.setattr(montecarlo, "run_test", fixed)


def fix_radius(monkeypatch, radius_fn):
    """Replace the separation-radius search by radius_fn(plan, epsilon)."""
    monkeypatch.setattr(montecarlo, "empirical_separation_radius",
                        lambda plan, *args: radius_fn(plan, plan.noise.epsilon))


def make_plan(spec=None, epsilon=1e-2, sigma=1e-2, alpha=0.05, beta=0.5,
              j_max=200, n_reps=100, seed=0, theta0=None, dimension=None):
    spec = spec or RegimeSpec.from_name("mild-ordinary")
    return ExperimentPlan(
        spec=spec,
        noise=NoiseLevels(epsilon, sigma),
        config=TestConfig(alpha=alpha, beta=beta, j_max=j_max, dimension=dimension),
        theta0=theta0 if theta0 is not None else Signal.zeros(0),
        n_reps=n_reps,
        master_seed=seed,
    )


class TestPlanAndEstimate:
    def test_plan_requires_minimum_replications(self):
        with pytest.raises(ValueError):
            make_plan(n_reps=99)
        assert make_plan(n_reps=100).n_reps == 100

    def test_plan_requires_nonnegative_seed(self):
        with pytest.raises(ValueError):
            make_plan(seed=-1)

    def test_from_counts(self):
        est = ErrorEstimate.from_counts(25, 100)
        assert est.p_hat == 0.25
        assert_allclose(est.se, math.sqrt(0.25 * 0.75 / 100), rtol=0)
        assert est.n_reps == 100
        assert est.n_degenerate == 0

    @pytest.mark.parametrize("count", [0, 1, 37, 99, 100])
    def test_se_never_exceeds_half_root_n(self, count):
        est = ErrorEstimate.from_counts(count, 100)
        assert est.se <= 0.5 / math.sqrt(100) + 1e-15

    def test_chunk_ranges_cover_exactly(self):
        for n, w in [(100, 1), (100, 4), (7, 3), (5, 8)]:
            ranges = _chunk_ranges(n, w)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(n))


class TestErrorEstimation:
    def test_null_rejection_rate_is_controlled(self):
        """Small-noise null: the rejection frequency stays at the level."""
        theta0, _ = make_two_point_pair(
            RegimeSpec.from_name("mild-ordinary"), NoiseLevels(1e-3, 1e-3),
            0.05, 0.5, d=5,
        )
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=500, seed=3, theta0=theta0)
        est = estimate_alpha(plan)
        assert est.p_hat <= 0.05 + 3.0 * est.se

    def test_override_plus_infinity_never_rejects(self, monkeypatch):
        plan = make_plan(n_reps=100, j_max=100)
        fix_threshold(monkeypatch, math.inf)
        est = estimate_alpha(plan, workers=1)
        assert est.p_hat == 0.0

    def test_override_zero_always_rejects(self, monkeypatch):
        # any amount of signal noise makes the statistic strictly positive
        plan = make_plan(n_reps=100, j_max=100)
        fix_threshold(monkeypatch, 0.0)
        est = estimate_alpha(plan, workers=1)
        assert est.p_hat == 1.0

    def test_alpha_beta_complement_on_same_draws(self):
        """beta against theta0 itself replays the identical replications, so
        the two frequencies are exact complements."""
        plan = make_plan(epsilon=0.05, sigma=0.05, n_reps=150, j_max=100, seed=5)
        a = estimate_alpha(plan)
        b = estimate_beta(plan, plan.theta0)
        assert a.p_hat + b.p_hat == 1.0
        assert a.n_degenerate == b.n_degenerate

    def test_worker_count_does_not_change_counts(self):
        plan = make_plan(epsilon=0.05, sigma=0.05, n_reps=200, j_max=100, seed=6)
        solo = estimate_alpha(plan, workers=1)
        pooled = estimate_alpha(plan, workers=4)
        assert solo == pooled

    def test_degenerate_replications_count_as_acceptance(self):
        # operator noise at the scale of b_1: every replication collapses
        plan = make_plan(epsilon=1e-3, sigma=0.9, n_reps=100, j_max=50)
        est = estimate_alpha(plan)
        assert est.n_degenerate == 100
        assert est.p_hat == 0.0


class TestRadiusCache:
    def test_replay_matches_direct_estimates(self):
        """The cached replay must reproduce estimate_beta bit for bit."""
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=100, j_max=200, seed=42)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        for r in (0.05, 0.3, 0.8595):
            n_accept, n_degen = _accept_counts_from_cache(
                cache, plan.spec, plan.noise, r, plan.config.j_max)
            theta = make_spike_alternative(plan.spec, plan.theta0, r, plan.config.j_max)
            direct = estimate_beta(plan, theta)
            assert n_accept / plan.n_reps == direct.p_hat
            assert n_degen == direct.n_degenerate

    def test_power_curve_monotone_under_common_randomness(self):
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=300, j_max=200, seed=13)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        radii = (0.05, 0.1, 0.15, 0.2, 0.3)
        betas = []
        for r in radii:
            n_accept, _ = _accept_counts_from_cache(
                cache, plan.spec, plan.noise, r, plan.config.j_max)
            betas.append(n_accept / plan.n_reps)
        assert betas[0] > 0.9  # spike falls outside the window: blind
        assert betas[-1] == 0.0  # far radius: always caught
        assert np.all(np.diff(betas) <= 0)


class TestSeparationRadius:
    def test_pinned_radius(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        r = empirical_separation_radius(plan, 0.5, 1e-3, 1.0, tol=0.05)
        assert_allclose(r, 0.859515625, rtol=0)

    def test_deterministic(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        a = empirical_separation_radius(plan, 0.5, 1e-3, 1.0, tol=0.05)
        b = empirical_separation_radius(plan, 0.5, 1e-3, 1.0, tol=0.05)
        assert a == b

    def test_found_radius_separates_power(self):
        """Nudging the returned radius by 25% either way flips the estimated
        second-kind error across the target."""
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=400, j_max=200, seed=11)
        target = 0.5
        r = empirical_separation_radius(plan, target, 0.01, 0.8, tol=0.05)
        assert_allclose(r, 0.14886718750000003, rtol=0)
        lo = estimate_beta(plan, make_spike_alternative(plan.spec, plan.theta0,
                                                        r / 1.25, plan.config.j_max))
        hi = estimate_beta(plan, make_spike_alternative(plan.spec, plan.theta0,
                                                        r * 1.25, plan.config.j_max))
        assert lo.p_hat >= target - 3.0 * lo.se
        assert hi.p_hat <= target + 3.0 * hi.se

    def test_single_radius_accepted_near_target(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        # 0.8595... is the bisection answer, so the target sits within noise
        assert empirical_separation_radius(plan, 0.5, 0.86, 0.86, tol=0.05) == 0.86

    def test_single_radius_rejected_far_from_target(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        with pytest.raises(BracketingError):
            empirical_separation_radius(plan, 0.5, 0.05, 0.05, tol=0.05)

    def test_bracket_not_straddling_low_side(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=100, j_max=200, seed=42)
        with pytest.raises(BracketingError, match="already below"):
            empirical_separation_radius(plan, 0.5, 0.95, 1.0, tol=0.05)

    def test_bracket_not_straddling_high_side(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=100, j_max=200, seed=42)
        with pytest.raises(BracketingError, match="still above"):
            empirical_separation_radius(plan, 0.5, 0.01, 0.05, tol=0.05)

    def test_validation(self):
        plan = make_plan(n_reps=100)
        with pytest.raises(ValueError):
            empirical_separation_radius(plan, 1.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            empirical_separation_radius(plan, 0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            empirical_separation_radius(plan, 0.5, 0.1, 1.0, tol=0.0)

    @pytest.mark.slow
    def test_deep_noise_radius(self):
        """Pinned search result at the smallest noise level exercised here."""
        plan = make_plan(epsilon=1e-6, sigma=1e-6, n_reps=1000, j_max=10_000, seed=7)
        r = empirical_separation_radius(plan, 0.5, 2.0 ** -14, 1.0, tol=0.05)
        assert_allclose(r, 0.006774492561817169, rtol=0)


class TestRateFit:
    def test_constant_radius_gives_zero_slope(self, monkeypatch):
        plan = make_plan(n_reps=100)
        fix_radius(monkeypatch, lambda p, e: 0.5)
        fit = fit_rate_slope(plan, [0.1, 0.05, 0.01], 0.5, workers=1)
        assert abs(fit.slope) < 1e-12
        assert fit.radii == (0.5, 0.5, 0.5)

    def test_square_root_radius_gives_unit_slope(self, monkeypatch):
        plan = make_plan(n_reps=100)
        fix_radius(monkeypatch, lambda p, e: math.sqrt(e))
        fit = fit_rate_slope(plan, [0.1, 0.01], 0.5, workers=1)
        assert_allclose(fit.slope, 1.0, rtol=1e-12)
        assert fit.epsilons == (0.1, 0.01)

    def test_radius_fn_sees_the_rescaled_plan(self, monkeypatch):
        plan = make_plan(epsilon=0.5, sigma=1e-3, n_reps=100)
        seen = []
        fix_radius(monkeypatch, lambda p, e: seen.append(p.noise.epsilon) or 1.0)
        fit_rate_slope(plan, [0.1, 0.01], 0.5, workers=1)
        assert seen == [0.1, 0.01]

    def test_needs_two_distinct_points(self, monkeypatch):
        plan = make_plan(n_reps=100)
        fix_radius(monkeypatch, lambda p, e: 1.0)
        with pytest.raises(ValueError):
            fit_rate_slope(plan, [0.1, 0.1], 0.5, workers=1)
        with pytest.raises(ValueError):
            fit_rate_slope(plan, [0.1, 1.5], 0.5, workers=1)


class TestBandwidthContainment:
    def test_escape_bound_formula(self):
        assert_allclose(bandwidth_escape_bound(0.05, KAPPA_DEFAULT),
                        0.0073719985361933305, rtol=1e-14)
        assert_allclose(bandwidth_escape_bound(0.05, 100.0),
                        0.005822467033424114, rtol=1e-14)

    def test_observed_escape_within_budget(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-3, n_reps=200, j_max=200, seed=0)
        est = check_bandwidth_containment(plan)
        bound = bandwidth_escape_bound(plan.config.alpha, plan.config.kappa)
        assert est.p_hat <= bound + 3.0 * est.se

    def test_truncated_bracket_counts_truncated_scans_as_contained(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-12, n_reps=100, j_max=1000, seed=1)
        est = check_bandwidth_containment(plan)
        assert est.p_hat == 0.0

    def test_worker_invariance(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-3, n_reps=120, j_max=200, seed=2)
        assert check_bandwidth_containment(plan, workers=1) == \
            check_bandwidth_containment(plan, workers=3)

    def test_requires_operator_noise(self):
        plan = make_plan(sigma=0.0, n_reps=100)
        with pytest.raises(ValueError):
            check_bandwidth_containment(plan)


class TestQuadformConcentration:
    def test_single_chi_square_tail(self):
        """d=1, centered, unit variance, x=1: the upper event is omega^2 > 5,
        whose exact probability is 0.025347..., well under exp(-1)."""
        tails = check_quadform_concentration(1, 0.0, 1.0, x=1.0, n_reps=20_000,
                                             master_seed=0)
        exact = 0.025347318677468325
        assert abs(tails.upper.p_hat - exact) <= 4.0 * tails.upper.se
        assert tails.upper.p_hat <= math.exp(-1.0)
        # the lower event omega^2 < -1 is impossible
        assert tails.lower.p_hat == 0.0

    def test_far_tail_is_empty(self):
        tails = check_quadform_concentration(5, 0.3, 0.8, x=50.0, n_reps=1000)
        assert tails.upper.p_hat == 0.0
        assert tails.lower.p_hat == 0.0

    def test_zero_variance_is_deterministic(self):
        tails = check_quadform_concentration(4, 1.0, 0.0, x=1.0, n_reps=1000)
        assert tails.upper.p_hat == 0.0
        assert tails.lower.p_hat == 0.0

    def test_scalar_broadcast_matches_vector(self):
        a = check_quadform_concentration(3, 0.1, 0.5, x=2.0, n_reps=500)
        b = check_quadform_concentration(3, np.full(3, 0.1), np.full(3, 0.5),
                                         x=2.0, n_reps=500)
        assert a == b

    def test_worker_invariance(self):
        a = check_quadform_concentration(2, 0.0, 1.0, x=1.0, n_reps=400, workers=1)
        b = check_quadform_concentration(2, 0.0, 1.0, x=1.0, n_reps=400, workers=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            check_quadform_concentration(0, 0.0, 1.0, x=1.0, n_reps=100)
        with pytest.raises(ValueError):
            check_quadform_concentration(1, 0.0, 1.0, x=0.0, n_reps=100)
        with pytest.raises(ValueError):
            check_quadform_concentration(1, np.zeros(2), 1.0, x=1.0, n_reps=100)
        with pytest.raises(ValueError):
            check_quadform_concentration(1, math.nan, 1.0, x=1.0, n_reps=100)
