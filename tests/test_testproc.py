"""Test procedure: envelopes, bandwidths, statistic, threshold, dimension choice."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gsmgof import (
    KAPPA_DEFAULT,
    DegenerateBandwidthError,
    DegenerateObservationError,
    ExperimentPlan,
    NoiseLevels,
    Observations,
    RegimeSpec,
    Signal,
    TestConfig,
    adaptive_constant,
    b_vector,
    bandwidth_bracket,
    bracket_envelope_high,
    bracket_envelope_low,
    dimension_objective,
    empirical_bandwidth,
    estimate_beta,
    make_spike_alternative,
    run_test,
    scan_envelope,
    select_dimension,
    simulate,
    statistic,
    tail_exponent,
    threshold,
    threshold_constant,
    threshold_parts,
)
from gsmgof import sequences
from gsmgof.testproc import _table
from test_acceptance import _oracle_bracket


class TestConstants:
    def test_kappa_default(self):
        assert_allclose(KAPPA_DEFAULT, 5.0 * (3.0 * math.pi ** 2 + 12.0) / 6.0, rtol=0)
        assert_allclose(KAPPA_DEFAULT, 34.6740110027234, rtol=1e-13)

    def test_tail_exponent(self):
        assert_allclose(tail_exponent(0.05), 3.6888794541139363, rtol=1e-15)
        assert_allclose(tail_exponent(0.05), math.log(40.0), rtol=0)

    def test_threshold_constant(self):
        assert_allclose(threshold_constant(0.05), 13.139695656147396, rtol=1e-14)

    def test_adaptive_constant(self):
        assert_allclose(adaptive_constant(0.05, 0.5), 266.7508115791011, rtol=1e-14)

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                tail_exponent(bad)


class TestEnvelopes:
    def test_pinned_values_at_first_index(self):
        assert_allclose(scan_envelope(1, 0.05), 44.17811392133571, rtol=1e-14)
        assert_allclose(bracket_envelope_low(1, 0.05), 49.29347225382299, rtol=1e-14)
        assert_allclose(bracket_envelope_high(1, 0.05), 40.92286665989825, rtol=1e-14)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("kappa", [KAPPA_DEFAULT, 5.0, 100.0])
    def test_strict_ordering(self, alpha, kappa):
        """Wide above scan above narrow, at every index."""
        j = np.arange(1, 200)
        low = bracket_envelope_low(j, alpha, kappa)
        mid = scan_envelope(j, alpha, kappa)
        high = bracket_envelope_high(j, alpha, kappa)
        assert np.all(low > mid)
        assert np.all(mid > high)

    def test_increasing_in_index(self):
        j = np.arange(1, 500)
        assert np.all(np.diff(scan_envelope(j, 0.05)) > 0)

    @pytest.mark.parametrize("envelope", [scan_envelope, bracket_envelope_low,
                                          bracket_envelope_high])
    @pytest.mark.parametrize("j, shown", [(math.nan, "nan"), (math.inf, "inf"), (0, "0"),
                                          (2.5, "2.5")], ids=["nan", "inf", "zero", "fraction"])
    def test_an_index_that_is_not_a_positive_integer_is_refused(self, envelope, j, shown):
        """The envelopes take their index by the sequences' rule, alone or in
        an array."""
        message = re.escape(f"sequence index must be a positive integer, got {shown}") + "$"
        with pytest.raises(ValueError, match=message):
            envelope(j, 0.05)
        with pytest.raises(ValueError, match=message):
            envelope(np.array([1.0, 2.0, j]), 0.05)

    def test_kappa_must_exceed_e(self):
        with pytest.raises(ValueError):
            scan_envelope(1, 0.05, kappa=2.0)

    @pytest.mark.parametrize("alpha, kappa, first", [
        (0.05, 1e306, 3), (1e-320, KAPPA_DEFAULT, 1), (3e-308, 3.0, 1)])
    def test_an_envelope_past_the_float_range_is_refused(self, alpha, kappa, first):
        """kappa * j**2 / alpha (or 10 / alpha) past the float range is
        refused by name, not used as inf, in the scan and the bracket."""
        message = re.escape(f"at kappa={kappa!r}, alpha={alpha!r}, from j={first}") + "$"
        with pytest.raises(ValueError, match=message):
            scan_envelope(np.arange(1, 10), alpha, kappa)
        with pytest.raises(ValueError, match=message):
            bandwidth_bracket(RegimeSpec.from_name("mild-ordinary"), 1e-4, alpha, kappa, 10)
        with pytest.raises(ValueError, match=message):
            empirical_bandwidth(np.ones(10), 1e-4, alpha, kappa)
        assert np.isfinite(scan_envelope(np.arange(1, first), alpha, kappa)).all()

    @pytest.mark.parametrize("alpha", [1e-320, 1e-309])
    def test_a_level_whose_tail_exponent_is_not_finite_is_refused(self, alpha):
        for fn in (tail_exponent, threshold_constant, lambda a: adaptive_constant(a, 0.5),
                   lambda b: adaptive_constant(0.05, b)):
            with pytest.raises(ValueError, match=f"level {alpha!r} is too small"):
                fn(alpha)
        assert math.isfinite(tail_exponent(1e-300))


class TestEmpiricalBandwidth:
    def test_immediate_trigger_gives_zero(self):
        x = np.full(10, 1e-9)
        band = empirical_bandwidth(x, sigma=0.1, alpha=0.05)
        assert band == (0, False)

    def test_truncated_when_nothing_triggers(self):
        x = np.full(50, 100.0)
        band = empirical_bandwidth(x, sigma=1e-12, alpha=0.05)
        assert band == (50, True)

    def test_first_trigger_minus_one(self):
        # coefficient 3 is the first to dip under sigma * envelope
        sigma = 0.01
        env = sigma * scan_envelope(np.arange(1, 6), 0.05)
        x = np.array([1.0, 1.0, 0.9 * env[2], 1.0, 0.0])
        band = empirical_bandwidth(x, sigma=sigma, alpha=0.05)
        assert band == (2, False)

    def test_sign_is_ignored(self):
        sigma = 0.01
        env = sigma * scan_envelope(np.arange(1, 4), 0.05)
        x = np.array([-1.0, -0.9 * env[1], -1.0])
        assert empirical_bandwidth(x, sigma=sigma, alpha=0.05).value == 1

    def test_matches_naive_scan(self):
        """Vectorized scan against an index-by-index loop on random inputs."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 120))
            x = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
            sigma = float(10.0 ** rng.uniform(-4, -0.5))
            alpha = float(rng.uniform(0.01, 0.3))
            got = empirical_bandwidth(x, sigma, alpha)
            expected = None
            for j in range(1, n + 1):
                if abs(x[j - 1]) <= sigma * scan_envelope(j, alpha):
                    expected = (j - 1, False)
                    break
            if expected is None:
                expected = (n, True)
            assert got == expected

    def test_horizon_cap(self):
        x = np.full(100, 100.0)
        band = empirical_bandwidth(x, sigma=1e-12, alpha=0.05, j_max=30)
        assert band == (30, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_bandwidth(np.ones(3), sigma=0.0, alpha=0.05)
        with pytest.raises(ValueError):
            empirical_bandwidth(np.ones(0), sigma=0.1, alpha=0.05)

    @pytest.mark.parametrize("x, j_max, message", [
        ([math.nan, 1.0, 1e-9], None, "coefficient 1 is nan"),
        ([1.0, -math.inf, 1e-9], None, "coefficient 2 is -inf"),
        ([1.0, 1.0, math.inf], 3, "coefficient 3 is inf"),
    ])
    def test_a_non_finite_x_within_the_horizon_is_refused(self, x, j_max, message):
        with pytest.raises(ValueError, match=message):
            empirical_bandwidth(x, 1e-3, 0.05, j_max=j_max)
        assert empirical_bandwidth([1.0, 1e-9, math.nan], 1e-3, 0.05, j_max=2) == (1, False)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_refused(self, sigma):
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            empirical_bandwidth(np.ones(3), sigma, alpha=0.05)


class TestBandwidthBracket:
    def test_pinned_bracket(self, mild_ordinary):
        bracket = bandwidth_bracket(mild_ordinary, sigma=1e-3, alpha=0.05)
        assert bracket == (15, 18, False, False)

    def test_bracket_certificates(self, mild_ordinary):
        """low and high sit exactly at their envelope crossings."""
        sigma, alpha = 1e-3, 0.05
        b = b_vector(mild_ordinary, 20)
        # wide envelope first triggers at index low + 1
        assert b[15] <= sigma * bracket_envelope_low(16, alpha)
        assert b[14] > sigma * bracket_envelope_low(15, alpha)
        # narrow envelope first triggers at index high itself
        assert b[17] <= sigma * bracket_envelope_high(18, alpha)
        assert b[16] > sigma * bracket_envelope_high(17, alpha)

    @pytest.mark.parametrize("sigma", [10.0 ** -k for k in range(1, 7)])
    def test_low_below_high(self, mild_ordinary, sigma):
        bracket = bandwidth_bracket(mild_ordinary, sigma, 0.05, j_max=10_000)
        if not (bracket.low_truncated and bracket.high_truncated):
            assert bracket.low < bracket.high

    def test_huge_sigma_gives_zero_low(self, mild_ordinary):
        # sigma * wide envelope exceeds b_1 already at the first index
        bracket = bandwidth_bracket(mild_ordinary, sigma=0.5, alpha=0.05)
        assert bracket.low == 0

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf])
    def test_sigma_validation(self, mild_ordinary, sigma):
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            bandwidth_bracket(mild_ordinary, sigma, 0.05, j_max=100)

    def test_tiny_sigma_truncates(self, mild_ordinary):
        bracket = bandwidth_bracket(mild_ordinary, sigma=1e-12, alpha=0.05, j_max=1000)
        assert bracket == (1000, 1000, True, True)

    @pytest.mark.parametrize("sigma, j_max, expected", [
        (1e-3, 17, (15, 17, False, True)),  # the narrow envelope's hit lies past the horizon
        (1e-3, 16, (15, 16, False, True)),
        (1e-3, 15, (15, 15, True, True)),  # the wide one's too
        (1e-3, 18, (15, 18, False, False)),
        (0.5, 1, (0, 1, False, False)),
        (1e-3, 1, (1, 1, True, True)),
    ])
    def test_ends_at_and_past_the_horizon(self, mild_ordinary, sigma, j_max, expected):
        bracket = bandwidth_bracket(mild_ordinary, sigma, 0.05, j_max=j_max)
        assert bracket == expected
        assert bracket[:2] == _oracle_bracket(mild_ordinary, sigma, 0.05, KAPPA_DEFAULT, j_max)

    def test_one_table_serves_every_spec_and_sigma(self):
        """Each envelope's table is built once per (alpha, kappa, j_max), in
        the one cache of envelope tables, and read by every spec and sigma;
        each bracket is the oracle scan's."""
        _table.cache_clear()
        for name in ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super"):
            spec = RegimeSpec.from_name(name, s=0.8, t=0.6)
            for sigma in (0.9, 1e-2, 1e-4, 1e-8, 1e-30):
                bracket = bandwidth_bracket(spec, sigma, 0.07, kappa=40.0, j_max=300)
                assert bracket[:2] == _oracle_bracket(spec, sigma, 0.07, 40.0, 300)
                assert bracket.low_truncated == (bracket.low == 300)
                assert not bracket.high_truncated or bracket.high == 300
        info = _table.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        for envelope in (bracket_envelope_low, bracket_envelope_high):
            table = _table(envelope, 0.07, 40.0, 300)
            assert not table.flags.writeable
            assert table.tobytes() == envelope(np.arange(1, 301), 0.07, 40.0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(regime=st.sampled_from(("mild-ordinary", "mild-super", "severe-ordinary",
                                   "severe-super")),
           s=st.floats(0.05, 20.0), t=st.floats(0.05, 20.0),
           sigma=st.floats(-9.0, math.log10(0.99)).map(lambda e: 10.0 ** e),
           alpha=st.sampled_from((0.01, 0.05, 0.2)),
           j_max=st.sampled_from((1, 63, 64, 65, 191, 192, 193, 100_000))
           | st.integers(1, 100_000))
    @example("mild-ordinary", 1.0, 0.05, 1e-9, 0.05, 100_000)  # neither envelope triggers
    @example("mild-super", 1.0, 1.0, 1e-3, 0.05, 16)  # only the narrow one's trigger is past it
    def test_block_scan_equals_the_full_horizon_scan(self, regime, s, t, sigma, alpha, j_max):
        """Scanning blocks of 64, 128, ... and stopping at the first trigger
        gives the bracket that compares every coordinate up to j_max."""
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        b = b_vector(spec, j_max)
        low_table = _table(bracket_envelope_low, alpha, KAPPA_DEFAULT, j_max)
        high_table = _table(bracket_envelope_high, alpha, KAPPA_DEFAULT, j_max)
        low, high = (int(hits[0]) if hits.size else None
                     for hits in (np.flatnonzero(b <= sigma * low_table),
                                  np.flatnonzero(b <= sigma * high_table)))
        full = (j_max if low is None else low, j_max if high is None else high + 1,
                low is None, high is None)
        assert bandwidth_bracket(spec, sigma, alpha, j_max=j_max) == full
        sequences._b_vector_cached.cache_clear()  # keeps at most one horizon-long b alive


class TestStatistic:
    def test_exact_null_is_zero(self, mild_ordinary):
        theta0 = Signal(np.array([0.3, -0.2, 0.1]))
        obs = simulate(theta0, mild_ordinary, NoiseLevels(0.0, 0.0), seed=0, j_max=5)
        assert statistic(obs.y, obs.x, theta0, d=5, m=5) == 0.0

    def test_empty_window_is_zero(self):
        assert statistic(np.array([1.0]), np.array([1.0]), Signal.zeros(0), d=3, m=0) == 0.0

    def test_hand_computed_value(self):
        # (1/1 - 0)^2 + (1/2 - 0)^2 = 1.25
        y = np.array([1.0, 1.0])
        x = np.array([1.0, 2.0])
        assert statistic(y, x, Signal.zeros(0), d=2, m=2) == 1.25

    def test_reference_signal_is_subtracted(self):
        y = np.array([1.0, 1.0])
        x = np.array([1.0, 2.0])
        theta0 = Signal(np.array([1.0, 0.5]))
        assert statistic(y, x, theta0, d=2, m=2) == 0.0

    def test_window_is_min_of_d_and_m(self):
        y = np.array([1.0, 1.0, 1.0])
        x = np.array([1.0, 1.0, 1e-12])
        assert statistic(y, x, Signal.zeros(0), d=2, m=3) == 2.0
        assert statistic(y, x, Signal.zeros(0), d=3, m=2) == 2.0

    def test_monotone_in_dimension(self, mild_ordinary):
        obs = simulate(Signal.zeros(0), mild_ordinary, NoiseLevels(0.3, 0.01), seed=4,
                       j_max=40)
        values = [statistic(obs.y, obs.x, Signal.zeros(0), d=d, m=40) for d in range(1, 41)]
        assert np.all(np.diff(values) >= 0)

    def test_zero_coefficient_refused(self):
        y = np.array([1.0, 1.0])
        x = np.array([1.0, 0.0])
        with pytest.raises(DegenerateObservationError):
            statistic(y, x, Signal.zeros(0), d=2, m=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            statistic(np.ones(2), np.ones(2), Signal.zeros(0), d=0, m=2)
        with pytest.raises(ValueError):
            statistic(np.ones(2), np.ones(2), Signal.zeros(0), d=2, m=-1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_term_refused(self):
        y = np.array([1.0, 1e200])
        x = np.array([1.0, 1e-200])
        with pytest.raises(ValueError, match="first 2 coefficients is not finite"):
            statistic(y, x, Signal.zeros(0), d=2, m=2)

    def test_overflowing_sum_refused(self):
        # each term 1.69e308 is finite; their sum is not
        y = np.full(2, 1.3e154)
        with pytest.raises(ValueError, match="first 2 coefficients is not finite"):
            statistic(y, np.ones(2), Signal.zeros(0), d=2, m=2)


class TestThreshold:
    def test_pinned_example(self, mild_ordinary):
        x = np.array([1.0, 1.0])
        parts = threshold_parts(x, mild_ordinary, d=2, m=2, epsilon=0.1, sigma=0.01,
                                alpha=0.05)
        assert_allclose(parts.centering, 0.02, rtol=1e-15)
        assert_allclose(parts.deviation, 0.18582335802378494, rtol=1e-13)
        # the weight floor a_2^-2 = 0.25 dominates sigma^2 ln^1.5(1/sigma)
        assert_allclose(parts.bias, 0.7301613956599604, rtol=1e-13)
        value = threshold(x, mild_ordinary, d=2, m=2, epsilon=0.1, sigma=0.01, alpha=0.05)
        assert_allclose(value, 0.9359847536837453, rtol=1e-13)
        assert_allclose(value, sum(parts), rtol=1e-15)

    def test_noise_floor_can_dominate(self, mild_ordinary):
        """Deep windows switch the bias from the weight tail to the noise floor."""
        sigma = 0.1
        w = 50  # a_50^-2 = 4e-4 is far below sigma^2 ln^1.5(1/sigma)
        parts = threshold_parts(np.ones(w), mild_ordinary, d=w, m=w, epsilon=0.0,
                                sigma=sigma, alpha=0.05)
        floor = sigma ** 2 * math.log(1.0 / sigma) ** 1.5
        assert_allclose(parts.bias, (1.0 + math.sqrt(tail_exponent(0.05))) * floor,
                        rtol=1e-14)

    def test_strictly_decreasing_in_alpha(self, mild_ordinary):
        x = np.array([1.0, 0.7, 0.4])
        alphas = np.linspace(0.01, 0.5, 25)
        vals = [threshold(x, mild_ordinary, 3, 3, 0.1, 0.05, float(a)) for a in alphas]
        assert np.all(np.diff(vals) < 0)

    def test_rejections_nested_across_levels(self, mild_ordinary):
        """Once a level rejects, every larger level rejects the same data."""
        rng = np.random.default_rng(23)
        obs = simulate(Signal.zeros(0), mild_ordinary, NoiseLevels(0.5, 0.01),
                       seed=6, j_max=20)
        theta0 = Signal.zeros(0)
        for _ in range(20):
            d = int(rng.integers(1, 20))
            flags = []
            for alpha in np.linspace(0.01, 0.6, 30):
                value = statistic(obs.y, obs.x, theta0, d, 20)
                cut = threshold(obs.x, mild_ordinary, d, 20, 0.5, 0.01, float(alpha))
                flags.append(value > cut)
            assert np.all(np.diff(np.asarray(flags, dtype=int)) >= 0)

    @pytest.mark.parametrize("x", [1e-77, 1e-80], ids=["sum", "term"])
    def test_inverse_powers_past_the_float_range_refuse_the_threshold(self, mild_ordinary, x):
        """Each x**-4 of 1e-77 is finite (1e308) but their sum is not; that of
        1e-80 overflows on its own.  Either way the threshold is refused as
        not finite, with no OverflowError or numpy warning."""
        with pytest.raises(ValueError, match="the threshold is not finite"):
            threshold_parts(np.full(10, x), mild_ordinary, d=10, m=10, epsilon=0.01,
                            sigma=0.5, alpha=0.05)

    def test_empty_window_refused(self, mild_ordinary):
        for d, m in ((2, 0), (0, 2)):
            with pytest.raises(DegenerateBandwidthError):
                threshold(np.ones(2), mild_ordinary, d=d, m=m, epsilon=0.1, sigma=0.01,
                          alpha=0.05)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5, -0.1])
    def test_sigma_domain(self, mild_ordinary, sigma):
        with pytest.raises(ValueError):
            threshold(np.ones(2), mild_ordinary, d=2, m=2, epsilon=0.1, sigma=sigma,
                      alpha=0.05)

    def test_negative_epsilon_refused(self, mild_ordinary):
        with pytest.raises(ValueError):
            threshold(np.ones(2), mild_ordinary, d=2, m=2, epsilon=-0.1, sigma=0.01,
                      alpha=0.05)


class TestDimensionSelection:
    def test_bandwidth_one_forces_one(self, mild_ordinary):
        d = select_dimension(np.array([1.0]), mild_ordinary, m=1, epsilon=0.01,
                             sigma=0.01, alpha=0.05, beta=0.5)
        assert d == 1

    def test_matches_brute_force(self, mild_ordinary):
        """Library scan against a per-dimension recomputation from scratch."""
        m = 1000
        x = b_vector(mild_ordinary, m)
        eps, sigma, alpha, beta = 0.01, 1e-3, 0.05, 0.5
        obj = dimension_objective(x, mild_ordinary, m, eps, sigma, alpha, beta)
        assert obj.shape == (m,)
        const = adaptive_constant(alpha, beta)
        weight = 7.0 + 4.0 * math.sqrt(tail_exponent(alpha))
        floor = sigma ** 2 * math.log(1.0 / sigma) ** 1.5
        brute = np.empty(m)
        for d in range(1, m + 1):
            dev = const * eps ** 2 * math.sqrt(math.fsum((x[:d] ** -4.0).tolist()))
            bias = weight * max(floor, float(d) ** -2.0)
            brute[d - 1] = dev + bias
        assert_allclose(obj, brute, rtol=1e-12)
        chosen = select_dimension(x, mild_ordinary, m, eps, sigma, alpha, beta)
        best = float(np.min(brute))
        assert brute[chosen - 1] == best
        assert np.all(brute[: chosen - 1] > best)  # smallest minimizer

    def test_flat_tail_breaks_ties_small(self, mild_ordinary):
        """With epsilon = 0 the objective flattens once the weight tail dips
        under the noise floor; the scan must take the first flat index."""
        sigma = 0.1
        floor = sigma ** 2 * math.log(1.0 / sigma) ** 1.5
        expected = math.ceil(floor ** -0.5)  # first d with d^-2 <= floor
        d = select_dimension(np.ones(50), mild_ordinary, m=50, epsilon=0.0,
                             sigma=sigma, alpha=0.05, beta=0.5)
        assert d == expected

    def test_scan_never_looks_past_bandwidth(self, mild_ordinary):
        """Zeros past m would be refused if the scan read them."""
        x = b_vector(mild_ordinary, 100).copy()
        x[40:] = 0.0
        args = (mild_ordinary, 40, 0.01, 1e-3, 0.05, 0.5)
        assert_array_equal(dimension_objective(x, *args), dimension_objective(x[:40], *args))
        assert select_dimension(x, *args) == select_dimension(x[:40], *args)

    def test_zero_bandwidth_refused(self, mild_ordinary):
        with pytest.raises(DegenerateBandwidthError):
            select_dimension(np.ones(3), mild_ordinary, m=0, epsilon=0.01, sigma=0.01,
                             alpha=0.05, beta=0.5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -0.01])
    def test_an_epsilon_outside_its_domain_is_refused(self, mild_ordinary, epsilon):
        """A NaN epsilon made the objective all NaN and an infinite one all
        inf, so select_dimension chose d = 1; a negative one acted as its
        absolute value."""
        message = re.escape(f"epsilon must be a finite nonnegative number, got {epsilon!r}")
        for select in (dimension_objective, select_dimension):
            with pytest.raises(ValueError, match=message):
                select(np.ones(3), mild_ordinary, 3, epsilon, 0.01, 0.05, 0.5)

    @pytest.mark.parametrize("x, sigma, value", [([1e-80, 1.0], 0.01, "inf"),
                                                 ([1.0, 1.0], 1e-310, "nan")])
    def test_an_objective_that_is_not_finite_is_refused(self, mild_ordinary, x, sigma, value):
        """x_1**-4 past the float range makes every entry inf, and a subnormal
        sigma's bias floor every entry NaN.  dimension_objective refuses
        them; select_dimension reads them as the Monte Carlo kernel does."""
        args = (mild_ordinary, 2, 0.01, sigma, 0.05, 0.5)
        with pytest.raises(ValueError, match=f"the dimension objective is {value} from d=1"):
            dimension_objective(x, *args)
        assert select_dimension(x, *args) == 1

    @pytest.mark.parametrize("bad, message", [(math.nan, "is nan"), (math.inf, "is inf"),
                                              (-math.inf, "is -inf")])
    def test_a_non_finite_x_within_the_window_is_refused(self, mild_ordinary, bad, message):
        """In the objective, the statistic and the threshold alike; one past
        the window is not read."""
        args = (mild_ordinary, 3, 0.01, 0.01, 0.05, 0.5)
        with pytest.raises(ValueError, match=f"coefficient 1 {message}"):
            select_dimension([bad, 1.0, 1.0], *args)
        with pytest.raises(ValueError, match=f"coefficient 2 {message}"):
            statistic(np.ones(3), [1.0, bad, 1.0], Signal.zeros(0), 3, 3)
        with pytest.raises(ValueError, match=f"coefficient 3 {message}"):
            threshold_parts([1.0, 1.0, bad], mild_ordinary, 3, 3, 0.01, 0.01, 0.05)
        assert select_dimension([1.0, 1.0, 1.0, bad], *args) == \
            select_dimension([1.0, 1.0, 1.0], *args)


class TestTestConfig:
    def test_adaptive_requires_alpha_at_most_beta(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=0.5, beta=0.05, j_max=100)
        cfg = TestConfig(alpha=0.5, beta=0.05, j_max=100, dimension=3)
        assert cfg.dimension == 3  # fixed dimension lifts the restriction

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=0.05, beta=0.5, j_max=100, kappa=1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=0.05, beta=0.5, j_max=100, dimension=0)

    def test_j_max_validation(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=0.05, beta=0.5, j_max=0)

    @pytest.mark.parametrize("field, value", [("j_max", 150.9), ("dimension", 2.7),
                                              ("j_max", math.nan), ("dimension", math.inf)])
    def test_refuses_what_int_would_truncate(self, field, value):
        settings = {"alpha": 0.05, "beta": 0.5, "j_max": 150, field: value}
        with pytest.raises(ValueError) as info:
            TestConfig(**settings)
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_integral_floats_are_integers(self):
        config = TestConfig(alpha=0.05, beta=0.5, j_max=1e4, dimension=3.0)
        assert (config.j_max, config.dimension) == (10_000, 3)
        assert type(config.j_max) is int and type(config.dimension) is int


class TestRunTest:
    def test_null_accepted_at_tiny_noise(self, mild_ordinary):
        theta0 = Signal(np.array([0.5, 0.25]))
        noise = NoiseLevels(1e-3, 1e-3)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=200)
        obs = simulate(theta0, mild_ordinary, noise, seed=7, j_max=200)
        report = run_test(obs, theta0, mild_ordinary, noise, config)
        assert not report.reject
        assert not report.degenerate
        assert report.window == min(report.bandwidth, report.window)
        assert report.statistic <= report.threshold

    def test_spike_rejected(self, mild_ordinary):
        theta0 = Signal.zeros(0)
        noise = NoiseLevels(1e-3, 1e-3)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=200)
        theta = Signal(np.array([1.0]))  # unit bump on the first coordinate
        obs = simulate(theta, mild_ordinary, noise, seed=8, j_max=200)
        report = run_test(obs, theta0, mild_ordinary, noise, config)
        assert report.reject

    def test_degenerate_bandwidth_accepts(self, mild_ordinary):
        """Operator noise at the scale of b_1 drowns every coefficient."""
        theta0 = Signal.zeros(0)
        noise = NoiseLevels(1e-3, 0.9)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=50)
        obs = simulate(theta0, mild_ordinary, noise, seed=9, j_max=50)
        report = run_test(obs, theta0, mild_ordinary, noise, config)
        assert report.degenerate
        assert report.bandwidth == 0
        assert report.window == 0
        assert not report.reject
        assert report.statistic == 0.0
        assert math.isnan(report.threshold)

    def test_fixed_dimension_honoured(self, mild_ordinary):
        theta0 = Signal.zeros(0)
        noise = NoiseLevels(1e-3, 1e-3)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=100, dimension=2)
        obs = simulate(theta0, mild_ordinary, noise, seed=10, j_max=100)
        report = run_test(obs, theta0, mild_ordinary, noise, config)
        assert report.window == min(2, report.bandwidth)
        expected = statistic(obs.y, obs.x, theta0, 2, report.bandwidth)
        assert report.statistic == expected

    @pytest.mark.parametrize("c_b", [1.0, 1e4])
    def test_sigma_outside_the_unit_interval_is_refused_whatever_the_data(self, c_b):
        """At c_b = 1, sigma = 2 drowns b_1, and the scan alone gave the
        degenerate accepting report; at c_b = 1e4 the threshold refused it.
        Both are refused before the scan."""
        spec = RegimeSpec.from_name("mild-ordinary", c_b=c_b)
        noise = NoiseLevels(1e-3, 2.0)
        obs = simulate(Signal.zeros(0), spec, noise, seed=13, j_max=50)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=50)
        with pytest.raises(ValueError, match=re.escape("sigma must lie in (0, 1), got 2.0")):
            run_test(obs, Signal.zeros(0), spec, noise, config)

    def test_short_observations_refused(self, mild_ordinary):
        theta0 = Signal.zeros(0)
        noise = NoiseLevels(1e-3, 1e-3)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=100)
        obs = simulate(theta0, mild_ordinary, noise, seed=11, j_max=50)
        with pytest.raises(ValueError):
            run_test(obs, theta0, mild_ordinary, noise, config)

    def test_deterministic_given_seed(self, mild_ordinary):
        theta0 = Signal.zeros(0)
        noise = NoiseLevels(0.01, 0.01)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=100)
        reports = [
            run_test(simulate(theta0, mild_ordinary, noise, seed=12, j_max=100, rep=3),
                     theta0, mild_ordinary, noise, config)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


class TestOverflow:
    """Coefficients near the floating-point range make the test's sums
    overflow.  They are refused with a ValueError on the reference path
    (simulate + run_test) and in the Monte Carlo harness, whose plan refuses
    an epsilon^2 past the float range when it is built."""

    HUGE = Signal([1e308] * 5)
    CASES = {
        # b * theta is finite, but every term (y_j / x_j)^2 overflows
        "huge-alternative": (Signal.zeros(0), HUGE, 1e-2, None,
                             "the statistic over the first 2 coefficients"),
        # the adaptive dimension weighs epsilon^2, which overflows
        "huge-null": (HUGE, HUGE, 1e307, None, "epsilon=1e[+]307 squared"),
        # on the reference path the statistic overflows first; the Monte Carlo
        # plan refuses epsilon^2 when it is built
        "huge-null-fixed-dimension": (HUGE, HUGE, 1e307, 1,
                                      {"reference": "the statistic over the first 1 coefficients",
                                       "kernel": "epsilon=1e[+]307 squared"}),
        # epsilon**2 is finite, but the threshold's centering and deviation are not
        "huge-epsilon": (Signal.zeros(0), Signal.zeros(0), 1.3e154, None,
                         "the threshold is not finite"),
    }

    @pytest.mark.parametrize("path", ["reference", "kernel"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_refused_on_both_paths(self, mild_ordinary, case, path):
        theta0, theta, epsilon, dimension, message = self.CASES[case]
        if isinstance(message, dict):
            message = message[path]
        noise = NoiseLevels(epsilon, 1e-2)
        config = TestConfig(alpha=0.05, beta=0.5, j_max=200, dimension=dimension)
        with pytest.raises(ValueError, match=message):
            if path == "reference":
                obs = simulate(theta, mild_ordinary, noise, seed=0, j_max=200)
                run_test(obs, theta0, mild_ordinary, noise, config)
            else:
                plan = ExperimentPlan(spec=mild_ordinary, noise=noise, config=config,
                                      theta0=theta0, n_reps=100, master_seed=0)
                estimate_beta(plan, theta)
