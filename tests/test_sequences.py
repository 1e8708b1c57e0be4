"""Coefficient sequences: pinned values, exact-rational cross-checks, shape rules."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsmgof import (
    RegimeSpec,
    SequenceOverflowError,
    a_inv_sq,
    a_value,
    b_value,
    b_vector,
    cumulative_b_inv4,
    cumulative_b_inv4_prefix,
    ellipsoid_weighted_norm,
    evaluate_bounds,
    lower_bound_radius_sq,
)
from gsmgof.sequences import _b_inv4_terms, _running_sums


class TestRegimeSpec:
    def test_from_name_round_trip(self):
        for name in ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super"):
            spec = RegimeSpec.from_name(name, s=1.5, t=0.5)
            assert spec.name == name
            assert spec.s == 1.5
            assert spec.t == 0.5

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            RegimeSpec.from_name("gentle-ordinary")
        with pytest.raises(ValueError):
            RegimeSpec.from_name("mild")

    @pytest.mark.parametrize("field", ["s", "t", "c_b", "c_a"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_parameters(self, field, bad):
        kwargs = {"s": 1.0, "t": 1.0, "c_b": 1.0, "c_a": 1.0}
        kwargs[field] = bad
        with pytest.raises(ValueError):
            RegimeSpec.from_name("mild-ordinary", **kwargs)

    def test_frozen(self, mild_ordinary):
        with pytest.raises(Exception):
            mild_ordinary.s = 2.0


class TestPinnedValues:
    """Hand-checkable evaluations of both sequences."""

    @pytest.mark.parametrize(
        "name, t, j, expected",
        [
            ("mild-ordinary", 1.0, 2, 0.5),
            ("severe-ordinary", 1.0, 1, math.exp(-1.0)),
            ("mild-ordinary", 2.0, 10, 0.01),
        ],
    )
    def test_b_value(self, name, t, j, expected):
        spec = RegimeSpec.from_name(name, s=1.0, t=t)
        assert_allclose(b_value(spec, j), expected, rtol=1e-15)

    @pytest.mark.parametrize(
        "name, s, j, expected",
        [
            ("mild-ordinary", 1.0, 3, 3.0),
            ("mild-super", 0.5, 2, math.e),
            ("mild-ordinary", 2.0, 4, 16.0),
        ],
    )
    def test_a_value(self, name, s, j, expected):
        spec = RegimeSpec.from_name(name, s=s, t=1.0)
        assert_allclose(a_value(spec, j), expected, rtol=1e-15)

    def test_cumulative_small_cases(self, mild_ordinary, severe_ordinary):
        # 1 + 2**4 + 3**4 = 98, exactly representable
        assert cumulative_b_inv4(mild_ordinary, 3) == 98.0
        assert cumulative_b_inv4(mild_ordinary, 1) == 1.0
        # exp(4) + exp(8); fsum reproduces the correctly rounded double
        assert_allclose(
            cumulative_b_inv4(severe_ordinary, 2), 3035.5561370748724, rtol=1e-15
        )

    def test_scalar_in_scalar_out(self, mild_ordinary):
        assert isinstance(b_value(mild_ordinary, 5), float)
        assert isinstance(a_value(mild_ordinary, 5), float)
        arr = b_value(mild_ordinary, np.arange(1, 4))
        assert isinstance(arr, np.ndarray)
        assert_allclose(arr, [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)

    def test_index_must_be_positive(self, mild_ordinary):
        with pytest.raises(ValueError):
            b_value(mild_ordinary, 0)
        with pytest.raises(ValueError):
            a_value(mild_ordinary, np.array([1, 0, 2]))


class TestMonotonicity:
    @pytest.mark.parametrize(
        "name", ["mild-ordinary", "mild-super", "severe-ordinary", "severe-super"]
    )
    def test_b_strictly_decreasing_a_strictly_increasing(self, name):
        spec = RegimeSpec.from_name(name, s=0.7, t=0.9)
        j = np.arange(1, 51)
        bs = b_value(spec, j)
        as_ = a_value(spec, j)
        assert np.all(np.diff(bs) < 0)
        assert np.all(np.diff(as_) > 0)

    def test_prefix_nondecreasing(self, mild_ordinary):
        prefix = cumulative_b_inv4_prefix(mild_ordinary, 500)
        assert np.all(np.diff(prefix) > 0)


class TestCumulativeAccuracy:
    """Compensated sums against an exact dyadic-rational accumulator.

    The per-term doubles are taken as given; the oracle sums them without any
    rounding, so the comparison isolates accumulation error.
    """

    @pytest.mark.parametrize(
        "name, t, d",
        [
            ("mild-ordinary", 1.0, 10_000),
            ("mild-ordinary", 1.3, 10_000),
            ("mild-ordinary", 0.7, 2_000),
            ("severe-ordinary", 1.0, 150),
            ("severe-ordinary", 0.017, 10_000),
        ],
    )
    def test_matches_exact_rational_sum(self, name, t, d):
        spec = RegimeSpec.from_name(name, s=1.0, t=t)
        exact = sum(Fraction(term) for term in _b_inv4_terms(spec, d))
        got = cumulative_b_inv4(spec, d)
        assert_allclose(got, float(exact), rtol=1e-12)
        prefix = cumulative_b_inv4_prefix(spec, d)
        assert prefix.shape == (d,)
        assert_allclose(prefix[-1], float(exact), rtol=1e-12)

    def test_prefix_consistent_with_single_terms(self, severe_ordinary):
        d = 120
        prefix = cumulative_b_inv4_prefix(severe_ordinary, d)
        increments = np.diff(prefix)
        terms = np.array(list(_b_inv4_terms(severe_ordinary, d)))
        assert_allclose(increments, terms[1:], rtol=1e-12)
        assert_allclose(prefix[0], terms[0], rtol=0)

    def test_prefix_head_matches_cumulative(self, mild_ordinary):
        prefix = cumulative_b_inv4_prefix(mild_ordinary, 64)
        for d in (1, 2, 7, 33, 64):
            assert_allclose(prefix[d - 1], cumulative_b_inv4(mild_ordinary, d), rtol=1e-13)


class TestOverflow:
    def test_severe_overflow_raises(self, severe_ordinary):
        # exp(4*j) passes the double range between j = 177 and j = 178
        assert math.isfinite(cumulative_b_inv4(severe_ordinary, 177))
        with pytest.raises(SequenceOverflowError):
            cumulative_b_inv4(severe_ordinary, 180)
        with pytest.raises(SequenceOverflowError):
            cumulative_b_inv4_prefix(severe_ordinary, 180)

    def test_error_names_offending_index(self, severe_ordinary):
        with pytest.raises(SequenceOverflowError, match="178"):
            cumulative_b_inv4(severe_ordinary, 200)

    def test_tiny_c_a_is_refused_by_name(self):
        """c_a**-2 past the float range is a typed error naming c_a, also
        through the bound evaluators."""
        spec = RegimeSpec.from_name("mild-ordinary", c_a=1e-200)
        with pytest.raises(SequenceOverflowError, match=r"c_a\*\*\(-2\).*c_a=1e-200"):
            a_inv_sq(spec, 1)
        with pytest.raises(SequenceOverflowError, match="c_a"):
            evaluate_bounds(spec, 1e-3, 1e-3, 0.05, 0.5, 100)

    def test_tiny_c_b_is_refused_by_name(self):
        """c_b**-4 past the float range is a typed error naming c_b, from
        every b_j**-4 sum and through the lower bound."""
        spec = RegimeSpec.from_name("mild-ordinary", c_b=1e-100)
        for call in (lambda: cumulative_b_inv4(spec, 3),
                     lambda: cumulative_b_inv4_prefix(spec, 3),
                     lambda: lower_bound_radius_sq(spec, 1e-3, 0.0, 0.05, 0.5, 100)):
            with pytest.raises(SequenceOverflowError, match=r"c_b\*\*\(-4\).*c_b=1e-100"):
                call()

    def test_constants_inside_the_float_range_still_evaluate(self):
        spec = RegimeSpec.from_name("mild-ordinary", c_a=1e-150, c_b=1e-75)
        assert a_inv_sq(spec, 1) == pytest.approx(1e300)
        assert cumulative_b_inv4(spec, 1) == pytest.approx(1e300)


def _fresh_running_sums(spec, d):
    """One Kahan pass over the terms, as the sums were built before they were
    cached per spec."""
    out = []
    total = carry = 0.0
    for term in _b_inv4_terms(spec, d):
        y = term - carry
        tmp = total + y
        carry = (tmp - total) - y
        total = tmp
        out.append(total)
    return np.array(out)


class TestPrefixCache:
    """cumulative_b_inv4_prefix slices one per-spec array of running sums
    that grows on demand by resuming the compensated sum."""

    @pytest.mark.parametrize("name, t", [("mild-ordinary", 1.0), ("mild-super", 0.37),
                                         ("severe-ordinary", 0.017)])
    def test_short_then_long_equals_long_then_short(self, name, t):
        spec = RegimeSpec.from_name(name, t=t)
        lengths = (1, 50, 51, 3000, 64, 10_000)
        _running_sums.cache_clear()
        growing = [cumulative_b_inv4_prefix(spec, d).tobytes() for d in lengths]
        _running_sums.cache_clear()
        shrinking = [cumulative_b_inv4_prefix(spec, d).tobytes()
                     for d in sorted(lengths, reverse=True)]
        assert sorted(growing, key=len) == sorted(shrinking, key=len)
        assert growing[-1] == _fresh_running_sums(spec, 10_000).tobytes()

    def test_returned_array_is_read_only(self, mild_ordinary):
        prefix = cumulative_b_inv4_prefix(mild_ordinary, 20)
        with pytest.raises(ValueError):
            prefix[0] = 2.0
        longer = cumulative_b_inv4_prefix(mild_ordinary, 40)
        assert not longer.flags.writeable
        assert prefix.tobytes() == longer[:20].tobytes()

    def test_overflow_raises_at_the_same_index_after_growth(self, severe_ordinary):
        with pytest.raises(SequenceOverflowError) as fresh:
            cumulative_b_inv4(severe_ordinary, 200)
        _running_sums.cache_clear()
        assert cumulative_b_inv4_prefix(severe_ordinary, 100).size == 100
        for d in (180, 178, 500):
            with pytest.raises(SequenceOverflowError) as grown:
                cumulative_b_inv4_prefix(severe_ordinary, d)
            assert str(grown.value) == str(fresh.value)
        assert str(fresh.value) == "b_178**(-4) exceeds the floating-point range (index 178, t=1.0)"
        assert cumulative_b_inv4_prefix(severe_ordinary, 177).tobytes() == \
            _fresh_running_sums(severe_ordinary, 177).tobytes()

    def test_refuses_an_empty_prefix(self, mild_ordinary):
        for d in (0, -3):
            with pytest.raises(ValueError, match="d must be >= 1"):
                cumulative_b_inv4_prefix(mild_ordinary, d)


class TestEllipsoidNorm:
    def test_zero_vector(self, mild_ordinary):
        assert ellipsoid_weighted_norm(mild_ordinary, np.zeros(5)) == 0.0
        assert ellipsoid_weighted_norm(mild_ordinary, []) == 0.0

    def test_single_coordinate(self, mild_ordinary):
        assert ellipsoid_weighted_norm(mild_ordinary, [0.5]) == 0.25

    def test_three_coordinates(self, mild_ordinary):
        # 1*0.01 + 4*0.04 + 9*0.09 = 0.98
        assert_allclose(
            ellipsoid_weighted_norm(mild_ordinary, [0.1, 0.2, 0.3]), 0.98, rtol=1e-15
        )

    def test_trailing_zeros_are_free(self, severe_super):
        theta = np.zeros(100_000)
        theta[0] = 0.1
        # only the nonzero coordinate is weighted, so the huge exponential
        # weights further out never get evaluated
        expected = (a_value(severe_super, 1) * 0.1) ** 2
        assert_allclose(ellipsoid_weighted_norm(severe_super, theta), expected, rtol=1e-15)

    @pytest.mark.parametrize("c", [0.25, 3.0, 17.5])
    def test_homogeneity(self, mild_super, c):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=20)
        base = ellipsoid_weighted_norm(mild_super, theta)
        scaled = ellipsoid_weighted_norm(mild_super, c * theta)
        assert_allclose(scaled, c * c * base, rtol=1e-12)

    def test_rejects_matrix_input(self, mild_ordinary):
        with pytest.raises(ValueError):
            ellipsoid_weighted_norm(mild_ordinary, np.ones((2, 2)))


class TestHelpers:
    def test_b_vector_read_only(self, mild_ordinary):
        vec = b_vector(mild_ordinary, 10)
        assert_allclose(vec, b_value(mild_ordinary, np.arange(1, 11)), rtol=0)
        with pytest.raises(ValueError):
            vec[0] = 2.0

    def test_b_vector_cache_returns_same_object(self, mild_ordinary):
        assert b_vector(mild_ordinary, 32) is b_vector(mild_ordinary, 32)

    def test_a_inv_sq_matches_reciprocal_square(self, mild_ordinary, mild_super):
        j = np.arange(1, 30)
        assert_allclose(a_inv_sq(mild_ordinary, j), a_value(mild_ordinary, j) ** -2.0, rtol=1e-14)
        assert_allclose(a_inv_sq(mild_super, j), a_value(mild_super, j) ** -2.0, rtol=1e-14)

    def test_a_inv_sq_underflows_gracefully(self):
        spec = RegimeSpec.from_name("mild-super", s=2.0, t=1.0)
        # a_value overflows to inf here, but the inverse square just hits 0.0
        assert a_inv_sq(spec, 500) == 0.0
        assert math.isfinite(a_inv_sq(spec, 500))
