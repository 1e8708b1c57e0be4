"""Coefficient sequences: pinned values, exact-rational cross-checks, shape rules."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from gsmgof import sequences
from gsmgof.sequences import _SUM_CAP, _b_inv4_terms, _running_sums, _window_sums


class TestRegimeSpec:
    def test_from_name_round_trip(self):
        for name in ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super"):
            spec = RegimeSpec.from_name(name, s=1.5, t=0.5)
            assert spec.name == name
            assert spec.s == 1.5
            assert spec.t == 0.5

    def test_from_name_rejects_unknown(self):
        for name in ("gentle-ordinary", "mild"):
            with pytest.raises(ValueError, match=f"unknown regime name '{name}'"):
                RegimeSpec.from_name(name)

    @pytest.mark.parametrize("field, bad", [("s", float("nan")), ("t", 0.0),
                                            ("c_b", float("inf")), ("c_a", -1.0)])
    def test_from_name_names_a_bad_parameter(self, field, bad):
        """A known name with a bad parameter is refused for the parameter."""
        with pytest.raises(ValueError) as info:
            RegimeSpec.from_name("mild-ordinary", **{field: bad})
        assert str(info.value) == f"{field} must be a positive finite number, got {bad!r}"

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

    @pytest.mark.parametrize("name, s, c_a, j, index", [
        ("mild-ordinary", 1e300, 1.0, 3, "3"),
        ("mild-ordinary", 1.0, 1e300, np.array([1, 2e8, 3e8]), "200000000.0"),
        ("mild-super", 1.0, 1.0, np.arange(1, 800), "710"),
        ("severe-super", 1.0, 1.0, 1e300, "1e+300"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_weight_past_the_float_range_is_refused(self, name, s, c_a, j, index):
        """Not returned as inf with an overflow warning: the first index
        whose weight leaves the float range is named."""
        spec = RegimeSpec.from_name(name, s=s, c_a=c_a)
        with pytest.raises(SequenceOverflowError, match=re.escape(f"a_{index} exceeds")):
            a_value(spec, j)

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

    def test_a_sum_past_the_float_range_is_refused(self):
        """With c_b = 1e-75 every b_j**(-4) up to j = 115 is finite, but their
        sum leaves the float range at j = 62: both sums refuse it there,
        where the running sums once turned inf and then NaN and fsum raised
        a bare OverflowError."""
        spec = RegimeSpec.from_name("mild-ordinary", c_b=1e-75)
        prefix = cumulative_b_inv4_prefix(spec, 61)
        assert np.isfinite(prefix).all() and (np.diff(prefix) > 0).all()
        assert math.isfinite(cumulative_b_inv4(spec, 61))
        message = "the sum of b_j**(-4) for j = 1..{} exceeds the floating-point range (t=1.0)"
        for d in (62, 100, 62):
            with pytest.raises(SequenceOverflowError, match=re.escape(message.format(62))):
                cumulative_b_inv4_prefix(spec, d)
        with pytest.raises(SequenceOverflowError, match=re.escape(message.format(100))):
            cumulative_b_inv4(spec, 100)

    def test_specs_of_one_decay_share_b_and_its_sums(self):
        """b and its running sums read only (b_kind, t, c_b): specs that
        differ in growth alone share both, and a different decay shares
        neither."""
        spec = RegimeSpec.from_name("mild-ordinary", s=0.5, t=1.5, c_b=2.0)
        same_decay = RegimeSpec.from_name("mild-super", s=3.0, t=1.5, c_b=2.0, c_a=7.0)
        others = [RegimeSpec.from_name("mild-ordinary", s=0.5, t=1.25, c_b=2.0),
                  RegimeSpec.from_name("mild-ordinary", s=0.5, t=1.5, c_b=3.0),
                  RegimeSpec.from_name("severe-ordinary", s=0.5, t=1.5, c_b=2.0)]
        _running_sums.cache_clear()
        assert b_vector(spec, 300) is b_vector(same_decay, 300)
        assert np.shares_memory(cumulative_b_inv4_prefix(spec, 50),
                                cumulative_b_inv4_prefix(same_decay, 40))
        assert _running_sums.cache_info().misses == 1
        for other in others:
            assert not np.shares_memory(b_vector(other, 300), b_vector(spec, 300))
            assert not np.shares_memory(cumulative_b_inv4_prefix(other, 40),
                                        cumulative_b_inv4_prefix(spec, 40))
        assert _running_sums.cache_info().misses == 1 + len(others)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, mild_ordinary, bad):
        """A NaN coefficient gave a NaN norm and an infinite one an infinite
        norm; Signal refuses both, and so does the norm."""
        for theta in ([bad], [0.1, 0.0, bad]):
            with pytest.raises(ValueError) as info:
                ellipsoid_weighted_norm(mild_ordinary, theta)
            assert str(info.value) == "theta must be finite"

    @pytest.mark.parametrize("theta, index", [
        ([1e200], 1),  # the square of a finite term
        ([0.1, 0.0, 1.3e154], 3),  # a_3 * theta_3 is 3.9e154, its square is not finite
        ([1.2e154, 5e153], 2),  # finite terms 1.44e308 and 1e308 whose sum is not
    ], ids=["term", "later-term", "sum"])
    def test_refuses_a_norm_past_the_float_range(self, mild_ordinary, theta, index):
        """It returned inf, with a numpy overflow warning."""
        with pytest.raises(SequenceOverflowError) as info:
            ellipsoid_weighted_norm(mild_ordinary, theta)
        assert str(info.value) == ("sum of a_j**2 * theta_j**2 exceeds the floating-point "
                                   f"range at index {index}")

    def test_refuses_an_overflowing_weight(self, mild_super):
        """a_1000 = e**1000 is not finite, however small theta_1000 is."""
        theta = np.zeros(1000)
        theta[[0, 999]] = 0.1, 1e-300
        with pytest.raises(SequenceOverflowError, match="range at index 1000$"):
            ellipsoid_weighted_norm(mild_super, theta)


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

    @pytest.mark.parametrize("fn", [b_value, a_value, a_inv_sq])
    @pytest.mark.parametrize("j, shown", [
        (2.5, "2.5"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0, "0"),
        ([1, 2, 2.5, 3], "2.5"), (np.array([[1.0, math.nan], [2.0, 0.5]]), "nan"),
        ([3, -2.0], "-2"), (np.array([3, -2]), "-2"),
    ], ids=["half", "nan", "inf", "minus-inf", "zero", "array-half", "matrix-nan",
            "array-negative", "integer-array-negative"])
    def test_an_index_that_is_not_a_positive_integer_is_refused(self, mild_ordinary, fn, j,
                                                                  shown):
        """At mild-ordinary b_value(2.5) would be 0.4, a_value(2.5) 2.5 and
        a_inv_sq(2.5) 0.16, and b_value(nan) nan; each is refused, naming
        the first offending index."""
        message = f"sequence index must be a positive integer, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(mild_ordinary, j)

    def test_a_inv_sq_underflows_gracefully(self):
        spec = RegimeSpec.from_name("mild-super", s=2.0, t=1.0)
        # a_value overflows to inf here, but the inverse square just hits 0.0
        assert a_inv_sq(spec, 500) == 0.0
        assert math.isfinite(a_inv_sq(spec, 500))


def fsum_loop(columns, width):
    """math.fsum of each window of each column, one window at a time; a
    window in which any column's sum overflows is inf in every column."""
    out, lo = np.zeros((len(columns), len(width))), 0
    for i, w in enumerate(width):
        try:
            out[:, i] = [math.fsum(column[lo:lo + w]) for column in columns]
        except OverflowError:
            out[:, i] = math.inf
        lo += w
    return out


def outcome(fn, *args):
    """fn(*args)'s bytes, or the error it raises."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return f"{type(exc).__name__}: {exc}"


def scaled(values, e):
    return [math.ldexp(value, e) for value in values]


# one value of every column at a position of a window
VALUES = st.one_of(
    st.floats(),
    st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and the smallest normals
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e300, 1e308, -1e308, sys.float_info.max,
                     -sys.float_info.max, math.inf, -math.inf, math.nan]))
# a and b in one binade: their sum is a tie for half of all pairs
TIE = st.builds(lambda m, n, e, sign: scaled([sign * m, sign * n], e),
                st.integers(2 ** 52, 2 ** 53 - 1), st.integers(2 ** 52, 2 ** 53 - 1),
                st.integers(-1074, 970), st.sampled_from([1.0, -1.0]))
# 1 + 2**-53 is a tie that 2**-106 breaks: fsum gives 1 + 2**-52, a bare
# cascade of TwoSums 1.0
NEAR_TIE = st.builds(lambda signs, e, order: [scaled([1.0, *signs], e)[i] for i in order],
                     st.sampled_from([(a * 2.0 ** -53, b * 2.0 ** -106)
                                      for a in (1, -1) for b in (1, -1)]),
                     st.integers(-900, 900), st.permutations(range(3)))
BIG = st.sampled_from([1e308, -1e308, sys.float_info.max, 2.0 ** 1023, 1.0])


def rows_of(columns):
    """One window's positions, a value of each column at each."""
    return [*zip(*columns)]


WINDOWS = st.one_of(
    st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=_SUM_CAP + 1),
    st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=_SUM_CAP - 1, max_size=_SUM_CAP + 1),
    st.tuples(TIE, TIE, TIE).map(rows_of),
    st.tuples(NEAR_TIE, NEAR_TIE, NEAR_TIE).map(rows_of),
    # finite values whose sum can leave the float range
    st.integers(2, 5).flatmap(lambda n: st.tuples(*[st.lists(BIG, min_size=n, max_size=n)] * 3))
    .map(rows_of),
)


class TestWindowSums:
    """_window_sums is math.fsum of every window, bit for bit, and raises
    what a loop of fsums over the windows raises."""

    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(WINDOWS, max_size=6))
    @example(windows=[[(1.0, 1.0, 1.0), (2.0 ** -53,) * 3, (2.0 ** -106,) * 3]])
    @example(windows=[[(1.0, 2.0, 3.0)], [], [(1e308, 1.0, 1.0), (1e308, 1.0, 1.0)]])
    # fsum overflows between its partials, though the sum is 2**1023 - 5 * 2**970
    @example(windows=[[(-(2.0 ** 1023 + 2.0 ** 972), 1.0, 1.0), (2.0 ** 970, 1.0, 1.0),
                       (sys.float_info.max, 1.0, 1.0)]])
    @example(windows=[[(0.5, 0.5, 0.5)] * (_SUM_CAP + 1), [(1.0, 1.0, 1.0), (2.0 ** -53,) * 3,
                                                           (2.0 ** -106,) * 3]])
    @pytest.mark.filterwarnings("error")
    def test_every_window_is_its_fsum(self, windows):
        width = np.array([len(window) for window in windows], dtype=int)
        columns = [np.array([row[c] for window in windows for row in window], dtype=float)
                   for c in range(3)]
        assert outcome(_window_sums, columns, width) == outcome(fsum_loop, columns, width)

    def test_only_the_windows_left_open_are_summed_by_fsum(self, monkeypatch):
        """A group of 100 windows holding one near tie and one window past
        the cap calls fsum for those two only, once per column."""
        calls = []
        real = math.fsum
        monkeypatch.setattr(sequences.math, "fsum", lambda values: calls.append(len(values))
                            or real(values))
        rng = np.random.default_rng(3)
        windows = [rng.uniform(0.5, 2.0, n).tolist() for n in rng.integers(0, _SUM_CAP, 99)]
        windows[40] = [1.0, 2.0 ** -53, 2.0 ** -106]
        windows.append(np.ones(_SUM_CAP + 1).tolist())
        width = [len(window) for window in windows]
        columns = [np.concatenate(windows)] * 2
        sums = _window_sums(columns, width)
        assert calls == [3, 3, _SUM_CAP + 1, _SUM_CAP + 1]
        calls.clear()
        assert sums.tobytes() == fsum_loop(columns, width).tobytes()
