"""Observation model: exact noise-free paths, stream statistics, signal constructions."""

import math

import numpy as np
import pytest
from numpy.random import Philox
from numpy.testing import assert_allclose
from scipy.special import ndtri

from gsmgof import (
    InfeasibleConstructionError,
    InfeasibleRadiusError,
    InvalidLevelsError,
    NoiseLevels,
    Observations,
    RegimeSpec,
    Signal,
    OPERATOR_STREAM,
    QUADFORM_STREAM,
    SIGNAL_STREAM,
    RekeyedDraws,
    a_value,
    b_value,
    b_vector,
    default_j_max,
    divergence_budget,
    ellipsoid_weighted_norm,
    gaussian_draws,
    make_spike_alternative,
    make_two_point_pair,
    simulate,
    spike_index,
    two_point_shift_constant,
    window_mass,
)
from gsmgof.gsm import DRAW_BOUND, _gaussian


def fresh_draws(seed, rep, stream, n):
    """The first n draws of (seed, rep, stream) from a Philox generator of
    their own, its counter started at (0, 0, rep, stream)."""
    bits = Philox(key=seed, counter=np.array([0, 0, rep, stream], dtype=np.uint64))
    return _gaussian(bits.random_raw(n))


class TestSignal:
    def test_padded_extends_with_zeros(self):
        sig = Signal(np.array([1.0, 2.0]))
        assert_allclose(sig.padded(4), [1.0, 2.0, 0.0, 0.0], rtol=0)

    def test_padded_rejects_shrinking(self):
        with pytest.raises(ValueError):
            Signal(np.ones(3)).padded(2)

    def test_padded_returns_writable_copy(self):
        sig = Signal(np.array([1.0]))
        out = sig.padded(3)
        out[0] = 5.0
        assert sig.coefficients[0] == 1.0

    def test_coefficients_read_only(self):
        sig = Signal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sig.coefficients[0] = 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Signal(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]))
        assert len(Signal.zeros(7)) == 7
        assert len(Signal.zeros()) == 0


class TestNoiseLevels:
    def test_accepts_zero(self):
        noise = NoiseLevels(epsilon=0.0, sigma=0.0)
        assert noise.epsilon == 0.0 and noise.sigma == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            NoiseLevels(epsilon=bad, sigma=0.1)
        with pytest.raises(ValueError):
            NoiseLevels(epsilon=0.1, sigma=bad)


class TestObservations:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Observations(y=np.zeros(3), x=np.zeros(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Observations(y=np.array([np.inf]), x=np.array([1.0]))


class TestDefaultHorizon:
    def test_by_decay_family(self, mild_ordinary, severe_super):
        assert default_j_max(mild_ordinary) == 10_000
        assert default_j_max(severe_super) == 200


class TestGaussianDraws:
    def test_deterministic(self):
        a = gaussian_draws(42, 3, SIGNAL_STREAM, 16)
        b = gaussian_draws(42, 3, SIGNAL_STREAM, 16)
        assert np.array_equal(a, b)

    def test_streams_and_reps_differ(self):
        base = gaussian_draws(42, 3, SIGNAL_STREAM, 16)
        assert not np.array_equal(base, gaussian_draws(42, 3, OPERATOR_STREAM, 16))
        assert not np.array_equal(base, gaussian_draws(42, 4, SIGNAL_STREAM, 16))
        assert not np.array_equal(base, gaussian_draws(43, 3, SIGNAL_STREAM, 16))

    def test_all_finite(self):
        draws = gaussian_draws(0, 0, QUADFORM_STREAM, 10_000)
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("sizes", [
        (0,), (1,), (63,), (64,), (65,), (0, 1, 63, 64, 65, 0, 200), (64, 128, 256, 512),
        (1, 1, 1, 5), (65, 63),
    ], ids=str)
    def test_row_offsets_continue_the_stream(self, sizes):
        """Rows of any widths, each starting where the last one stopped,
        concatenate to one draw of their total, bit for bit."""
        draws = RekeyedDraws(42)
        starts = np.cumsum((0, *sizes[:-1])).tolist()
        parts = [draws.rows([3], OPERATOR_STREAM, start, [k])[0]
                 for start, k in zip(starts, sizes)]
        assert [part.shape for part in parts] == [(k,) for k in sizes]
        whole = gaussian_draws(42, 3, OPERATOR_STREAM, sum(sizes))
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_rekeyed_draws_equal_fresh_streams(self):
        """One re-keyed generator gives every (seed, rep, stream) triple the
        draws of a Philox generator of its own, bit for bit, wherever a draw
        starts and whatever the triples before it were."""
        seeds = (0, 1, 12_345, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 64 + 3)
        reps = (*range(1500), 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 5, 2 ** 63 - 1,
                2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
        splits = (0, 1, 63, 64, 65)
        triples = 0
        for seed in seeds:
            rekeyed = RekeyedDraws(seed)
            for rep in reps:
                stream = (SIGNAL_STREAM, OPERATOR_STREAM, QUADFORM_STREAM)[rep % 3]
                split = splits[rep % len(splits)]
                fresh = fresh_draws(seed, rep, stream, split + 67)
                head, tail = fresh[:split], fresh[split:]
                assert rekeyed.rows([rep], stream, 0, [split]).tobytes() == head.tobytes()
                assert rekeyed.rows([rep], stream, split, [67]).tobytes() == tail.tobytes()
                triples += 1
        assert triples >= 10_000

    def test_replications_past_the_int64_range_draw_apart(self):
        """Every rep in [0, 2**64) has its own counter word, also past the
        int64 range; a rep outside it is refused."""
        draws = {gaussian_draws(0, rep, SIGNAL_STREAM, 4).tobytes()
                 for rep in (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 63 + 5, 2 ** 64 - 1)}
        assert len(draws) == 5
        for rep in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="rep must lie in"):
                gaussian_draws(0, rep, SIGNAL_STREAM, 4)

    def test_rekeyed_rows_refuse_reps_outside_the_counter_word(self):
        """RekeyedDraws takes every rep a Philox counter word holds, both ends
        of [0, 2**64) included, and refuses the others."""
        draws = RekeyedDraws(0)
        for rep in (0, 2 ** 64 - 1):
            row = draws.rows([rep], SIGNAL_STREAM, 0, [4])[0]
            assert row.tobytes() == fresh_draws(0, rep, SIGNAL_STREAM, 4).tobytes()
        for rep in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=rf"rep must lie in \[0, 2\*\*64\), got {rep}"):
                draws.rows([rep], SIGNAL_STREAM, 0, [4])
            with pytest.raises(ValueError, match=rf"rep must lie in \[0, 2\*\*64\), got {rep}"):
                draws.rows([0, rep], SIGNAL_STREAM, 0, [4, 4])

    @pytest.mark.parametrize("call, message", [
        (lambda: simulate(Signal.zeros(0), RegimeSpec.from_name("mild-ordinary"),
                          NoiseLevels(0.1, 0.1), seed=1, j_max=3, rep=2.5),
         "rep must be an integer, got 2.5"),
        (lambda: gaussian_draws(1, 2.5, 1, 3), "rep must be an integer, got 2.5"),
        (lambda: RekeyedDraws(1).rows([0, 1.5], 1, 0, [3, 3]), "rep must be an integer, got 1.5"),
        (lambda: simulate(Signal.zeros(0), RegimeSpec.from_name("mild-ordinary"),
                          NoiseLevels(0.1, 0.1), seed=1.5, j_max=3),
         "seed must be an integer, got 1.5"),
        (lambda: RekeyedDraws(1.5), "seed must be an integer, got 1.5"),
        (lambda: RekeyedDraws(-1), "seed must lie in [0, 2**128), got -1"),
        (lambda: RekeyedDraws(2 ** 128), "seed must lie in [0, 2**128), got 3402"),
        (lambda: gaussian_draws(1, 2, 1.7, 3), "stream must be an integer, got 1.7"),
        (lambda: gaussian_draws(1, 2, -1, 3), "stream must lie in [0, 2**64), got -1"),
        (lambda: gaussian_draws(1, 2, 2 ** 64, 3), "stream must lie in [0, 2**64), got 1844"),
        (lambda: RekeyedDraws(1).rows([2], 1, -4, [3]), "start must lie in [0, 2**66), got -4"),
        (lambda: RekeyedDraws(1).rows([2], 1, 0.5, [3]), "start must be an integer, got 0.5"),
        (lambda: gaussian_draws(1, 2, 1, 2.5), "n must be an integer, got 2.5"),
        (lambda: gaussian_draws(1, 2, 1, -1), "n must be >= 0, got -1"),
        (lambda: RekeyedDraws(1).rows([2, 3], 1, 0, [3, 2.5]), "width must be an integer, got 2.5"),
        (lambda: RekeyedDraws(1).rows([2, 3], 1, 0, [3, -1]), "width must lie in [0, 2**64)"),
    ], ids=["simulate-rep", "draws-rep", "rows-rep", "simulate-seed", "rekeyed-seed",
            "negative-seed", "huge-seed", "draws-stream", "negative-stream", "huge-stream",
            "negative-start", "fractional-start", "fractional-n", "negative-n",
            "fractional-width", "negative-width"])
    def test_draw_arguments_are_integers_in_range(self, call, message):
        """Seed, rep, stream, start and n are refused by name when int() would
        truncate them or they do not fit the Philox key or counter, never
        truncated or turned into a raw OverflowError or TypeError."""
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value).startswith(message)

    def test_draw_arguments_that_are_integral_floats_draw_their_integer(self):
        draws = RekeyedDraws(42.0).rows([3.0, 2 ** 63], 1.0, 4.0, [5.0, 2])
        assert draws.tobytes() == RekeyedDraws(42).rows([3, 2 ** 63], 1, 4, [5, 2]).tobytes()

    def test_rekeyed_rows_hold_each_replication(self):
        """Rows of any widths in one call: row i is the replication's own
        draws up to its width."""
        widths = [0, 1, 63, 64, 65, 5, 200]
        reps = [0, 7, 2 ** 32 + 1, 3, 3, 10, 11]
        rows = RekeyedDraws(42).rows(reps, SIGNAL_STREAM, 4, widths)
        assert rows.shape == (len(reps), max(widths))
        for row, rep, width in zip(rows, reps, widths):
            fresh = fresh_draws(42, rep, SIGNAL_STREAM, 4 + width)
            assert row[:width].tobytes() == fresh[4:].tobytes()
            assert np.isfinite(row).all()

    def test_draw_bound_covers_every_finite_draw(self):
        # the transform maps raw words into [2**-54, 1 - 2**-53]
        assert -ndtri(2.0 ** -54) < DRAW_BOUND
        assert ndtri(np.nextafter(1.0, 0.0)) < DRAW_BOUND

    def test_only_the_all_ones_words_change_and_they_draw_a_finite_value(self):
        """The 2**11 words whose top 53 bits are all ones draw ndtri(1 -
        2**-53), finite and under DRAW_BOUND, where the unclamped transform
        draws +inf; every other word draws what it did before the clamp."""
        def unclamped(words):
            return ndtri((words >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)

        top = (np.uint64(2 ** 53 - 1) << np.uint64(11)) | np.arange(2 ** 11, dtype=np.uint64)
        with np.errstate(divide="ignore"):
            assert np.isposinf(unclamped(top)).all()
        largest = ndtri(np.nextafter(1.0, 0.0))
        assert math.isfinite(largest) and largest < DRAW_BOUND
        assert (_gaussian(top) == largest).all()
        edges = np.array([0, 2 ** 63, (2 ** 53 - 2) << 11], dtype=np.uint64)
        words = np.random.default_rng(2011).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                                                     endpoint=False)
        for sample in (edges, words):
            assert _gaussian(sample).tobytes() == unclamped(sample).tobytes()


class TestSimulateNoiseFree:
    def test_exact_transform(self, mild_ordinary):
        theta = Signal(np.array([2.0, -1.0, 0.5]))
        obs = simulate(theta, mild_ordinary, NoiseLevels(0.0, 0.0), seed=0, j_max=6)
        b = b_vector(mild_ordinary, 6)
        assert np.array_equal(obs.y, b * theta.padded(6))
        assert np.array_equal(obs.x, b)

    def test_first_basis_vector(self, mild_ordinary):
        obs = simulate(Signal(np.array([1.0])), mild_ordinary, NoiseLevels(0.0, 0.0),
                       seed=0, j_max=5)
        assert_allclose(obs.y, [1.0, 0.0, 0.0, 0.0, 0.0], rtol=0)
        assert_allclose(obs.x, [1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5], rtol=1e-15)

    def test_zero_sigma_x_is_writable_copy(self, mild_ordinary):
        obs = simulate(Signal.zeros(1), mild_ordinary, NoiseLevels(0.0, 0.0), seed=0, j_max=4)
        obs.x[0] = 99.0  # must not corrupt the cached singular values
        assert b_vector(mild_ordinary, 4)[0] == 1.0

    def test_horizon_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            simulate(Signal.zeros(5), mild_ordinary, NoiseLevels(0.0, 0.0), seed=0, j_max=3)
        with pytest.raises(ValueError):
            simulate(Signal.zeros(0), mild_ordinary, NoiseLevels(0.0, 0.0), seed=0, j_max=0)


class TestSimulateNoisy:
    def test_reproducible(self, mild_ordinary):
        noise = NoiseLevels(0.5, 0.25)
        a = simulate(Signal.zeros(1), mild_ordinary, noise, seed=9, j_max=20, rep=7)
        b = simulate(Signal.zeros(1), mild_ordinary, noise, seed=9, j_max=20, rep=7)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)

    def test_signal_channel_ignores_sigma(self, mild_ordinary):
        """y is driven by its own stream, so changing sigma cannot touch it."""
        a = simulate(Signal.zeros(1), mild_ordinary, NoiseLevels(1.0, 0.0), seed=9, j_max=20)
        b = simulate(Signal.zeros(1), mild_ordinary, NoiseLevels(1.0, 0.5), seed=9, j_max=20)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, b.x)

    def test_noise_enters_additively(self, mild_ordinary):
        noise = NoiseLevels(0.25, 0.125)
        obs = simulate(Signal(np.array([1.0, 1.0])), mild_ordinary, noise, seed=3,
                       j_max=8, rep=2)
        b = b_vector(mild_ordinary, 8)
        xi = gaussian_draws(3, 2, SIGNAL_STREAM, 8)
        eta = gaussian_draws(3, 2, OPERATOR_STREAM, 8)
        theta = np.zeros(8)
        theta[:2] = 1.0
        assert np.array_equal(obs.y, b * theta + 0.25 * xi)
        assert np.array_equal(obs.x, b + 0.125 * eta)


@pytest.fixture(scope="module")
def stream_sample(request):
    """10^5 replications of the pure-noise model at unit noise levels.

    Under theta = 0, epsilon = sigma = 1 the observations are y = xi and
    x = b + eta, which exposes both raw Gaussian streams for every
    replication.
    """
    spec = RegimeSpec.from_name("mild-ordinary")
    noise = NoiseLevels(1.0, 1.0)
    n = 100_000
    cols = [0, 4, 9]
    b = b_vector(spec, 10)
    xi = np.empty((n, len(cols)))
    eta = np.empty((n, len(cols)))
    for rep in range(n):
        obs = simulate(Signal.zeros(0), spec, noise, seed=20_240, j_max=10, rep=rep)
        xi[rep] = obs.y[cols]
        eta[rep] = (obs.x - b)[cols]
    return xi, eta


class TestStreamStatistics:
    def test_signal_mean_near_zero(self, stream_sample):
        xi, _ = stream_sample
        n = xi.shape[0]
        assert abs(xi[:, 0].mean()) <= 4.0 / math.sqrt(n)

    def test_unit_variance_both_channels(self, stream_sample):
        xi, eta = stream_sample
        n = xi.shape[0]
        for col in range(xi.shape[1]):
            assert abs(xi[:, col].std() - 1.0) <= 4.0 / math.sqrt(n)
            assert abs(eta[:, col].std() - 1.0) <= 4.0 / math.sqrt(n)

    def test_channels_uncorrelated(self, stream_sample):
        xi, eta = stream_sample
        n = xi.shape[0]
        for col in range(xi.shape[1]):
            corr = np.corrcoef(xi[:, col], eta[:, col])[0, 1]
            assert abs(corr) <= 4.0 / math.sqrt(n)


class TestDivergenceBudget:
    def test_pinned_value(self):
        assert_allclose(divergence_budget(0.05, 0.05), 1.4445632692438661, rtol=1e-15)

    def test_formula(self):
        gap = 1.0 - 0.1 - 0.3
        assert_allclose(divergence_budget(0.1, 0.3), math.log1p(4 * gap * gap), rtol=0)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.6, 0.5), (0.0, 0.1), (0.1, 1.0)])
    def test_rejects_incompatible_levels(self, alpha, beta):
        with pytest.raises(InvalidLevelsError):
            divergence_budget(alpha, beta)


class TestWindowMass:
    def test_limits(self):
        assert window_mass(0.0) == 0.0
        assert_allclose(window_mass(50.0), 1.0, rtol=1e-12)

    def test_strictly_increasing(self):
        u = np.linspace(0.0, 6.0, 40)
        vals = [window_mass(float(x)) for x in u]
        assert np.all(np.diff(vals) > 0)

    def test_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            window_mass(-1.0)
        with pytest.raises(ValueError):
            window_mass(math.nan)
        with pytest.raises(ValueError):
            two_point_shift_constant(mild_ordinary, math.nan, 0.05, 0.5, 3)


class TestTwoPointPair:
    def test_zero_sigma_collapses(self, mild_ordinary):
        theta0, theta = make_two_point_pair(
            mild_ordinary, NoiseLevels(0.0, 0.0), 0.05, 0.05, d=3
        )
        assert np.array_equal(theta0.coefficients, theta.coefficients)

    def test_pinned_first_coordinate_pair(self, mild_ordinary):
        noise = NoiseLevels(0.0, 0.01)
        theta0, theta = make_two_point_pair(mild_ordinary, noise, 0.05, 0.05, d=1)
        assert_allclose(theta.coefficients, [0.5], rtol=0)
        sep = theta0.coefficients[0] - theta.coefficients[0]
        assert_allclose(sep, 0.007222816346219331, rtol=1e-12)

    def test_separation_identity(self, severe_ordinary):
        """Distance equals (shift/2) * sigma / (a_d * b_d) by construction."""
        noise = NoiseLevels(0.0, 1e-4)
        d = 4
        theta0, theta = make_two_point_pair(severe_ordinary, noise, 0.03, 0.07, d=d)
        shift = two_point_shift_constant(severe_ordinary, noise.sigma, 0.03, 0.07, d)
        expected = (shift / 2.0) * noise.sigma / (a_value(severe_ordinary, d)
                                                  * b_value(severe_ordinary, d))
        got = np.linalg.norm(theta0.coefficients - theta.coefficients)
        assert_allclose(got, expected, rtol=1e-12)

    def test_both_signals_in_class(self, mild_ordinary):
        noise = NoiseLevels(0.0, 0.01)
        theta0, theta = make_two_point_pair(mild_ordinary, noise, 0.05, 0.05, d=2)
        assert ellipsoid_weighted_norm(mild_ordinary, theta0.coefficients) <= 1.0
        assert ellipsoid_weighted_norm(mild_ordinary, theta.coefficients) <= 1.0
        diff = theta0.coefficients - theta.coefficients
        assert ellipsoid_weighted_norm(mild_ordinary, diff) <= 1.0

    def test_oversized_shift_rejected(self, mild_ordinary):
        # shift * sigma / b_5 comfortably exceeds 1 here
        with pytest.raises(InfeasibleConstructionError):
            make_two_point_pair(mild_ordinary, NoiseLevels(0.0, 0.9), 0.05, 0.05, d=5)

    def test_vanishing_window_mass_rejected(self, severe_ordinary):
        # b_20 ~ 2e-9 while sigma = 0.5: the coefficient window has almost no
        # mass left, the log discount swamps the budget
        with pytest.raises(InfeasibleConstructionError):
            make_two_point_pair(severe_ordinary, NoiseLevels(0.0, 0.5), 0.05, 0.05, d=20)

    def test_d_validation(self, mild_ordinary):
        with pytest.raises(ValueError):
            make_two_point_pair(mild_ordinary, NoiseLevels(0.0, 0.01), 0.05, 0.05, d=0)


class TestSpike:
    def test_index_ordinary(self, mild_ordinary):
        # largest d with d * 0.25 <= 1
        assert spike_index(mild_ordinary, 0.25, j_max=100) == 4

    def test_index_super(self, mild_super):
        # e * 0.25 <= 1 but e^2 * 0.25 > 1
        assert spike_index(mild_super, 0.25, j_max=100) == 1

    def test_index_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = float(rng.uniform(0.3, 2.5))
            growth = "ordinary" if rng.random() < 0.5 else "super"
            spec = RegimeSpec.from_name(f"mild-{growth}", s=s)
            r = float(10.0 ** rng.uniform(-4, 0))
            if a_value(spec, 1) * r > 1.0:
                continue
            d = spike_index(spec, r, j_max=500)
            assert a_value(spec, d) * r <= 1.0
            if d < 500:
                assert a_value(spec, d + 1) * r > 1.0

    def test_index_capped_by_horizon(self, mild_ordinary):
        assert spike_index(mild_ordinary, 1e-6, j_max=50) == 50

    @pytest.mark.parametrize("s", [0.1, 0.25, 1.0])
    @pytest.mark.parametrize("regime", ["mild-ordinary", "mild-super", "severe-ordinary",
                                        "severe-super"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_index_is_the_brute_force_maximum(self, regime, s):
        """spike_index is max{d <= j_max : a_d * r <= 1}, also at radii so
        small that 1/(c_a*r), or its power, leaves the float range."""
        spec = RegimeSpec.from_name(regime, s=s)
        for j_max in (1, 100, 1000):
            for r in (5e-324, 1e-320, 1e-300, 1e-40, 1e-5, 0.01, 0.5, 1.0):
                admitted = [d for d in range(1, j_max + 1) if a_value(spec, d) * r <= 1.0]
                if admitted:
                    assert spike_index(spec, r, j_max) == max(admitted), (j_max, r)
                else:
                    with pytest.raises(InfeasibleRadiusError):
                        spike_index(spec, r, j_max)

    def test_infeasible_radius(self, mild_ordinary):
        with pytest.raises(InfeasibleRadiusError):
            spike_index(mild_ordinary, 2.0, j_max=100)
        with pytest.raises(ValueError):
            spike_index(mild_ordinary, 0.0, j_max=100)

    def test_alternative_norm_and_membership(self, mild_ordinary):
        theta0 = Signal(np.array([0.1, 0.05]))
        r = 0.125
        theta = make_spike_alternative(mild_ordinary, theta0, r, j_max=100)
        diff = theta.padded(len(theta)) - theta0.padded(len(theta))
        assert np.count_nonzero(diff) == 1
        assert np.linalg.norm(diff) == r  # single coordinate: exact
        assert ellipsoid_weighted_norm(mild_ordinary, diff) <= 1.0

    def test_alternative_preserves_base(self, mild_super):
        theta0 = Signal(np.array([0.25]))
        theta = make_spike_alternative(mild_super, theta0, 0.25, j_max=100)
        assert theta.coefficients[0] == 0.5  # spike lands on coordinate 1 here
