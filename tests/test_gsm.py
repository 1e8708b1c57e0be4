"""Observation model: exact noise-free paths, stream statistics, signal constructions."""

import json
import math
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from numpy.testing import assert_allclose
from scipy.special import ndtri

from gsmgof import (
    GrowthKind,
    GsmGofError,
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
from gsmgof import cli
from gsmgof.gsm import DRAW_BOUND, _ChunkDraws, _gaussian, _ndtri


def _weight_times(spec, d, r):
    """a_d * r: the float product where a_value(spec, d) is finite, else
    exact to 40 digits (a Decimal, of an unbounded exponent)."""
    with np.errstate(over="ignore"):
        a = a_value(spec, d)
    if math.isfinite(a):
        return a * r
    with localcontext() as context:
        context.prec, context.Emax, context.Emin = 40, MAX_EMAX, MIN_EMIN
        growth = Decimal(d) * Decimal(spec.s) if spec.a_kind is GrowthKind.SUPER \
            else Decimal(spec.s) * Decimal(d).ln()
        return Decimal(spec.c_a) * growth.exp() * Decimal(r)


TOL = Decimal("1e-9")


def _admits(spec, d, r):
    """a_d * r <= 1, exactly where a_d is a float; where it passes the float
    range, within 1e-9 relative of the exact product (None: too close to 1
    to tell)."""
    product = _weight_times(spec, d, r)
    if isinstance(product, float) or not 1 - TOL <= product <= 1 + TOL:
        return product <= 1
    return None


def fresh_draws(seed, rep, stream, n, start=0):
    """Draws start .. start + n - 1 of (seed, rep, stream) from a Philox
    generator of their own, its counter started at (start // 4, 0, rep,
    stream) and start % 4 words skipped."""
    block, skip = divmod(start, 4)
    bits = Philox(key=seed, counter=np.array([block, 0, rep, stream], dtype=np.uint64))
    bits.random_raw(skip)
    return _gaussian(bits.random_raw(n))


REGIMES = ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super")


@st.composite
def _specs(draw):
    """A regime anywhere in its domain, leaning on the edges that
    tests/test_bounds.py's evaluate_bounds property leans on: s and t from
    1e-3 to 1e3, c_a and c_b in 1e+-80, and super growth whose a_d passes
    the float range inside a horizon of 2000."""
    regime = draw(st.sampled_from(REGIMES))
    powers = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    t, s = draw(powers), draw(powers)
    if regime.endswith("super") and draw(st.booleans()):
        s = draw(st.floats(0.36, 20.0))  # e**(710 / s) lies within d = 2000
    constants = st.just(1.0) | st.floats(-80.0, 80.0).map(lambda e: 10.0 ** e)
    return RegimeSpec.from_name(regime, s=s, t=t, c_b=draw(constants), c_a=draw(constants))


@st.composite
def _spike_cases(draw):
    """A spec, a radius down to the smallest subnormal, and a horizon up to
    1e12."""
    r = draw(st.floats(-323.0, 1.0).map(lambda e: 10.0 ** e) | st.floats(5e-324, 1e-300))
    return draw(_specs()), r, draw(st.integers(1, 2000) | st.integers(1, 10 ** 12))


@st.composite
def _two_point_cases(draw):
    """A spec, sigma as test_finite_or_refused draws it or 0, levels with
    alpha + beta < 1, and a coordinate up to 200 000."""
    alpha = draw(st.floats(1e-6, 0.45))
    beta = draw(st.floats(alpha, 0.999 - alpha))
    sigma = draw(st.just(0.0) | st.floats(-323.0, -0.005).map(lambda e: 10.0 ** e)
                 | st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0 ** e))
    return draw(_specs()), sigma, alpha, beta, draw(st.integers(1, 2000) | st.integers(1, 200_000))


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

    @pytest.mark.parametrize("reps", [
        np.array([0, 5, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
        np.array([0, 5, 2 ** 32, 2 ** 63 - 1], dtype=np.int64),
        [0, 5, 2 ** 63, 2 ** 64 - 1],
    ], ids=["uint64", "int64", "int"])
    @pytest.mark.parametrize("stream, start", [
        (SIGNAL_STREAM, 0), (2 ** 64 - 1, 6), (OPERATOR_STREAM, 4 * (2 ** 64 - 1) + 3),
        (2 ** 64 - 1, 4 * (2 ** 64 - 1) + 3),
    ], ids=["start-0", "last-stream", "last-block", "last-stream-and-block"])
    def test_rows_take_every_admissible_counter_word(self, reps, stream, start):
        """The re-keyed counter holds plain ints, or the numpy scalars of a
        numpy rep array; either way every rep, stream and start in range
        draws what a fresh Philox generator at counter (start // 4, 0, rep,
        stream) draws past its first start % 4 words, bit for bit."""
        rows = RekeyedDraws(12_345).rows(reps, stream, start, [9, 0, 5, 9])
        for row, rep, width in zip(rows, reps, [9, 0, 5, 9]):
            fresh = fresh_draws(12_345, rep, stream, width, start)
            assert row[:width].tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("reps, widths", [([1, 2, 3], [4]), ([1], [4, 5, 6])],
                             ids=["more-reps", "more-widths"])
    def test_rows_refuse_reps_and_widths_of_different_lengths(self, reps, widths):
        """A rep without a width, or a width without a rep, is refused, not
        dropped or turned into a raw IndexError."""
        message = f"reps and widths differ in length: {len(reps)} and {len(widths)}"
        with pytest.raises(ValueError, match=message):
            RekeyedDraws(1).rows(reps, SIGNAL_STREAM, 0, widths)

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

    def test_rows_from_any_start_are_slices_of_the_stream(self):
        """Rows of unequal widths from each start 0..7, inside a counter and
        at its first word, are slices of each replication's own draws, bit
        for bit, and each row is one call for Philox words: the words before
        a start inside a counter are drawn with the row and dropped."""
        widths = [0, 1, 3, 4, 5, 17]
        reps = [9, 2, 2 ** 40, 0, 7, 3]
        draws = RekeyedDraws(2026)

        class Counting:
            def __init__(self, bits):
                self.bits, self.calls = bits, 0

            state = property(lambda self: self.bits.state,
                             lambda self, value: setattr(self.bits, "state", value))

            def random_raw(self, size):
                self.calls += 1
                return self.bits.random_raw(size)

        draws._bits = counting = Counting(draws._bits)
        for start in range(8):
            rows = draws.rows(reps, OPERATOR_STREAM, start, widths)
            for row, rep, width in zip(rows, reps, widths):
                whole = gaussian_draws(2026, rep, OPERATOR_STREAM, start + width)
                assert row[:width].tobytes() == whole[start:start + width].tobytes()
        assert counting.calls == 8 * len(reps)

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


@st.composite
def _table_requests(draw):
    """A chunk [lo, hi), a table width up to 64, and a sequence of requests:
    sorted subsets of the chunk's reps (now and then one rep outside it),
    streams 1 to 3, starts 0 to 70 and widths from 0 to past 64."""
    lo = draw(st.integers(0, 2 ** 40) | st.integers(0, 20))
    hi = lo + draw(st.integers(1, 40))
    reps = st.integers(lo, hi - 1) | st.integers(max(lo - 2, 0), hi + 1)
    requests = []
    for _ in range(draw(st.integers(1, 8))):
        rows = sorted(draw(st.sets(reps, min_size=1, max_size=hi - lo + 2)))
        top = draw(st.sampled_from([0, 1, 4, 16, 63, 64, 80]))
        widths = draw(st.lists(st.integers(0, top), min_size=len(rows), max_size=len(rows)))
        requests.append((rows, draw(st.integers(1, 3)), draw(st.integers(0, 70)), widths))
    return lo, hi, draw(st.integers(1, 64)), requests


class TestChunkDraws:
    """A chunk's table of draws serves the rows RekeyedDraws draws, bit for
    bit, each row drawn once."""

    @settings(max_examples=150, deadline=None)
    @given(case=_table_requests(), seed=st.integers(0, 2 ** 128 - 1))
    def test_every_row_is_rekeyed_draws_row(self, case, seed):
        lo, hi, width, requests = case
        table, rekeyed = _ChunkDraws(seed, lo, hi, width), RekeyedDraws(seed)
        for reps, stream, start, widths in requests:
            rows = table.rows(reps, stream, start, widths)
            expected = rekeyed.rows(reps, stream, start, widths)
            assert rows.shape == expected.shape
            assert np.isfinite(rows).all()
            for row, want, w in zip(rows, expected, widths):
                assert row[:w].tobytes() == want[:w].tobytes()

    def test_each_row_is_drawn_once(self, monkeypatch):
        """A row is drawn at its first request, the table's full width; a
        request that fits the table draws no row it holds, and one past its
        width draws as RekeyedDraws does."""
        calls = []
        words = RekeyedDraws._words

        def counted(self, reps, stream, start, widths):
            calls.append((list(reps), stream, start, list(widths)))
            return words(self, reps, stream, start, widths)

        monkeypatch.setattr(RekeyedDraws, "_words", counted)
        table = _ChunkDraws(7, 10, 20, 6)
        table.rows(range(10, 14), OPERATOR_STREAM, 0, [2] * 4)
        table.rows([11, 12, 15], OPERATOR_STREAM, 1, [5, 0, 3])
        table.rows(range(10, 20), OPERATOR_STREAM, 0, [6] * 10)
        table.rows([12, 13], SIGNAL_STREAM, 0, [4, 1])
        assert calls == [([10, 11, 12, 13], OPERATOR_STREAM, 0, [6] * 4),
                         ([15], OPERATOR_STREAM, 0, [6]),
                         ([14, 16, 17, 18, 19], OPERATOR_STREAM, 0, [6] * 5),
                         ([12, 13], SIGNAL_STREAM, 0, [6, 6])]
        calls.clear()
        table.rows([12, 13], OPERATOR_STREAM, 4, [3, 1])  # past the width
        table.rows([9, 12], OPERATOR_STREAM, 0, [3, 1])  # a rep outside the chunk
        assert calls == [([12, 13], OPERATOR_STREAM, 4, [3, 1]),
                         ([9, 12], OPERATOR_STREAM, 0, [3, 1])]

    @pytest.mark.parametrize("call, message", [
        (lambda table: table.rows([10, 1.5], 1, 0, [3, 3]), "rep must be an integer, got 1.5"),
        (lambda table: table.rows([10], 1, -4, [3]), "start must lie in [0, 2**66), got -4"),
        (lambda table: table.rows([10], 2 ** 64, 0, [3]), "stream must lie in [0, 2**64)"),
        (lambda table: table.rows([10, 11], 1, 0, [3, -1]), "width must lie in [0, 2**64)"),
        (lambda table: table.rows([10, 11], 1, 0, [3]), "reps and widths differ in length"),
    ], ids=["rep", "start", "stream", "width", "lengths"])
    def test_arguments_are_checked_as_rekeyed_draws_checks_them(self, call, message):
        with pytest.raises(ValueError) as raised:
            call(_ChunkDraws(7, 10, 20, 6))
        assert str(raised.value).startswith(message)


def clamped_uniforms(top_bits):
    """The uniform each 53-bit value of a word maps to: its interval's
    centre, the top one clamped to 1 - 2**-53."""
    return np.minimum(top_bits * 2.0 ** -53 + 2.0 ** -54, 1.0 - 2.0 ** -53)


class TestNdtriPort:
    """The inverse normal CDF is a port of Cephes ndtri and must equal
    scipy.special.ndtri, the oracle here and nowhere in the package, bit for
    bit over its domain [2**-54, 1 - 2**-53].  A port that took numpy's log in
    the tails differs in the last bit on a few hundred of the Philox words."""

    @staticmethod
    def assert_same_bits(port, u):
        oracle = ndtri(u)
        assert port.shape == oracle.shape
        mismatches = np.count_nonzero(port.view(np.uint64) != oracle.view(np.uint64))
        assert mismatches == 0, f"{mismatches} of {u.size} differ from scipy.special.ndtri"

    @pytest.mark.parametrize("point", [math.exp(-2), 1 - math.exp(-2), math.exp(-32),
                                       1 - math.exp(-32)],
                             ids=["exp(-2)", "1-exp(-2)", "exp(-32)", "1-exp(-32)"])
    def test_every_double_near_a_branch_point(self, point):
        """The centre's two edges and the x = 8 switch between the tail
        approximations, each with every double of the domain within 2**16
        ulps of it (near 1 they reach past 1 - 2**-53)."""
        bits = np.array([point]).view(np.int64) + np.arange(-2 ** 16, 2 ** 16 + 1)
        u = bits.view(np.float64)
        u = u[u <= 1.0 - 2.0 ** -53]
        self.assert_same_bits(_ndtri(u.copy()), u)

    def test_the_words_at_either_end(self):
        """The 2**20 smallest and largest 53-bit values through the whole
        word transform.  They hold the only ones past x = 8, where the far
        tail's approximation takes over: 114 at each end."""
        low = np.arange(2 ** 20, dtype=np.uint64)
        for top in (low, np.uint64(2 ** 53 - 1) - low):
            self.assert_same_bits(_gaussian(top << np.uint64(11)), clamped_uniforms(top))

    def test_philox_words(self):
        words = Philox(key=2026).random_raw(2 ** 22)
        self.assert_same_bits(_gaussian(words), clamped_uniforms(words >> np.uint64(11)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=2.0 ** -54, max_value=1.0 - 2.0 ** -53),
                    min_size=1, max_size=40))
    def test_any_uniform_in_the_domain(self, us):
        u = np.array(us)
        self.assert_same_bits(_ndtri(u.copy()), u)


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

    @settings(max_examples=300, deadline=None)
    @given(case=_two_point_cases())
    @example(case=(RegimeSpec.from_name("mild-super", s=1.1335, c_a=0.0224), 3.1e-46, 0.05,
                   0.5, 100_000))
    @example(case=(RegimeSpec.from_name("mild-super", s=1000.0), 0.0, 0.25, 0.5, 2303))
    def test_pair_is_exact_or_refused(self, case):
        """Anywhere in the domain the pair puts 0.5 / a_d at d (exactly where
        a_d is a float, within 1e-9 relative and two subnormal steps where a_d
        passes the float range) and shifts it by the relative shift, or the
        construction is refused with a typed error, and no numpy warning is
        emitted."""
        spec, sigma, alpha, beta, d = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                theta0, theta = make_two_point_pair(spec, NoiseLevels(0.0, sigma), alpha, beta, d)
            except GsmGofError:
                return
        assert len(theta0) == len(theta) == d
        assert not (theta0.coefficients[:-1].any() or theta.coefficients[:-1].any())
        base = theta.coefficients[-1]
        weight = _weight_times(spec, d, 1.0)
        if isinstance(weight, float):
            assert base == 0.5 / weight
        else:
            exact = Decimal(0.5) / weight
            assert abs(Decimal(base) - exact) <= exact * Decimal("1e-9") + Decimal(1e-323)
        if sigma == 0.0:
            assert theta0.coefficients[-1] == base
        else:
            shift = two_point_shift_constant(spec, sigma, alpha, beta, d)
            relative = shift * sigma / b_value(spec, d)
            assert 0.0 <= relative <= 1.0  # 0 where shift * sigma underflows
            assert theta0.coefficients[-1] == base + relative * base

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
    def test_index_is_the_brute_force_maximum(self, regime, s):
        """spike_index is max{d <= j_max : a_d * r <= 1}, also at radii so
        small that 1/(c_a*r), or its power, leaves the float range, and past
        the d where a_d does (e**710 at s = 1 carries a bump of norm 1e-320)."""
        spec = RegimeSpec.from_name(regime, s=s)
        for j_max in (1, 100, 1000):
            for r in (5e-324, 1e-320, 1e-300, 1e-40, 1e-5, 0.01, 0.5, 1.0):
                admitted = [d for d in range(1, j_max + 1) if _weight_times(spec, d, r) <= 1]
                if admitted:
                    assert spike_index(spec, r, j_max) == max(admitted), (j_max, r)
                else:
                    with pytest.raises(InfeasibleRadiusError):
                        spike_index(spec, r, j_max)

    @settings(max_examples=300, deadline=None)
    @given(case=_spike_cases())
    @example(case=(RegimeSpec.from_name("mild-super"), 1e-310, 10_000))
    def test_index_is_exact_or_refused(self, case):
        """Anywhere in the domain spike_index returns max{d <= j_max : a_d *
        r <= 1}, or refuses the radius when d = 1 does not carry it, and
        emits no numpy warning; a_d may pass the float range first."""
        spec, r, j_max = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                d = spike_index(spec, r, j_max)
            except InfeasibleRadiusError:
                assert _admits(spec, 1, r) is not True
                return
        assert 1 <= d <= j_max and _admits(spec, d, r) is not False
        assert d == j_max or _admits(spec, d + 1, r) is not True

    def test_index_past_where_the_weight_overflows(self, capsys):
        """e**713 * 1e-310 <= 1 < e**714 * 1e-310, though e**710 is past the
        float range; power-curve prints that spike_dim, with no warning."""
        mild_super = RegimeSpec.from_name("mild-super")
        assert spike_index(mild_super, 1e-310, 10_000) == 713
        argv = ["power-curve", "--regime", "mild-super", "--radii", "1e-310", "--reps", "100",
                "--jmax", "2000", "--workers", "1", "--format", "json"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["rows"][0]["spike_dim"] == 713 and err == ""

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
