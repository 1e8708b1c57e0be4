"""Monte Carlo harness: error estimates, radius search, rate fits, concentration checks."""

import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gsmgof import cli, gsm, montecarlo, runner, sequences, testproc
from gsmgof import (
    KAPPA_DEFAULT,
    OPERATOR_STREAM,
    SIGNAL_STREAM,
    BracketingError,
    DegenerateObservationError,
    ErrorEstimate,
    ExperimentPlan,
    NoiseLevels,
    RegimeSpec,
    Signal,
    TestConfig,
    bandwidth_bracket,
    bandwidth_escape_bound,
    check_bandwidth_containment,
    check_quadform_concentration,
    default_j_max,
    empirical_bandwidth,
    empirical_separation_radius,
    estimate_alpha,
    estimate_beta,
    fit_rate_slope,
    gaussian_draws,
    make_spike_alternative,
    make_two_point_pair,
    run_test,
    scan_envelope,
    simulate,
    spike_index,
    statistic,
)
from gsmgof.montecarlo import (
    _build_radius_cache,
    _joined,
    _reject_counts,
    _rejections,
    _replications,
    _starts,
)
from gsmgof.gsm import DRAW_BOUND
from gsmgof.runner import _chunk_ranges
from gsmgof.sequences import a_value, b_vector
from gsmgof.testproc import Bandwidth, TestReport, _decide, _parts_from_sums, _threshold_totals

REGIMES = ("mild-ordinary", "mild-super", "severe-ordinary", "severe-super")


def fix_threshold(monkeypatch, cutoff):
    """Make every in-process test run reject exactly when statistic > cutoff
    (the Monte Carlo loops read every outcome from the kernel)."""
    real = montecarlo._replications

    def fixed(*args):
        for outcomes in real(*args):
            yield outcomes._replace(threshold=np.full(outcomes.threshold.shape, cutoff))

    monkeypatch.setattr(montecarlo, "_replications", fixed)


def fix_radius(monkeypatch, radius_fn):
    """Replace the separation-radius bisection by radius_fn(plan, epsilon)."""
    monkeypatch.setattr(montecarlo, "_bisect",
                        lambda cache, plan, *args: radius_fn(plan, plan.noise.epsilon))


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

    @pytest.mark.parametrize("field, value, message", [
        ("n_reps", 100.9, "n_reps must be an integer, got 100.9"),
        ("seed", 3.9, "master_seed must be an integer, got 3.9"),
        ("seed", math.inf, "master_seed must be an integer, got inf"),
        ("seed", 2 ** 128, f"master_seed must lie in [0, 2**128), got {2 ** 128}"),
    ], ids=["n_reps", "seed", "infinite-seed", "seed-past-the-key"])
    def test_plan_refuses_what_int_would_truncate_and_a_seed_past_the_key(self, field, value,
                                                                          message):
        with pytest.raises(ValueError) as info:
            make_plan(**{field: value})
        assert str(info.value) == message

    def test_plan_takes_integral_floats_and_the_largest_key(self):
        plan = make_plan(n_reps=1e2, seed=2 ** 128 - 1)
        assert (plan.n_reps, plan.master_seed) == (100, 2 ** 128 - 1)
        assert type(plan.n_reps) is int

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


def assert_refused(case, message):
    """make_plan(**case) raises a ValueError with exactly this message."""
    with pytest.raises(ValueError) as info:
        make_plan(**case)
    assert str(info.value) == message


def _outcome(fn):
    """repr of fn()'s result, or the type and message of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return f"{type(exc).__name__}: {exc}"


def _reference(plan, theta, rep):
    """simulate + run_test: the report and the windows of x and y it read."""
    obs = simulate(theta, plan.spec, plan.noise, plan.master_seed, plan.config.j_max, rep=rep)
    report = run_test(obs, plan.theta0, plan.spec, plan.noise, plan.config)
    return report, obs.x[:report.window].tobytes(), obs.y[:report.window].tobytes()


def reports(outcomes, j_max):
    """Each replication's TestReport rebuilt from the kernel's columns, with
    its windows of x, y and epsilon*xi: it rejects where statistic >
    threshold, and its bandwidth is truncated where it is the horizon."""
    for i, (lo, w) in enumerate(zip(_starts(outcomes.width).tolist(), outcomes.width.tolist())):
        report = TestReport(bandwidth=int(outcomes.bandwidth[i]), window=w,
                            statistic=float(outcomes.statistic[i]),
                            threshold=float(outcomes.threshold[i]),
                            reject=bool(outcomes.statistic[i] > outcomes.threshold[i]),
                            degenerate=w == 0,
                            bandwidth_truncated=bool(outcomes.bandwidth[i] == j_max))
        yield report, outcomes.x[lo:lo + w], outcomes.y[lo:lo + w], outcomes.eps_xi[lo:lo + w]


def column(bands):
    """Bandwidths as the kernel's column m."""
    return np.array([band.value for band in bands])


def _kernel(plan, theta, rep):
    [outcomes] = _replications(plan, theta, rep, rep + 1)
    [(report, x_win, y_win, eps_xi_win)] = reports(outcomes, plan.config.j_max)
    assert eps_xi_win.shape == y_win.shape == (report.window,)
    return report, x_win.tobytes(), y_win.tobytes()


def assert_kernel_matches_reference(plan, theta):
    """Every replication's report (or error) and windows equal those of
    simulate + run_test, bit for bit."""
    for rep in range(plan.n_reps):
        expected = _outcome(lambda: _reference(plan, theta, rep))
        assert _outcome(lambda: _kernel(plan, theta, rep)) == expected, rep


def reference_estimate(plan, theta, second_kind):
    reports = [_reference(plan, theta, rep)[0] for rep in range(plan.n_reps)]
    n_reject = sum(report.reject for report in reports)
    count = plan.n_reps - n_reject if second_kind else n_reject
    return ErrorEstimate.from_counts(count, plan.n_reps,
                                     sum(report.degenerate for report in reports))


class TestKernel:
    """The Monte Carlo loops draw only what the test reads; every report, error
    and estimate must equal the reference path simulate + run_test."""

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_reports_match_reference(self, regime, sigma):
        for j_max in (1, 63, 64, 65, 200):
            plan = make_plan(spec=RegimeSpec.from_name(regime), sigma=sigma, j_max=j_max)
            assert_kernel_matches_reference(plan, plan.theta0)

    @pytest.mark.parametrize("case", [
        dict(epsilon=0.0),
        dict(dimension=3),
        dict(dimension=70),
        dict(sigma=0.5),
        dict(sigma=0.9),
    ], ids=json.dumps)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_reports_match_reference_on_other_plans(self, regime, case):
        case = {"sigma": 1e-3, **case}
        for j_max in (1, 64, 65, 200):
            plan = make_plan(spec=RegimeSpec.from_name(regime), j_max=j_max, **case)
            assert_kernel_matches_reference(plan, plan.theta0)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_reports_match_reference_on_a_two_point_pair(self, regime):
        spec = RegimeSpec.from_name(regime)
        theta0, theta = make_two_point_pair(spec, NoiseLevels(1e-3, 1e-3), 0.05, 0.5, d=2)
        plan = make_plan(spec=spec, epsilon=1e-3, sigma=1e-3, theta0=theta0)
        assert_kernel_matches_reference(plan, theta0)
        assert_kernel_matches_reference(plan, theta)

    # (case, refusal): the plan of a case outside the test's domain is refused
    # when it is built, with that message; the reference path raises on the
    # others, and so must the kernel
    @pytest.mark.parametrize("case, refusal", [
        (dict(theta0=Signal.zeros(201)), None),  # theta does not fit inside the horizon
        (dict(sigma=0.0), "sigma must lie in (0, 1), got 0.0"),
        (dict(sigma=1.5), "sigma must lie in (0, 1), got 1.5"),
        (dict(epsilon=1e308), "epsilon=1e+308 squared exceeds the float range"),
        (dict(sigma=1e308), "sigma must lie in (0, 1), got 1e+308"),
        (dict(sigma=5e307, j_max=10_000), "sigma must lie in (0, 1), got 5e+307"),
        (dict(epsilon=1e308, sigma=1e308), "sigma must lie in (0, 1), got 1e+308"),
        (dict(theta0=Signal([1e308] * 5), epsilon=1e307),
         "epsilon=1e+307 squared exceeds the float range"),
        (dict(theta0=Signal([1e308] * 5), epsilon=0.0,  # b * theta overflows: y is not finite
              spec=RegimeSpec("mild", "ordinary", 1.0, 1.0, c_b=10.0)), None),
    ], ids=["long-theta", "zero-sigma", "large-sigma", "huge-epsilon", "huge-sigma",
            "huge-sigma-deep", "huge-both", "huge-theta", "overflowing-theta"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_errors_match_reference(self, case, refusal):
        if refusal is not None:
            assert_refused(case, refusal)
            return
        plan = make_plan(**case)
        assert_kernel_matches_reference(plan, plan.theta0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_match_a_reference_loop(self, workers):
        spec = RegimeSpec.from_name("mild-ordinary")
        theta0, theta = make_two_point_pair(spec, NoiseLevels(0.05, 0.05), 0.05, 0.5, d=2)
        for sigma in (0.05, 1e-4):
            plan = make_plan(epsilon=0.05, sigma=sigma, n_reps=150, j_max=200, seed=9,
                             theta0=theta0)
            assert estimate_alpha(plan, workers) == reference_estimate(plan, theta0, False)
            assert estimate_beta(plan, theta, workers) == reference_estimate(plan, theta, True)


def serial_outcomes(plan, theta, lo, hi):
    """simulate + run_test, one replication at a time: each report with the
    windows of x, y and epsilon*xi it read, up to the first error."""
    def one(rep):
        report, x_win, y_win = _reference(plan, theta, rep)
        w = report.window
        eps = plan.noise.epsilon
        eps_xi = eps * gaussian_draws(plan.master_seed, rep, SIGNAL_STREAM, w) \
            if eps > 0.0 and w > 0 else np.zeros(w)
        return report, x_win, y_win, eps_xi.tobytes()

    out = []
    for rep in range(lo, hi):
        out.append(_outcome(lambda: one(rep)))
        if not out[-1].startswith("("):
            break
    return out


def batch_outcomes(plan, theta, lo, hi):
    """The same from one kernel pass over [lo, hi), row group by row group:
    the outcomes of each group it finishes, then the error it raises."""
    out = []
    try:
        for outcomes in _replications(plan, theta, lo, hi):
            out.extend(repr((report, x_win.tobytes(), y_win.tobytes(), eps_xi_win.tobytes()))
                       for report, x_win, y_win, eps_xi_win in reports(outcomes,
                                                                       plan.config.j_max))
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def assert_batch_matches_serial(plan, theta, lo, hi):
    """The kernel's outcomes over [lo, hi) are the serial loop's.  Where that
    loop raises at replication i, the kernel's outcomes over [lo, i) are its
    outcomes there, and the kernel raises its error over [lo, hi)."""
    serial = serial_outcomes(plan, theta, lo, hi)
    done = len(serial) - (not serial[-1].startswith("("))
    assert batch_outcomes(plan, theta, lo, lo + done) == serial[:done]
    if done < len(serial):
        assert batch_outcomes(plan, theta, lo, hi)[-1] == serial[-1]


# (j_max, chunk): chunks of 1, 63, 64, 65 and 200 replications that do not
# start at 0, at horizons on either side of the first scan block, and one
# chunk of two row groups
CHUNKS = [(1, (7, 8)), (63, (1, 64)), (64, (100, 164)), (65, (3, 68)), (200, (11, 211)),
          (200, (1, 301))]


class TestBatch:
    """The kernel decides a chunk's replications a row group at a time; every
    report, window and error must be the serial reference loop's."""

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_chunks_match_serial_loop(self, regime, sigma):
        for j_max, (lo, hi) in CHUNKS:
            plan = make_plan(spec=RegimeSpec.from_name(regime), sigma=sigma, j_max=j_max)
            assert_batch_matches_serial(plan, plan.theta0, lo, hi)

    @pytest.mark.parametrize("case", [
        dict(epsilon=0.0),
        dict(epsilon=1e-6, sigma=1e-3),
        dict(dimension=3),
        dict(dimension=70),
        dict(sigma=0.5),
        dict(sigma=1e-310),  # subnormal
        dict(theta=Signal([-0.0, 0.5, -0.25])),  # a negative zero stays negative in y
        dict(theta=Signal([-0.0, 0.5, -0.25]), epsilon=0.0),
        # a zero deviation weight leaves every argmin uncertain, so each row
        # whose bandwidth lies past the head reads x past it.  In the mild
        # regimes no scan triggers below a horizon of 65 at either sigma, so
        # every row reads x up to it.  At 200, every 1.3e-4 scan ends past
        # the 16-column head (in mild-ordinary, with windows of 8 widths), and
        # the 2.4e-4 bandwidths straddle the 64-column head in both row
        # groups of the 300-replication chunk
        dict(epsilon=0.0, sigma=1.3e-4),
        dict(epsilon=0.0, sigma=2.4e-4),
    ], ids=["zero-epsilon", "small-epsilon", "dimension-3", "dimension-70", "large-sigma",
            "subnormal-sigma", "signed-theta", "signed-theta-zero-epsilon", "far-rows",
            "far-and-near-rows"])
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_chunks_match_serial_loop_on_other_plans(self, regime, case):
        case = {"sigma": 1e-3, **case}
        theta = case.pop("theta", None)
        for j_max, (lo, hi) in CHUNKS[1:]:
            plan = make_plan(spec=RegimeSpec.from_name(regime), j_max=j_max, **case)
            target = plan.theta0 if theta is None else theta
            assert_batch_matches_serial(plan, target, lo, hi)

    def test_decisions_match_the_reference_step_on_any_prefix(self):
        """Row by row, the batched decision equals testproc's own step on
        prefixes and bandwidths no scan would produce, so the dimension
        objective past a row's bandwidth is never read."""
        rng = np.random.default_rng(5)
        reps = range(9, 69)
        for dimension in (None, 4):
            plan = make_plan(epsilon=1e-3, sigma=1e-3, j_max=40, dimension=dimension)
            x = rng.choice([-1.0, 1.0], (60, 40)) * 10.0 ** rng.uniform(-4.0, 2.0, (60, 40))
            bands = [Bandwidth(int(m), bool(m == 40)) for m in rng.integers(0, 41, 60)]
            kernel = montecarlo._Kernel(plan, plan.theta0)
            decided = reports(kernel.decide(reps, x, column(bands)), 40)
            for rep, row, band, (report, x_win, y_win, _) in zip(reps, x, bands, decided,
                                                                  strict=True):
                y = simulate(plan.theta0, plan.spec, plan.noise, plan.master_seed, 40, rep=rep).y
                expected = _decide(band, row, y, plan.theta0, plan.spec, plan.noise, plan.config)
                assert repr(report) == repr(expected)
                assert x_win.tobytes() == row[:report.window].tobytes()
                assert y_win.tobytes() == y[:report.window].tobytes()

    @pytest.mark.parametrize("epsilon, sigma, head, outcome", [
        # x**-4 is ~0 past the prefix, so the bias alone keeps falling to d = 40
        (1e-3, 1e-3, [1.0] * 15 + [0.0933] + [1e3] * 24, "TestReport(bandwidth=40, window=40,"),
        # a zero weight: x**-4 = inf at d = 20 makes the objective NaN there
        (0.0, 0.3, [1.0] * 19 + [1e-80] + [1.0] * 20, "ValueError: the threshold is not finite"),
    ], ids=["bias-past-the-prefix", "zero-weight"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_an_argmin_past_the_prefix_is_not_taken_as_certain(self, epsilon, sigma, head,
                                                               outcome):
        """Hand-made prefixes whose objective's argmin lies past the first 16
        coordinates, although the prefix's minimum (d = 15, or d = 3 where
        the bias is flat) is at most the objective at d = 17."""
        plan = make_plan(epsilon=epsilon, sigma=sigma, j_max=40)
        x, band = np.array(head), Bandwidth(40, True)
        y = simulate(plan.theta0, plan.spec, plan.noise, plan.master_seed, 40).y
        expected = _outcome(lambda: _decide(band, x, y, plan.theta0, plan.spec, plan.noise,
                                            plan.config))
        assert expected.startswith(outcome)
        kernel = montecarlo._Kernel(plan, plan.theta0)

        def decided():
            return next(reports(kernel.decide([0], x[None], column([band])), 40))[0]

        assert _outcome(decided) == expected

    # Rows of hand-made prefixes (x[:30], dimension 35, theta0 1e300 at
    # coordinate 25, no noise on y): "ok" and "threshold" (x_4 = 1e-160, so
    # x**-2 overflows and eps^2 * inf is NaN) have windows of 10, "statistic"
    # and "both" (x_4 = 1e-160 too) of 28, where the statistic overflows;
    # "alone" has a bandwidth of 38, so its window of 35 reads x past the
    # head, and its statistic overflows there.
    ERROR_ROWS = {"ok": (10, None), "threshold": (10, 1e-160), "statistic": (28, None),
                  "both": (28, 1e-160), "alone": (38, None)}

    @pytest.mark.parametrize("kinds", [
        "ok,alone,threshold", "ok,threshold,alone", "alone,threshold", "ok,both,threshold",
        "threshold,statistic", "ok,statistic,alone,both", "ok,alone,ok,threshold",
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_the_first_error_in_row_order_is_raised(self, kinds):
        """A row group's error is the serial loop's first, however rows read
        from the head or past it and statistic and threshold errors
        interleave, and within a row the statistic's comes first."""
        plan = make_plan(epsilon=0.0, sigma=1e-3, j_max=40, dimension=35,
                         theta0=Signal([0.0] * 24 + [1e300]))
        target = Signal.zeros(0)
        b = b_vector(plan.spec, 40)
        reps = range(3, 3 + len(kinds.split(",")))
        head, bands, serial = [], [], []
        for rep, kind in zip(reps, kinds.split(",")):
            m, tiny = self.ERROR_ROWS[kind]
            x = simulate(target, plan.spec, plan.noise, plan.master_seed, 40, rep=rep).x
            if kind != "alone":
                x = b.copy()
                if tiny is not None:
                    x[3] = tiny
            head.append(x[:30])
            bands.append(Bandwidth(m, False))
            serial.append(_outcome(lambda: _decide(bands[-1], x, np.zeros(40), plan.theta0,
                                                   plan.spec, plan.noise, plan.config)))
        first = next(outcome for outcome in serial if not outcome.startswith("TestReport("))
        kernel = montecarlo._Kernel(plan, target)
        assert _outcome(lambda: kernel.decide(reps, np.array(head), column(bands))) == first

    @pytest.mark.parametrize("stream", [SIGNAL_STREAM, OPERATOR_STREAM],
                             ids=["signal", "operator"])
    def test_the_all_ones_word_draws_what_the_serial_loop_draws(self, monkeypatch, stream):
        """A raw word of all ones (chance 2**-53 a draw) draws the largest
        draw, ndtri(1 - 2**-53).  Planted as the first draw of one stream of
        replication 20, it gives the kernel the outcomes of simulate +
        run_test over every replication, with no error."""
        real = gsm.RekeyedDraws._words
        planted = []

        def words(self, reps, tag, start, widths):
            out = real(self, reps, tag, start, widths)
            for rep, row in zip(reps, out):
                if (rep, tag, start) == (20, stream, 0) and row.size:
                    row[0] = 2 ** 64 - 1
                    planted.append(row.size)
            return out

        monkeypatch.setattr(gsm.RekeyedDraws, "_words", words)
        plan = make_plan()
        outcomes = batch_outcomes(plan, plan.theta0, 0, 64)
        assert planted
        assert outcomes == serial_outcomes(plan, plan.theta0, 0, 64)
        assert len(outcomes) == 64 and all(outcome.startswith("(") for outcome in outcomes)

    @settings(max_examples=60, deadline=None)
    @given(regime=st.sampled_from(REGIMES), s=st.floats(0.25, 3.0), t=st.floats(0.25, 3.0),
           epsilon=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2, 0.3]),
           sigma=st.floats(-7.0, -0.05).map(lambda e: 10.0 ** e),
           j_max=st.integers(1, 300), dimension=st.none() | st.integers(1, 80),
           spike=st.tuples(st.integers(0, 4), st.floats(-1.0, 1.0)),
           lo=st.integers(0, 2 ** 40), size=st.integers(1, 80))
    def test_property_matches_serial_loop(self, regime, s, t, epsilon, sigma, j_max,
                                          dimension, spike, lo, size):
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        plan = make_plan(spec=spec, epsilon=epsilon, sigma=sigma, j_max=j_max,
                         dimension=dimension, seed=lo % 97)
        k, r = spike
        theta = Signal(np.eye(1, min(k + 1, j_max), min(k, j_max - 1))[0] * r)
        for target in (plan.theta0, theta):
            assert_batch_matches_serial(plan, target, lo, lo + size)

    @settings(max_examples=40, deadline=None)
    @given(regime=st.sampled_from(REGIMES),
           s=st.floats(-1.5, 1.5).map(lambda e: 10.0 ** e),
           t=st.floats(-1.5, 1.5).map(lambda e: 10.0 ** e),
           epsilon=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2, 0.3]),
           sigma=st.floats(-9.0, -0.05).map(lambda e: 10.0 ** e),
           j_max=st.integers(301, 1500), dimension=st.none() | st.integers(1, 400),
           spike=st.tuples(st.integers(0, 80), st.floats(-1.0, 1.0)),
           lo=st.integers(0, 2 ** 40), size=st.integers(1, 40))
    # one row group of windows 57 to 72 wide
    @example(regime="mild-ordinary", s=0.1, t=0.1, epsilon=1e-2, sigma=1e-2, j_max=400,
             dimension=None, spike=(3, 0.5), lo=0, size=40)
    def test_property_matches_serial_loop_on_wide_plans(self, regime, s, t, epsilon, sigma,
                                                        j_max, dimension, spike, lo, size):
        """As above, with s and t from 0.03 to 30 and horizons past 300, so
        that a row group can hold windows wider than the 64 columns whose
        sums are certified, which math.fsum sums one by one."""
        spec = RegimeSpec.from_name(regime, s=s, t=t)
        plan = make_plan(spec=spec, epsilon=epsilon, sigma=sigma, j_max=j_max,
                         dimension=dimension, seed=lo % 97)
        k, r = spike
        theta = Signal(np.eye(1, k + 1, k)[0] * r)
        for target in (plan.theta0, theta):
            assert_batch_matches_serial(plan, target, lo, lo + size)

    # (case, refusal): the serial loop over each case's replications would
    # first raise where the named value overflows
    @pytest.mark.parametrize("case, refusal", [
        (dict(sigma=1e308, j_max=3), "sigma must lie in (0, 1), got 1e+308"),  # x
        (dict(epsilon=1e308, sigma=0.5, j_max=1),  # y
         "epsilon=1e+308 squared exceeds the float range"),
        (dict(epsilon=1e200, sigma=0.023, j_max=50),  # epsilon**2
         "epsilon=1e+200 squared exceeds the float range"),
        (dict(epsilon=1e160, sigma=0.023, j_max=50, dimension=3),  # the statistic
         "epsilon=1e+160 squared exceeds the float range"),
    ], ids=["x", "y", "epsilon-squared", "statistic"])
    def test_first_error_of_a_chunk_is_the_serial_loops(self, case, refusal):
        """A plan whose replications would raise from an overflowing sigma or
        epsilon lies outside the test's domain: it is refused when built,
        before any chunk runs."""
        assert_refused(case, refusal)

    def test_first_error_of_a_chunk_is_the_serial_loops_when_the_threshold_overflows(self):
        """epsilon**2 is finite, so the plan is built, but the threshold is
        not: both paths refuse it at the same replication."""
        plan = make_plan(epsilon=1.3e154, sigma=0.023, j_max=50)
        serial = serial_outcomes(plan, plan.theta0, 5, 300)
        assert len(serial) > 1
        assert serial[-1].startswith("ValueError: the threshold is not finite")
        assert_batch_matches_serial(plan, plan.theta0, 5, 300)

    def test_a_window_sum_past_the_float_range_refuses_the_threshold(self):
        """At t = 20 and sigma 1e-80 the x_j of a window of 8000 lie near
        j**-20: their x**-4 overflow, or each stays finite while their sum
        does not.  Both paths refuse the threshold of the first replication."""
        plan = make_plan(spec=RegimeSpec.from_name("mild-ordinary", t=20), sigma=1e-80,
                         j_max=10_000, dimension=8000)
        serial = serial_outcomes(plan, plan.theta0, 0, 100)
        assert serial == [batch_outcomes(plan, plan.theta0, 0, 100)[0]]
        assert serial[0].startswith("ValueError: the threshold is not finite")
        with pytest.raises(ValueError, match="the threshold is not finite"):
            estimate_alpha(plan)

    @pytest.mark.parametrize("t, epsilon, sigma, j_max, k", [
        (1.0, 1e-2, 1e-4, 1000, 131),  # start 131: the scan's batched block
        (0.25, 0.1, 2.8e-3, 470, 460),  # start 390: every scan runs on past 454
        (0.25, 1e-2, 2.8e-3, 470, 100),  # the window needs x up to the bandwidth
        (1.0, 1e-2, 1e-4, 1000, 50),  # below start, a coordinate the kernel never draws
    ], ids=["batched-block", "deeper-block", "below-start", "skipped-coordinate"])
    def test_the_all_ones_word_past_the_first_block_matches_the_serial_loop(
            self, monkeypatch, t, epsilon, sigma, j_max, k):
        """The scan starts at `start`, past the first 64 coordinates.  The
        all-ones word planted at coordinate k of replication 20 leaves every
        outcome that of simulate + run_test, whichever draw reads k: the
        scan's batched block, a block drawn after it (the window being
        certain from the first 16 coordinates), x up to the bandwidth, drawn
        below start where the window is not certain, or none (k between the
        objective's prefix and start, which only simulate draws)."""
        plan = make_plan(spec=RegimeSpec.from_name("mild-ordinary", t=t), epsilon=epsilon,
                         sigma=sigma, j_max=j_max)
        start = montecarlo._Kernel(plan, plan.theta0).start
        assert 64 <= start and start + 64 < j_max
        real = gsm.RekeyedDraws._words

        def words(self, reps, tag, lo, widths):
            out = real(self, reps, tag, lo, widths)
            for rep, row in zip(reps, out):
                if rep == 20 and tag == OPERATOR_STREAM and lo <= k < lo + row.size:
                    row[k - lo] = 2 ** 64 - 1
            return out

        monkeypatch.setattr(gsm.RekeyedDraws, "_words", words)
        outcomes = batch_outcomes(plan, plan.theta0, 0, 64)
        assert outcomes == serial_outcomes(plan, plan.theta0, 0, 64)
        assert len(outcomes) == 64 and all(outcome.startswith("(") for outcome in outcomes)

    def test_working_set_stays_small_when_every_scan_runs_to_the_horizon(self):
        """No index below the horizon can trigger, so each row group draws
        only the objective's 16-column prefix of x and the signal windows:
        nowhere near a chunk-by-horizon matrix (500 x 10 000 floats is 40 MB)."""
        plan = make_plan(epsilon=1e-2, sigma=1e-6, j_max=10_000, n_reps=500)
        assert all((outcomes.bandwidth == 10_000).all()
                   for outcomes in _replications(plan, plan.theta0, 0, 5))
        tracemalloc.start()
        try:
            _reject_counts(plan, plan.theta0, 0, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestColumns:
    """The kernel's unit of output is a row group's columns: no TestReport is
    built per replication, and the thresholds of a group come from one numpy
    pass equal to _parts_from_sums row by row."""

    def test_counting_builds_no_report(self, monkeypatch):
        spec = RegimeSpec.from_name("severe-ordinary")
        plan = make_plan(spec=spec, epsilon=1e-2, sigma=8.4e-3, n_reps=500, j_max=200, seed=4)
        expected = reference_estimate(plan, plan.theta0, False)
        assert 0 < expected.n_degenerate < plan.n_reps

        def refuse(*args, **kwargs):
            raise AssertionError("a TestReport was built")

        for name in ("_decide", "TestReport"):
            monkeypatch.setattr(testproc, name, refuse)
        counts = _reject_counts(plan, plan.theta0, 0, plan.n_reps)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        assert counts == (round(expected.p_hat * plan.n_reps), expected.n_degenerate)
        assert counts == (np.count_nonzero(cache.statistic > cache.threshold),
                          np.count_nonzero(cache.width == 0))

    def test_counting_builds_no_bandwidth(self, monkeypatch):
        """The scan hands each row group's bandwidths on as one column, not
        as a testproc.Bandwidth a replication; the constructor is refused
        wherever the name was imported."""
        spec = RegimeSpec.from_name("severe-ordinary")
        plan = make_plan(spec=spec, epsilon=1e-2, sigma=8.4e-3, n_reps=500, j_max=200, seed=4)
        expected = reference_estimate(plan, plan.theta0, False)

        def refuse(*args, **kwargs):
            raise AssertionError("a Bandwidth was built")

        monkeypatch.setattr(testproc.Bandwidth, "__new__", refuse)
        counts = _reject_counts(plan, plan.theta0, 0, plan.n_reps)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        assert counts == (round(expected.p_hat * plan.n_reps), expected.n_degenerate)
        assert counts == (np.count_nonzero(cache.statistic > cache.threshold),
                          np.count_nonzero(cache.width == 0))

    @settings(max_examples=300, deadline=None)
    @given(sums=st.lists(st.tuples(*[st.floats(1e-300, 1e300) | st.floats(0.0, math.inf)
                                     | st.just(math.nan)] * 2,
                                   st.floats(0.0, 1e300) | st.sampled_from([math.inf, math.nan])),
                         min_size=1, max_size=12),
           epsilon=st.sampled_from([0.0, 1e-300, 1e-6, 1e-2, 0.3, 1e150]) | st.floats(0.0, 1e200),
           sigma=st.sampled_from([5e-324, 1e-310, 1e-300, 1e-8, 0.5, 1.0 - 2.0 ** -53])
           | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           alpha=st.floats(1e-9, 0.99))
    def test_threshold_totals_are_parts_from_sums_row_by_row(self, sums, epsilon, sigma, alpha):
        """Every finite total is _parts_from_sums(...).total bit for bit, and
        it is not finite exactly where that refuses the threshold, with its
        message (at the first such row, a group raises it)."""
        inv2, inv4, a_w = map(np.array, zip(*sums))
        totals = _threshold_totals(inv2, inv4, a_w, epsilon, sigma, alpha)
        for total, row in zip(totals.tolist(), sums, strict=True):
            scalar = _outcome(lambda: _parts_from_sums(*row, epsilon, sigma, alpha).total)
            if math.isfinite(total):
                assert scalar == repr(total)
            else:
                assert scalar.startswith("ValueError: the threshold is not finite: ThresholdParts(")


class TestCertificates:
    """The kernel draws only the x coordinates that can change a decision:
    the scan starts at `start`, and the dimension objective stops at a prefix
    where its argmin is certain.  Neither may change an outcome."""

    @settings(max_examples=60, deadline=None)
    @given(regime=st.sampled_from(REGIMES), s=st.floats(0.25, 3.0), t=st.floats(0.25, 3.0),
           sigma=st.floats(-7.0, math.log10(0.9)).map(lambda e: 10.0 ** e),
           j_max=st.integers(1, 300), seed=st.integers(0, 96))
    def test_no_scan_triggers_below_start(self, regime, s, t, sigma, j_max, seed):
        """start is sound: no full-horizon scan triggers below it, and when it
        is the horizon every scan is truncated.  It is also tight: it is the
        first index where a draw of size DRAW_BOUND reaches the envelope.  (A
        start below the horizon can still see no trigger in the reps tried,
        when its coordinates need a draw larger than theirs.)"""
        plan = make_plan(spec=RegimeSpec.from_name(regime, s=s, t=t), sigma=sigma,
                         j_max=j_max, seed=seed)
        start = montecarlo._Kernel(plan, plan.theta0).start
        bands = [empirical_bandwidth(simulate(plan.theta0, plan.spec, plan.noise, seed, j_max,
                                              rep=rep).x, sigma, plan.config.alpha)
                 for rep in range(20)]
        assert all(band.value >= start for band in bands)
        if start >= j_max:
            assert all(band.truncated for band in bands)
        reach = b_vector(plan.spec, j_max) <= \
            sigma * scan_envelope(np.arange(1, j_max + 1), plan.config.alpha) + sigma * DRAW_BOUND
        assert not reach[:start].any()
        assert start == j_max or reach[start]

    @settings(max_examples=60, deadline=None)
    @given(regime=st.sampled_from(REGIMES), s=st.floats(0.25, 3.0), t=st.floats(0.25, 3.0),
           sigma=st.floats(-7.0, math.log10(0.9)).map(lambda e: 10.0 ** e),
           j_max=st.integers(1, 300), seed=st.integers(0, 96))
    def test_every_scan_ends_by_end(self, regime, s, t, sigma, j_max, seed):
        """end is sound: no full-horizon scan ends past it, none is truncated
        when it lies below the horizon, and there x_end lies inside the
        envelope even at the largest draws of either sign.  It is also
        tight: it is the first index where no draw of size DRAW_BOUND can
        leave the envelope, or the horizon when there is none."""
        plan = make_plan(spec=RegimeSpec.from_name(regime, s=s, t=t), sigma=sigma,
                         j_max=j_max, seed=seed)
        end = montecarlo._Kernel(plan, plan.theta0).end
        bands = [empirical_bandwidth(simulate(plan.theta0, plan.spec, plan.noise, seed, j_max,
                                              rep=rep).x, sigma, plan.config.alpha)
                 for rep in range(20)]
        assert all(band.value <= end for band in bands)
        b = b_vector(plan.spec, j_max)
        envelope = sigma * scan_envelope(np.arange(1, j_max + 1), plan.config.alpha)
        if end < j_max:
            assert not any(band.truncated for band in bands)
            extremes = gsm._gaussian(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
            assert (np.abs(b[end] + sigma * extremes) <= envelope[end]).all()
        inside = b <= envelope - sigma * DRAW_BOUND
        assert not inside[:end].any()
        assert end == j_max or inside[end]

    @pytest.mark.parametrize("t, sigma, j_max, block", [
        (0.1, 1e-2, 10_000, 158), (0.25, 3e-3, 10_000, 355), (0.5, 1e-3, 10_000, 91),
        (1.0, 1e-5, 10_000, 276), (0.25, 2.8e-3, 470, 80), (1.0, 1.6e-5, 10_000, 180),
        (0.02, 1e-2, 20_000, 18_101),
    ])
    def test_each_scan_is_one_block_from_start_through_end(self, monkeypatch, t, sigma,
                                                            j_max, block):
        """Each scan is drawn in one block, from scan_from through the
        certain end (or to the horizon when that is the end), one
        operator-stream call a row group, and its bandwidth is the
        full-horizon scan's.  On these plans the block is wider than 64
        coordinates; at t = 0.02 it is wider than _CAP, and a group is one
        row."""
        plan = make_plan(spec=RegimeSpec.from_name("mild-ordinary", t=t), epsilon=0.1,
                         sigma=sigma, j_max=j_max)
        kernel = montecarlo._Kernel(plan, plan.theta0)
        assert kernel.block == min(kernel.end + 1, j_max) - kernel.scan_from == block
        calls = []
        real = gsm.RekeyedDraws.rows

        def rows(self, reps, stream, start, widths):
            if stream == OPERATOR_STREAM:
                calls.append(start)
            return real(self, reps, stream, start, widths)

        monkeypatch.setattr(gsm.RekeyedDraws, "rows", rows)
        groups = list(montecarlo._row_groups(0, kernel.group_rows + 5, kernel.group_rows))
        m = np.concatenate([kernel.bandwidths(reps)[1] for reps in groups])
        assert calls == [kernel.scan_from] * len(groups)
        assert len(groups) == (2 if block <= montecarlo._CAP else 6)
        brute = [empirical_bandwidth(simulate(plan.theta0, plan.spec, plan.noise,
                                              plan.master_seed, j_max, rep=rep).x,
                                     sigma, plan.config.alpha) for rep in range(len(m))]
        assert list(map(Bandwidth, m.tolist(), (m == j_max).tolist())) == brute

    @pytest.mark.parametrize("regime", REGIMES)
    def test_no_row_group_matrix_exceeds_the_cap(self, monkeypatch, regime):
        """A row group has _CAP // (its widest matrix) rows: the scan block,
        or the objective's 16-column head where the block does not start at
        0 (at least 64 wide where a scan can reach the horizon).  At each
        sigma, a chunk of one group and one more replication
        draws and decides no group matrix of more than _CAP elements, and a
        full group that is not 64 wide fills more than half of them."""
        shapes = []
        real_rows, real_decide = gsm.RekeyedDraws.rows, montecarlo._Kernel.decide

        def rows(self, reps, stream, start, widths):
            out = real_rows(self, reps, stream, start, widths)
            if len(reps) > 1:  # a single replication's draws are not a group's
                shapes.append(out.shape)
            return out

        def decide(self, reps, head, m):
            if len(reps) > 1:
                shapes.append(head.shape)
            return real_decide(self, reps, head, m)

        monkeypatch.setattr(gsm.RekeyedDraws, "rows", rows)
        monkeypatch.setattr(montecarlo._Kernel, "decide", decide)
        spec = RegimeSpec.from_name(regime)
        for sigma in (1e-2, 1e-4, 1e-6):
            plan = make_plan(spec=spec, sigma=sigma, j_max=default_j_max(spec))
            kernel = montecarlo._Kernel(plan, plan.theta0)
            shapes.clear()
            _reject_counts(plan, plan.theta0, 0, kernel.group_rows + 1)
            widest = max(c for _, c in shapes)
            assert shapes[0][0] == kernel.group_rows
            assert kernel.group_rows * widest <= montecarlo._CAP
            assert kernel.group_rows == montecarlo._CAP // 64 or \
                2 * kernel.group_rows * widest > montecarlo._CAP

    @pytest.mark.parametrize("workload, words", [("calibrate-severe", 6), ("sep-radius", 3)])
    def test_benchmark_cells_draw_only_what_their_scans_can_read(self, monkeypatch, capsys,
                                                                 workload, words):
        """Every scan on these cells has ended by index 5 (calibrate-severe)
        or 2 (sep-radius), so each replication draws at most 6 or 3 operator
        words, where a 64-coordinate block was drawn before."""
        counted = []
        real = gsm.RekeyedDraws._words

        def count(self, reps, stream, start, widths):
            if stream == OPERATOR_STREAM:
                counted.extend(widths)
            return real(self, reps, stream, start, widths)

        monkeypatch.setattr(gsm.RekeyedDraws, "_words", count)
        argv = [*WORKLOAD_ARGV[workload], "--seed", "12345", "--workers", "1"]
        n_reps = sum(plan.n_reps for plan in cli_plans(argv))
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert 0 < sum(counted) <= words * n_reps

    def test_operator_draws_stop_at_what_the_test_reads(self, monkeypatch):
        """At sigma 1e-6 no index below the horizon can trigger and the window
        is 4: each replication draws the objective's prefix of x, not the
        10 000 coordinates of its truncated scan."""
        plan = make_plan(epsilon=1e-2, sigma=1e-6, j_max=10_000, n_reps=500)
        counted = []
        real = gsm.RekeyedDraws._words

        def words(self, reps, stream, start, widths):
            if stream == OPERATOR_STREAM:
                counted.extend(widths)
            return real(self, reps, stream, start, widths)

        monkeypatch.setattr(gsm.RekeyedDraws, "_words", words)
        assert all((outcomes.bandwidth == 10_000).all()
                   for outcomes in _replications(plan, plan.theta0, 0, 500))
        assert sum(counted) <= 500 * 64

    @pytest.mark.parametrize("case", [dict(epsilon=0.0), dict(dimension=70)],
                             ids=["zero-epsilon", "dimension-70"])
    def test_plans_the_certificate_does_not_cover_match_the_serial_loop(self, case):
        """A zero deviation weight leaves the argmin uncertain, and a fixed
        dimension of 70 reads x past the prefix: both draw what they read."""
        plan = make_plan(sigma=1e-6, j_max=10_000, **case)
        assert_batch_matches_serial(plan, plan.theta0, 3, 43)

    @pytest.mark.parametrize("t, sigma, j_max, dimension, per_group", [
        (1.0, 1e-4, 10_000, 70, 3),  # the block, the head, x past the head
        (0.25, 2.8e-3, 470, None, 3),  # the block runs 390..470
    ], ids=["dimension-70", "continuation"])
    def test_a_row_group_is_decided_in_one_pass(self, monkeypatch, t, sigma, j_max, dimension,
                                                per_group):
        """Each row group runs decide once and draws x in three calls, however
        many of its rows read past the head or scan far: the scan block, and
        x from 0 twice (the 16-column head, then x past it for every row that
        needs it).  At a fixed dimension of 70 the scans end between 131 and
        165, so every window (70) reads past the head.  At t = 0.25 the block
        runs from 390 to the horizon, every scan ends at 469 or is truncated,
        and some windows' dimension objective reads past the head."""
        plan = make_plan(spec=RegimeSpec.from_name("mild-ordinary", t=t), sigma=sigma,
                         j_max=j_max, dimension=dimension)
        kernel = montecarlo._Kernel(plan, plan.theta0)
        calls = []
        real_rows, real_decide = gsm.RekeyedDraws.rows, montecarlo._Kernel.decide

        def rows(self, reps, stream, start, widths):
            if stream == OPERATOR_STREAM:
                calls.append(start)
            return real_rows(self, reps, stream, start, widths)

        def decide(self, *args):
            calls.append("decide")
            return real_decide(self, *args)

        monkeypatch.setattr(gsm.RekeyedDraws, "rows", rows)
        monkeypatch.setattr(montecarlo._Kernel, "decide", decide)
        groups = list(_replications(plan, plan.theta0, 0, 2 * kernel.group_rows + 5))
        assert len(groups) == 3
        assert all((outcomes.bandwidth > kernel.prefix).all() for outcomes in groups)
        assert calls.count("decide") == 3
        assert calls.count(0) == 2 * 3
        assert len(calls) - 3 <= per_group * 3

    @pytest.mark.parametrize("sigma", [1e-4, 1.6e-5, 1e-6])
    def test_containment_scan_matches_a_brute_force_scan(self, sigma):
        """The containment check scans as the kernel does, from start (1e-4:
        the block starts at 131; 1.6e-5: it runs from 755 through 934, the
        certain end, and 137 of the 200 scans end past its first 64
        coordinates; 1e-6: nothing is drawn)."""
        plan = make_plan(sigma=sigma, j_max=10_000, n_reps=200)
        alpha, kappa = plan.config.alpha, plan.config.kappa
        brute = [empirical_bandwidth(simulate(plan.theta0, plan.spec, plan.noise,
                                              plan.master_seed, 10_000, rep=rep).x,
                                     sigma, alpha, kappa) for rep in range(200)]
        _, m = montecarlo._Kernel(plan, plan.theta0).bandwidths(range(200))
        assert list(map(Bandwidth, m.tolist(), (m == 10_000).tolist())) == brute
        bracket = bandwidth_bracket(plan.spec, sigma, alpha, kappa, 10_000)
        n_fail = sum(not (band.value >= bracket.low and (
            band.value < bracket.high or (bracket.high_truncated and band.truncated)))
            for band in brute)
        assert check_bandwidth_containment(plan) == ErrorEstimate.from_counts(n_fail, 200)


def _cases(test):
    """The (case, refusal) parameters of a parametrized test."""
    [mark] = [mark for mark in test.pytestmark if mark.args[0] == "case, refusal"]
    return mark.args[1]


def cli_plans(argv):
    """The plan of every grid cell the CLI builds from argv."""
    cfg = cli._resolve(cli._build_parser().parse_args(argv))
    return [cli._plan(cfg, cell) for cell in cli._cells(cfg)]


# The argv of each benchmark workload (perfbench/run.py's WORKLOADS)
WORKLOAD_ARGV = {
    "calibrate-mild": ["calibrate", "--regime", "mild-ordinary", "--epsilon", "1e-2",
                       "--sigma", "1e-2,1e-4,1e-6", "--reps", "1500"],
    "calibrate-severe": ["calibrate", "--regime", "severe-ordinary,severe-super",
                         "--epsilon", "1e-2,1e-3", "--sigma", "1e-2,1e-4", "--reps", "2000"],
    "sep-radius": ["sep-radius", "--regime", "mild-ordinary", "--epsilon", "1e-2",
                   "--sigma", "1e-2", "--reps", "1000"],
    "bounds-grid": ["bounds", "--regime", "mild-ordinary,mild-super",
                    "--epsilon", "1e-1,3e-2,1e-2,3e-3,1e-3,3e-4,1e-4,3e-5",
                    "--sigma", "1e-2,3e-3,1e-3,3e-4,1e-4,3e-5,1e-5,1e-6", "--jmax", "100000"],
}


def count_fsums(monkeypatch):
    """A list that gets a 1 for each math.fsum call."""
    calls, real = [], math.fsum
    monkeypatch.setattr(sequences.math, "fsum", lambda values: calls.append(1) or real(values))
    return calls


class TestWindowSums:
    """decide sums its windows by sequences._window_sums, which leaves to
    math.fsum only the windows its certificate does not settle."""

    @pytest.mark.parametrize("workload", ["calibrate-mild", "calibrate-severe", "sep-radius"])
    def test_no_benchmark_window_is_summed_by_fsum(self, monkeypatch, workload):
        calls = count_fsums(monkeypatch)
        widths = []
        for plan in cli_plans(WORKLOAD_ARGV[workload]):
            widths.append(_build_radius_cache(dataclasses.replace(plan, n_reps=200), 0, 200).width)
        assert calls == []
        assert np.count_nonzero(np.concatenate(widths)) > 100

    def test_a_window_the_certificate_leaves_open_is_summed_by_fsum(self, monkeypatch):
        """x = 1, 2**27 and 2**54: the window's x**-2 are 1, 2**-54 and
        2**-108, whose cascade leaves 1.0 with 2**-54 + 2**-108 over, more
        than half the gap below 1.0.  fsum sums that window's three columns
        and no other, and its report is the reference step's."""
        calls = count_fsums(monkeypatch)
        plan = make_plan(epsilon=1e-2, sigma=1e-2, j_max=40, dimension=3)
        kernel = montecarlo._Kernel(plan, plan.theta0)
        x = np.ones((2, 40))
        x[0, 1:3] = 2.0 ** 27, 2.0 ** 54
        decided = kernel.decide([0, 1], x, np.array([40, 40]))
        assert len(calls) == 3
        for rep in (0, 1):
            y = kernel.bt + plan.noise.epsilon * gaussian_draws(plan.master_seed, rep,
                                                               SIGNAL_STREAM, 40)
            report = _decide(Bandwidth(40, False), x[rep], y, plan.theta0, plan.spec,
                             plan.noise, plan.config)
            assert (decided.statistic[rep], decided.threshold[rep]) == (report.statistic,
                                                                        report.threshold)


class TestFastPath:
    """The kernel is the only Monte Carlo path: a plan outside the test's
    domain is refused when it is built, and a theta the kernel cannot run
    when the kernel is.  The plans the benchmark and the CLI run are built
    and taken by the kernel."""

    @pytest.mark.parametrize("workload", WORKLOAD_ARGV)
    def test_every_benchmark_cell_is_batched(self, workload):
        plans = cli_plans(WORKLOAD_ARGV[workload])
        assert plans
        for plan in plans:
            montecarlo._Kernel(plan, plan.theta0)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_power_curve_spikes_up_to_the_class_ceiling_are_batched(self, regime):
        spec = RegimeSpec.from_name(regime)
        j_max = default_j_max(spec)
        ceiling = 1.0 / a_value(spec, 1)
        for epsilon in (0.0, 1e-6, 1e-2, 0.5):
            for sigma in (1e-6, 1e-2, 0.5):
                plan = make_plan(spec=spec, epsilon=epsilon, sigma=sigma, j_max=j_max)
                for k in range(15):
                    theta = make_spike_alternative(spec, plan.theta0, ceiling * 2.0 ** -k, j_max)
                    montecarlo._Kernel(plan, theta)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_plans_whose_reference_path_raises_are_not_batched(self):
        """Every case above on which the reference path raises from its first
        replication is refused before a replication is drawn: when its plan
        is built, or else when the kernel is, with the reference's error."""
        for case, refusal in (*_cases(TestKernel.test_errors_match_reference),
                              *_cases(TestBatch.test_first_error_of_a_chunk_is_the_serial_loops)):
            with pytest.raises(ValueError) as info:
                plan = make_plan(**case)
                montecarlo._Kernel(plan, plan.theta0)
            if refusal is None:
                refusal = _outcome(lambda: _reference(plan, plan.theta0, 0))
                refusal = refusal.removeprefix("ValueError: ")
            assert str(info.value) == refusal, case

    @pytest.mark.parametrize("case, refusal", [
        # every replication was degenerate: p_hat 0.0 with n_degenerate 100 of 100
        (dict(sigma=5.0), "sigma must lie in (0, 1), got 5.0"),
        # every non-degenerate replication raised, and the rest were degenerate
        (dict(spec=RegimeSpec.from_name("severe-ordinary"), epsilon=1e200, sigma=0.5),
         "epsilon=1e+200 squared exceeds the float range"),
    ], ids=["large-sigma", "huge-epsilon"])
    def test_a_plan_outside_the_domain_gives_no_estimate(self, case, refusal):
        """estimate_alpha returned an all-degenerate estimate on these plans;
        they are refused when built instead."""
        assert_refused(case, refusal)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_first_error_of_a_batched_chunk_is_the_serial_loops(self):
        """theta0 near the float range at coordinate 4 makes the statistic
        overflow in every replication whose window reaches it."""
        plan = make_plan(epsilon=1e-2, sigma=5e-3, j_max=50, theta0=Signal([0, 0, 0, 1e300]))
        target = Signal.zeros(0)
        serial = serial_outcomes(plan, target, 5, 300)
        assert len(serial) == 17
        assert serial[-1] == "ValueError: the statistic over the first 4 coefficients is not finite"
        assert_batch_matches_serial(plan, target, 5, 300)


def count_rows(monkeypatch):
    """A Counter that gets each `_words` row by (rep, stream), and one of
    the words drawn by stream."""
    rows, words = Counter(), Counter()
    real = gsm.RekeyedDraws._words

    def counted(self, reps, stream, start, widths):
        rows.update((rep, stream) for rep in reps)
        words.update({stream: sum(widths)})
        return real(self, reps, stream, start, widths)

    monkeypatch.setattr(gsm.RekeyedDraws, "_words", counted)
    return rows, words


def grid_caches(plans, workers):
    """The radius cache of each plan, from one _run_jobs call."""
    return runner._run_jobs([montecarlo._kernel_job(_build_radius_cache, (plan,), plan,
                                                    _joined) for plan in plans], workers)


def same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


class TestSharedDraws:
    """The jobs of one _run_jobs call that run a chunk of one seed read its
    Gaussian rows from one table: each row is drawn once for the grid, every
    byte and error is each job's alone, and no table outlives the call."""

    def test_a_grid_draws_each_row_once(self, monkeypatch, capsys):
        """The 8 cells of calibrate-severe draw 24 000 rows one job at a
        time, and one row per replication and stream in one call."""
        rows, _ = count_rows(monkeypatch)
        argv = [*WORKLOAD_ARGV["calibrate-severe"], "--seed", "12345", "--workers", "1"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert rows == Counter({(rep, stream): 1 for rep in range(2000)
                                for stream in (SIGNAL_STREAM, OPERATOR_STREAM)})

    @pytest.mark.parametrize("workload, n_rows, n_words", [
        ("calibrate-mild", 4500, {OPERATOR_STREAM: 76_500, SIGNAL_STREAM: 24_000}),
        ("calibrate-severe", 4000, {OPERATOR_STREAM: 12_000, SIGNAL_STREAM: 12_000}),
    ])
    def test_a_grid_draws_its_pinned_words(self, workload, n_rows, n_words, monkeypatch,
                                           capsys):
        """The rows and words each grid draws at --workers 1.  calibrate-mild
        draws its operator rows twice: the table holds the 16-column head of
        every cell, and its sigma = 1e-4 cell's scan block starts at 131."""
        rows, words = count_rows(monkeypatch)
        argv = [*WORKLOAD_ARGV[workload], "--seed", "12345", "--workers", "1"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert (rows.total(), words) == (n_rows, n_words)

    def test_a_single_job_draws_as_it_did(self, monkeypatch, capsys):
        """sep-radius runs one job, which builds no table: its rows and words
        are pinned."""
        made = []
        monkeypatch.setattr(runner, "_ChunkDraws", lambda *args: made.append(args))
        rows, words = count_rows(monkeypatch)
        argv = [*WORKLOAD_ARGV["sep-radius"], "--seed", "12345", "--workers", "1"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert not made
        assert rows == Counter({(rep, stream): 1 for rep in range(1000)
                                for stream in (SIGNAL_STREAM, OPERATOR_STREAM)})
        assert words == {OPERATOR_STREAM: 3000, SIGNAL_STREAM: 1949}

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from(REGIMES),
                                    st.sampled_from([0.0, 1e-3, 1e-2, 0.3]),
                                    st.floats(-7.0, -0.05).map(lambda e: 10.0 ** e),
                                    st.none() | st.integers(1, 80)), min_size=2, max_size=4),
           j_max=st.integers(1, 300), seed=st.integers(0, 96), workers=st.sampled_from([1, 2]))
    def test_a_grid_gives_each_cell_its_outcomes_alone(self, cells, j_max, seed, workers):
        plans = [make_plan(spec=RegimeSpec.from_name(regime), epsilon=epsilon, sigma=sigma,
                           j_max=j_max, dimension=dimension, seed=seed)
                 for regime, epsilon, sigma, dimension in cells]
        for plan, outcomes in zip(plans, grid_caches(plans, workers)):
            assert same_bytes(outcomes, _build_radius_cache(plan, 0, plan.n_reps))

    @pytest.mark.parametrize("stream", [SIGNAL_STREAM, OPERATOR_STREAM],
                             ids=["signal", "operator"])
    def test_no_table_outlives_its_grid(self, monkeypatch, stream):
        """Right after a grid of one seed, a grid of that seed with the
        all-ones word planted as the first draw of one stream of replication
        20 reads the planted word: its outcomes are the serial loop's."""
        plan = make_plan()
        grid_caches([plan, plan], 1)
        real = gsm.RekeyedDraws._words
        planted = []

        def words(self, reps, tag, start, widths):
            out = real(self, reps, tag, start, widths)
            for rep, row in zip(reps, out):
                if (rep, tag, start) == (20, stream, 0) and row.size:
                    row[0] = 2 ** 64 - 1
                    planted.append(row.size)
            return out

        monkeypatch.setattr(gsm.RekeyedDraws, "_words", words)
        serial = serial_outcomes(plan, plan.theta0, 0, plan.n_reps)
        planted.clear()
        for outcomes in grid_caches([plan, plan], 1):
            assert [repr((report, x.tobytes(), y.tobytes(), eps_xi.tobytes()))
                    for report, x, y, eps_xi in reports(outcomes, plan.config.j_max)] == serial
        assert planted == [montecarlo._scan(plan).head]  # once for both jobs, the table's width

    def test_tables_are_dropped_when_the_share_returns(self, monkeypatch):
        """On success and on error; a call of one job builds none."""
        made = []

        class Recorded(gsm._ChunkDraws):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(runner, "_ChunkDraws", Recorded)
        plan = make_plan(sigma=0.023, j_max=50, n_reps=300)
        estimate_alpha(plan, workers=2)
        assert made == []
        runner._run_jobs([montecarlo._error_job(plan)] * 2, 2)
        assert [(table.lo, table.hi) for table in made] == [(0, 150), (150, 300)]
        assert all(table._tables == {} for table in made)
        made.clear()
        overflow = make_plan(epsilon=1.3e154, sigma=0.023, j_max=50, n_reps=300)
        with pytest.raises(ValueError, match="the threshold is not finite"):
            runner._run_jobs([montecarlo._error_job(plan), montecarlo._error_job(overflow)], 1)
        assert len(made) == 1 and made[0]._tables == {}

    def test_the_scan_geometry_is_computed_once_per_distinct_plan(self, capsys):
        """calibrate-severe's 8 cells share one decay (severe-ordinary and
        severe-super differ in growth only) and have 2 sigmas."""
        montecarlo._geometry.cache_clear()
        argv = [*WORKLOAD_ARGV["calibrate-severe"], "--seed", "12345", "--workers", "1"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert montecarlo._geometry.cache_info().misses == 2

    def test_the_tail_dimension_is_computed_once_per_distinct_plan(self, monkeypatch, capsys):
        """calibrate-severe's 8 cells have 2 growths and 2 sigmas at one
        level and horizon.  At --workers 2 on one CPU every job runs its 2
        chunks in this process: 16 kernels, 4 computations."""
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
        montecarlo._tail_dim.cache_clear()
        argv = [*WORKLOAD_ARGV["calibrate-severe"][:-1], "200", "--seed", "12345",
                "--workers", "2"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        info = montecarlo._tail_dim.cache_info()
        assert (info.misses, info.hits) == (4, 12)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("workload", ["calibrate-mild", "calibrate-severe", "sep-radius"])
    def test_benchmark_workloads_print_their_reference_bytes(self, workload, workers, capsys):
        """Each simulating benchmark workload prints, in process, the bytes
        the benchmark compares its runs with."""
        reference = Path(__file__).parents[1] / "perfbench" / "reference" / f"{workload}.csv"
        assert cli.main([*WORKLOAD_ARGV[workload], "--seed", "12345", "--workers", workers]) == 0
        assert capsys.readouterr().out.encode() == reference.read_bytes()


def _two_point_null():
    theta0, _ = make_two_point_pair(RegimeSpec.from_name("mild-ordinary"),
                                    NoiseLevels(1e-3, 1e-3), 0.05, 0.5, d=3)
    return theta0


def replayed_statistics(cache, plan, r):
    """Each cached entry's full statistic at radius r, entry by entry:
    statistic(y, x_win, theta0, w, w) with y_win's spiked coordinate
    recomputed, or None where the spike lies past the window."""
    j_max = plan.config.j_max
    d = spike_index(plan.spec, r, j_max)
    k = d - 1
    theta0_k = plan.theta0.padded(max(d, len(plan.theta0)))[k]
    spiked = b_vector(plan.spec, j_max)[k] * (theta0_k + r)
    out = []
    for lo, w in zip(_starts(cache.width).tolist(), cache.width.tolist()):
        if w <= k:
            out.append(None)
            continue
        y = cache.y[lo:lo + w].copy()
        y[k] = spiked + cache.eps_xi[lo + k]
        out.append(statistic(y, cache.x[lo:lo + w], plan.theta0, w, w))
    return out


def direct_rejections(cache, plan, r):
    """Each cached entry's decision at radius r by the full statistic, or
    its null decision where the spike lies past its window."""
    return [bool(cache.statistic[i] > cache.threshold[i]) if value is None
            else value > cache.threshold[i]
            for i, value in enumerate(replayed_statistics(cache, plan, r))]


def radii_for_every_spike_index(plan, cache):
    """One radius per spike index d = 1 .. w_max + 1, so the spiked
    coordinate k = d - 1 runs over 0 .. w_max."""
    radii = []
    for d in range(1, int(cache.width.max()) + 2):
        r = (1.0 - 1e-12) / a_value(plan.spec, d)
        assert spike_index(plan.spec, r, plan.config.j_max) == d
        radii.append(r)
    return radii


def assert_replay_matches_direct(plan):
    """At five radii (those the class admits) and at one for every spike
    index, every entry's replayed decision equals the full statistic's, and
    the acceptances and degenerate count reproduce estimate_beta bit for bit."""
    cache = _build_radius_cache(plan, 0, plan.n_reps)
    fixed = [r for r in (0.05, 0.1, 0.15, 0.3, 0.8595) if a_value(plan.spec, 1) * r <= 1.0]
    for r in (*fixed, *radii_for_every_spike_index(plan, cache)):
        reject = _rejections(cache, plan, r)
        assert reject.tolist() == direct_rejections(cache, plan, r)
        theta = make_spike_alternative(plan.spec, plan.theta0, r, plan.config.j_max)
        direct = estimate_beta(plan, theta)
        assert (plan.n_reps - np.count_nonzero(reject)) / plan.n_reps == direct.p_hat
        assert np.count_nonzero(cache.width == 0) == direct.n_degenerate


class TestRadiusCache:
    def test_replay_matches_direct_estimates(self):
        assert_replay_matches_direct(
            make_plan(epsilon=1e-2, sigma=1e-2, n_reps=100, j_max=200, seed=42))

    @pytest.mark.parametrize("case", [
        # the spike lands on theta0's bump at r = 0.3
        dict(epsilon=1e-3, sigma=1e-3, theta0=_two_point_null()),
        dict(epsilon=0.0, sigma=1e-3),
        dict(epsilon=1e-3, sigma=1e-3, dimension=3),
    ], ids=["two-point-null", "zero-epsilon", "fixed-dimension"])
    def test_replay_matches_direct_estimates_on_other_plans(self, case):
        assert_replay_matches_direct(make_plan(n_reps=100, j_max=200, seed=42, **case))

    @pytest.mark.parametrize("regime, epsilon, sigma", [
        ("mild-ordinary", 1e-3, 1e-3),  # windows of 12 and 13
        ("mild-super", 1e-3, 2e-3),
        ("severe-ordinary", 1e-2, 8.4e-3),  # mostly degenerate
        ("severe-super", 1e-3, 1e-3),
    ])
    def test_replay_matches_direct_estimates_in_every_regime(self, regime, epsilon, sigma):
        plan = make_plan(spec=RegimeSpec.from_name(regime), epsilon=epsilon, sigma=sigma,
                         n_reps=100, j_max=200, seed=42)
        if regime == "severe-ordinary":
            width = _build_radius_cache(plan, 0, plan.n_reps).width
            assert 0 < np.count_nonzero(width == 0) < plan.n_reps
        assert_replay_matches_direct(plan)

    def test_null_decisions_past_the_window_stand(self, monkeypatch):
        """With a threshold that the null statistic crosses in some
        replications, an entry the spike misses keeps its null decision,
        rejecting or not."""
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=100, j_max=200, seed=42)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        fix_threshold(monkeypatch, float(np.median(cache.statistic)))
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        assert 0 < np.count_nonzero(cache.statistic > cache.threshold) < plan.n_reps
        assert_replay_matches_direct(plan)

    def test_entries_own_their_windows(self):
        """The flat arrays own their memory, and entry i's slices of them are
        the windows of x, y and the signal noise that run_test read, with its
        null statistic, threshold and decision; a degenerate replication has
        an empty window."""
        spec = RegimeSpec.from_name("severe-ordinary")
        plan = make_plan(spec=spec, epsilon=1e-2, sigma=8.4e-3, n_reps=100, j_max=200)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        for arr in cache:
            assert arr.base is None and arr.ndim == 1
        starts = np.cumsum([0, *cache.width.tolist()])[:-1]
        assert cache.y.size == cache.x.size == cache.eps_xi.size == cache.width.sum()
        windows = set()
        for rep in range(plan.n_reps):
            obs = simulate(plan.theta0, spec, plan.noise, plan.master_seed,
                           plan.config.j_max, rep=rep)
            report = run_test(obs, plan.theta0, spec, plan.noise, plan.config)
            w, lo = report.window, starts[rep]
            windows.add(w)
            assert cache.width[rep] == w
            assert cache.bandwidth[rep] == report.bandwidth
            assert (cache.bandwidth[rep] == plan.config.j_max) == report.bandwidth_truncated
            assert (cache.statistic[rep] > cache.threshold[rep]) == report.reject
            assert cache.statistic[rep] == report.statistic
            assert cache.threshold[rep] == report.threshold or w == 0
            xi = gaussian_draws(plan.master_seed, rep, SIGNAL_STREAM, w)
            assert cache.x[lo:lo + w].tobytes() == obs.x[:w].tobytes()
            assert cache.y[lo:lo + w].tobytes() == obs.y[:w].tobytes()
            assert cache.eps_xi[lo:lo + w].tobytes() == (plan.noise.epsilon * xi).tobytes()
        assert 0 in windows and len(windows) > 1

    def test_chunks_join_into_the_whole_cache(self):
        """Caches built over [0, a) and [a, n) and joined equal the cache
        over [0, n), field by field and byte for byte."""
        spec = RegimeSpec.from_name("severe-ordinary")
        plan = make_plan(spec=spec, epsilon=1e-2, sigma=8.4e-3, n_reps=300, j_max=200)
        whole = _build_radius_cache(plan, 0, plan.n_reps)
        for a in (1, 64, 150, 257, 299):
            joined = _joined([_build_radius_cache(plan, 0, a),
                              _build_radius_cache(plan, a, plan.n_reps)])
            for field, got, want in zip(whole._fields, joined, whole):
                assert got.dtype == want.dtype, (a, field)
                assert got.tobytes() == want.tobytes(), (a, field)

    def test_the_radius_is_the_same_at_every_worker_count(self):
        """Five chunks exceed the CPU count of a small machine; the search
        still returns the identical float."""
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        radii = {empirical_separation_radius(plan, 0.5, 1e-3, 1.0, tol=0.05, workers=w)
                 for w in (1, 2, 5)}
        assert radii == {0.859515625}

    def test_power_curve_monotone_under_common_randomness(self):
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=300, j_max=200, seed=13)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        radii = (0.05, 0.1, 0.15, 0.2, 0.3)
        betas = [1.0 - np.count_nonzero(_rejections(cache, plan, r)) / plan.n_reps
                 for r in radii]
        assert betas[0] > 0.9  # spike falls outside the window: blind
        assert betas[-1] == 0.0  # far radius: always caught
        assert np.all(np.diff(betas) <= 0)


class TestReplayFallback:
    """The replay decides from the null statistic with one term swapped only
    where a rounding margin proves the full statistic agrees; the rest go to
    statistic itself."""

    @staticmethod
    def counted_replay(monkeypatch):
        """A plan, its radius cache, and the list of the replay's statistic calls."""
        plan = make_plan(epsilon=1e-3, sigma=1e-3, n_reps=100, j_max=200, seed=42)
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        calls = []

        def counted(*args):
            calls.append(args)
            return statistic(*args)

        monkeypatch.setattr(montecarlo, "statistic", counted)
        return plan, cache, calls

    def test_a_clear_margin_needs_no_statistic(self, monkeypatch):
        plan, cache, calls = self.counted_replay(monkeypatch)
        assert _rejections(cache, plan, 0.1).tolist() == direct_rejections(cache, plan, 0.1)
        assert len(calls) == 0

    @pytest.mark.parametrize("ulps, rejects", [(0, False), (-1, True), (1, False)],
                             ids=["at-the-sum", "one-ulp-below", "one-ulp-above"])
    def test_a_threshold_at_the_sum_keeps_the_strict_comparison(self, monkeypatch, ulps,
                                                                 rejects):
        plan, cache, calls = self.counted_replay(monkeypatch)
        r = 0.1
        sums = np.array(replayed_statistics(cache, plan, r))  # every window holds the spike
        cutoff = sums if ulps == 0 else np.nextafter(sums, ulps * np.inf)
        reject = _rejections(cache._replace(threshold=cutoff), plan, r)
        assert reject.tolist() == [rejects] * plan.n_reps
        assert len(calls) == plan.n_reps  # each one decided by statistic

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("field, value, error", [
        ("eps_xi", 1e300, ValueError),  # the new term overflows
        ("x", 0.0, DegenerateObservationError),  # the spiked coordinate's x is zero
    ], ids=["overflow", "zero-x"])
    def test_a_value_that_is_not_finite_raises_what_statistic_raises(self, monkeypatch,
                                                                     field, value, error):
        plan, cache, calls = self.counted_replay(monkeypatch)
        r, i = 0.1, 7
        k = spike_index(plan.spec, r, plan.config.j_max) - 1
        arr = getattr(cache, field).copy()
        arr[_starts(cache.width)[i] + k] = value
        cache = cache._replace(**{field: arr})
        with pytest.raises(error) as expected:
            replayed_statistics(cache, plan, r)
        with pytest.raises(error) as got:
            _rejections(cache, plan, r)
        assert str(got.value) == str(expected.value)
        assert len(calls) == 1  # the replay sent entry i alone to statistic


class TestSeparationRadius:
    def test_pinned_radius(self):
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        r = empirical_separation_radius(plan, 0.5, 1e-3, 1.0, tol=0.05)
        assert_allclose(r, 0.859515625, rtol=0)

    @pytest.mark.parametrize("end", ["r_lo", "r_hi"])
    def test_a_bracket_end_that_hits_the_target_is_returned(self, end):
        """When the second-kind error at r_lo (0.72 of 200) or at r_hi (0.035)
        equals the target exactly, that end is the radius, with no bisection."""
        plan = make_plan(epsilon=1e-2, sigma=1e-2, n_reps=200, j_max=200, seed=42)
        r_lo, r_hi = 0.85, 0.9
        cache = _build_radius_cache(plan, 0, plan.n_reps)
        at = {"r_lo": r_lo, "r_hi": r_hi}[end]
        target = (plan.n_reps - np.count_nonzero(_rejections(cache, plan, at))) / plan.n_reps
        assert target == {"r_lo": 0.72, "r_hi": 0.035}[end]
        assert empirical_separation_radius(plan, target, r_lo, r_hi, tol=0.05) == at

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_is_refused(self, tol):
        """A NaN or inf tol would end the bisection before its first step."""
        plan = make_plan(n_reps=100)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            empirical_separation_radius(plan, 0.5, 0.1, 1.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fit_rate_slope(plan, [1e-2, 1e-3], 0.5, tol=tol)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("grid, error, message", [
        ([0.9, 1e-2], BracketingError, "second-kind error"),
        ([1e-2, 0.9], ValueError, "the statistic over the first 4 coefficients is not finite"),
    ], ids=["bracketing-first", "statistic-first"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_first_error_a_serial_loop_meets_is_raised(self, grid, error, message,
                                                           workers):
        """theta0 near the float range at coordinate 4 makes the statistic
        overflow at eps 1e-2, while eps 0.9 cannot bracket the target: the
        error raised is the one of the earlier grid point."""
        template = make_plan(sigma=5e-3, j_max=50, theta0=Signal([0, 0, 0, 1e300]))
        serial = None
        for eps in grid:
            plan = dataclasses.replace(template, noise=NoiseLevels(eps, 5e-3))
            try:
                empirical_separation_radius(plan, 0.5, 1e-3, 1.0)
            except (BracketingError, ValueError) as exc:
                serial = exc
                break
        assert type(serial) is error and str(serial).startswith(message)
        with pytest.raises(error) as info:
            fit_rate_slope(template, grid, 0.5, r_lo=1e-3, r_hi=1.0, workers=workers)
        assert str(info.value) == str(serial)


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
        """sigma must lie in (0, 1); above 1 the dimension objective's
        ln(1/sigma)**1.5 would be complex."""
        for sigma in (0.0, 1.0, 1.5):
            assert_refused(dict(sigma=sigma, n_reps=100), f"sigma must lie in (0, 1), got {sigma!r}")

    @pytest.mark.parametrize("alpha, kappa, message", [
        (0.05, 0.0, "kappa must be finite and exceed e, got 0.0"),
        (0.05, -1.0, "kappa must be finite and exceed e, got -1.0"),
        (0.05, math.nan, "kappa must be finite and exceed e, got nan"),
        (0.05, math.e, "kappa must be finite and exceed e, got 2.718281828459045"),
        (math.nan, KAPPA_DEFAULT, "level must lie in (0, 1), got nan"),
        (1.0, KAPPA_DEFAULT, "level must lie in (0, 1), got 1.0"),
    ], ids=["zero-kappa", "negative-kappa", "nan-kappa", "kappa-e", "nan-alpha", "unit-alpha"])
    def test_escape_bound_refuses_what_the_scan_envelope_refuses(self, alpha, kappa, message):
        """A zero kappa divided by zero, and a NaN or negative one gave a
        NaN or negative budget."""
        with pytest.raises(ValueError) as info:
            bandwidth_escape_bound(alpha, kappa)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            scan_envelope(1, alpha, kappa)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("case", [
        *cli._QUADFORM_CASES,
        {"d": 4, "nu": [0.3, -1.0, 0.0, 2.5], "v": [0.5, 2.0, 1.0, 0.1], "x": 3.0},
    ], ids=["checks-d1", "checks-d10", "vector"])
    def test_cuts_are_the_documented_ones(self, monkeypatch, case):
        """The chunks compare each deviation from the mean sum(nu^2 + v^2)
        against 2*sqrt(S*x) + 2*x*max(v^2) above and -2*sqrt(S*x) below,
        with S = sum v^4 + 2 sum v^2 nu^2."""
        seen = []
        real = montecarlo._quadform_failures

        def recording(d, nu, v, mean, up_cut, low_cut, *rest):
            seen.append((mean, up_cut, low_cut))
            return real(d, nu, v, mean, up_cut, low_cut, *rest)

        monkeypatch.setattr(montecarlo, "_quadform_failures", recording)
        d, x = case["d"], case["x"]
        check_quadform_concentration(d, case["nu"], case["v"], x, n_reps=100, workers=1)
        nu = [float(a) for a in np.broadcast_to(case["nu"], d)]
        v = [float(b) for b in np.broadcast_to(case["v"], d)]
        proxy = sum(b * b * b * b for b in v) + 2.0 * sum(b * b * a * a for a, b in zip(nu, v))
        expected = (sum(a * a + b * b for a, b in zip(nu, v)),
                    2.0 * math.sqrt(proxy * x) + 2.0 * x * max(b * b for b in v),
                    -2.0 * math.sqrt(proxy * x))
        [cuts] = seen
        assert cuts == pytest.approx(expected, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("nu, v, x", [
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (1e200, 1.0, 1.0),  # the squares overflow
        (1e154, 1.0, 1.0),  # finite squares whose sum overflows
        (0.0, 1e100, 1.0),  # v**4 overflows: the variance proxy
        (0.0, 1.0, 1e308),  # the cuts overflow
    ], ids=["nan-x", "inf-x", "huge-nu", "large-nu", "huge-v", "huge-x"])
    def test_non_finite_moments_are_refused(self, nu, v, x):
        """A non-finite mean or cut would make every deviation compare false."""
        with pytest.raises(ValueError, match="finite"):
            check_quadform_concentration(3, nu, v, x=x, n_reps=100)
