import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quakewait.inference import (_POISSON_MEAN_MAX, _slope_draws, confidence_bands,
                                 estimate_slope, estimate_slope_with_ci, path_log_likelihood,
                                 random_cdf, slope_ci, verify_clt,
                                 verify_glivenko_cantelli,
                                 verify_kolmogorov_limit, write_bands_csv)
from quakewait.intensity import IntensityModel
from quakewait.limitlaw import sup_distance_exp
from quakewait.nhpp import EventTimes, simulate_path
from quakewait.rng import substream, substreams
from quakewait.statfn import (folded_normal_cdf, ks_test, normal_cdf,
                              normal_quantile)

# second reference data set: years since the initiating major shock
SEGMENT2 = EventTimes(np.array([53.0, 116.0, 118.0, 121.0, 153.0, 155.0,
                                156.0, 161.0]), 161.0)


class TestEstimateSlope:
    def test_window_to_116(self):
        est = estimate_slope(SEGMENT2, 0.0, 116.0)
        assert est.count == 2
        assert est.m_hat == 2 / 116

    def test_third_set_final(self):
        times = np.array([1, 28, 29.0001, 29.0002, 32, 34, 48, 51, 56, 59, 63,
                          68, 70, 71, 76, 79, 88, 89, 90, 93, 106, 110, 111,
                          118, 128, 130], dtype=float)
        est = estimate_slope(EventTimes(times, 130.0), 0.0, 130.0)
        assert est.m_hat == 26 / 130 == 0.2

    def test_empty_window(self):
        est = estimate_slope(SEGMENT2, 20.0, 40.0)
        assert est.m_hat == 0.0

    def test_boundary_convention(self):
        # event at the window start excluded, at the end included
        est = estimate_slope(SEGMENT2, 53.0, 116.0)
        assert est.count == 1

    def test_bad_window(self):
        with pytest.raises(ValueError):
            estimate_slope(SEGMENT2, 50.0, 50.0)


class TestRandomCdf:
    def test_reference_values(self):
        assert random_cdf(1 / 53, 63) == pytest.approx(0.70, abs=5e-3)
        assert random_cdf(1 / 53, 68) == pytest.approx(0.72, abs=5e-3)

    def test_zero(self):
        assert random_cdf(0.5, 0.0) == 0.0

    def test_degenerate_estimator(self):
        assert random_cdf(0.0, 100.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            random_cdf(-0.1, 1.0)


def reference_log_likelihood(events, model, t):
    """The defining formula, one ``model.rate`` per early event and
    ``count_in`` / ``cif`` for the rest."""
    tau_star, m = model.tail_start, model.tail_rate
    if t <= tau_star:
        raise ValueError("t must exceed the model's tail_start")
    if len(events) and events.times[-1] > t:
        raise ValueError("events must lie within [0, t]")
    total = 0.0
    for u in events.times[events.times <= tau_star]:
        lam = model.rate(u)
        if lam == 0.0:
            return float("-inf")
        total += math.log(lam)
    total += math.log(m) * events.count_in(tau_star, t)
    total -= model.cif(tau_star) - tau_star
    total -= (t - tau_star) * (m - 1.0)
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def likelihood_cases(draw):
    """A random piecewise model (zero-rate segments included), a time t
    that is sometimes <= tail_start, and a path whose events may sit on a
    breakpoint, on tau* or on t, or lie beyond t."""
    gaps = draw(st.lists(st.floats(0.05, 5.0), max_size=5))
    starts = [0.0]
    for g in gaps:
        starts.append(starts[-1] + g)
    tail_rate = draw(st.floats(0.01, 10.0))
    rates = [draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 10.0))
             for _ in gaps] + [tail_rate]
    tail_start = starts[-1] + draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0))
    model = IntensityModel(tuple(starts), tuple(rates), tail_start, tail_rate)
    t = tail_start + draw(st.sampled_from([1.0, 7.5, 0.0, -0.5]) | st.floats(0.01, 20.0))
    hi = max(t, tail_start, 0.01)
    pool = draw(st.lists(st.floats(0.001, hi), max_size=12))
    special = [*starts[1:], tail_start, t]
    pool += [x for x in special if draw(st.booleans())]
    if draw(st.sampled_from([False, False, False, True])):
        pool.append(hi + draw(st.floats(0.001, 3.0)))
    times = np.unique(np.array([x for x in pool if x > 0], dtype=float))
    horizon = max(t, float(times[-1]) if times.size else 0.0, 0.0)
    return EventTimes(times, horizon), model, t


class TestPathLogLikelihood:
    def test_unit_rate_is_zero(self, constant_model):
        ev = simulate_path(constant_model, 20.0, 1)
        assert path_log_likelihood(ev, constant_model, 20.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_model_closed_form(self):
        model = IntensityModel.constant(0.7)
        ev = simulate_path(model, 30.0, 2)
        n, t = len(ev), 30.0
        expected = n * math.log(0.7) - t * (0.7 - 1.0)
        assert path_log_likelihood(ev, model, t) == pytest.approx(expected, abs=1e-10)

    def test_grid_argmax_matches_estimator(self, piecewise_model):
        t = 40.0
        ev = simulate_path(piecewise_model, t, 3)
        m_hat = ev.count_in(1.0, t) / (t - 1.0)
        grid = np.arange(0.005, 3.0, 0.001)
        scores = [path_log_likelihood(
            ev, IntensityModel.piecewise([(0.0, 2.0), (1.0, m)]), t)
            for m in grid]
        assert abs(grid[int(np.argmax(scores))] - m_hat) <= 0.001

    def test_concave_in_rate(self, piecewise_model):
        t = 40.0
        ev = simulate_path(piecewise_model, t, 4)
        grid = np.arange(0.2, 2.0, 0.05)
        scores = np.array([path_log_likelihood(
            ev, IntensityModel.piecewise([(0.0, 2.0), (1.0, m)]), t)
            for m in grid])
        second_diff = np.diff(scores, 2)
        assert np.all(second_diff < 0)

    def test_event_in_dead_zone(self):
        model = IntensityModel.piecewise([(0.0, 0.0), (1.0, 1.0)])
        ev = EventTimes(np.array([0.5]), 2.0)
        assert path_log_likelihood(ev, model, 2.0) == float("-inf")

    @settings(max_examples=300, deadline=None)
    @given(likelihood_cases())
    def test_matches_reference_formula_exactly(self, case):
        events, model, t = case
        assert _outcome(path_log_likelihood, events, model, t) == \
            _outcome(reference_log_likelihood, events, model, t)
        if t > model.tail_start and not (len(events) and events.times[-1] > t):
            early = events.times[events.times <= model.tail_start]
            dead = any(model.rate(u) == 0.0 for u in early)
            assert (path_log_likelihood(events, model, t) == -math.inf) == dead

    def test_empty_path_matches_reference_formula(self, piecewise_model):
        ev = EventTimes(np.empty(0), 5.0)
        got = path_log_likelihood(ev, piecewise_model, 5.0)
        assert got == reference_log_likelihood(ev, piecewise_model, 5.0)

    @pytest.mark.parametrize("t, times, match", [
        (1.0, [0.5], "tail_start"),
        (0.5, [], "tail_start"),
        (3.0, [0.5, 3.5], "within"),
    ])
    def test_errors(self, piecewise_model, t, times, match):
        ev = EventTimes(np.array(times), 4.0)
        with pytest.raises(ValueError, match=match):
            path_log_likelihood(ev, piecewise_model, t)


class TestSlopeCi:
    def test_reference_interval(self):
        low, high = slope_ci(0.2, 0.0, 130.0, 0.05)
        assert low == pytest.approx(0.13650, abs=1e-5)
        assert high == pytest.approx(0.29306, abs=1e-5)

    def test_near_degenerate(self):
        low, high = slope_ci(0.2, 0.0, 130.0, 0.999999)
        assert low == pytest.approx(0.2, abs=1e-4)
        assert high == pytest.approx(0.2, abs=1e-4)

    def test_zero_estimate(self):
        t = 100.0
        x = normal_quantile(0.975)
        low, high = slope_ci(0.0, 0.0, t, 0.05)
        assert low == 0.0
        assert high == pytest.approx(x * x / t, rel=1e-12)

    def test_roots_round_trip(self):
        for alpha in (0.01, 0.05, 0.2):
            for t in (30.0, 130.0, 1000.0):
                m_hat = 0.37
                x = normal_quantile(1 - alpha / 2)
                for root in slope_ci(m_hat, 0.0, t, alpha):
                    residual = t * (m_hat - root) ** 2 - x * x * root
                    assert abs(residual) <= 1e-9 * max(1.0, x * x * root)

    @pytest.mark.parametrize("m_hat", [1e-9, 1e-6])
    @pytest.mark.parametrize("t", [1.0, 53.0, 1e4])
    def test_low_root_matches_mpmath(self, m_hat, t):
        # half_sum - half_diff cancels here: 852 relative error at (1e-9, 1)
        x = normal_quantile(0.975)
        with mpmath.workdps(50):
            mm, tt, xx = mpmath.mpf(m_hat), mpmath.mpf(t), mpmath.mpf(x)
            c = xx * xx / (2 * tt)
            exact = mm + c - mpmath.sqrt(c * c + 2 * c * mm)
        low, _ = slope_ci(m_hat, 0.0, t, 0.05)
        assert abs(low - exact) <= 1e-14 * exact

    def test_estimate_with_ci_ordering(self):
        est = estimate_slope_with_ci(SEGMENT2, 0.0, 161.0, 0.05)
        assert 0.0 <= est.ci_low <= est.m_hat <= est.ci_high


class TestConfidenceBands:
    CI = (0.13650, 0.29306)

    def test_zero_grid_point(self):
        band = confidence_bands(self.CI, [0.0, 1.0])
        assert band.lower[0] == 0.0 and band.upper[0] == 0.0

    def test_reference_points(self):
        band = confidence_bands(self.CI, [10.0, 20.0])
        assert band.lower[0] == pytest.approx(0.7446, abs=5e-4)
        assert band.upper[0] == pytest.approx(0.9466, abs=5e-4)
        # practically certain within twenty years
        assert band.lower[1] == pytest.approx(0.9348, abs=5e-4)
        assert band.upper[1] == pytest.approx(0.99715, abs=5e-5)

    def test_band_ordering(self):
        band = confidence_bands(self.CI, np.linspace(0, 50, 100)[1:])
        assert np.all(band.lower <= band.upper)
        assert np.all(np.diff(band.lower) >= 0)
        assert np.all(np.diff(band.upper) >= 0)

    def test_csv_format(self, tmp_path):
        band = confidence_bands(self.CI, [0.0, 10.0])
        out = tmp_path / "bands.csv"
        with open(out, "w") as fp:
            write_bands_csv(band, fp)
        lines = out.read_text().splitlines()
        assert lines[0] == "h,lower,upper"
        assert len(lines) == 3

    def test_csv_blocks_match_per_line_format(self):
        # band values below 1 take the writer's per-cell path, grid values from 1
        # up its table path; rates near 1e-7 print every band value with an exponent
        for ci in (self.CI, (1e-7, 2e-7)):
            band = confidence_bands(ci, np.arange(5000) * 0.01)
            buf = io.StringIO()
            write_bands_csv(band, buf)
            expected = "h,lower,upper\n" + "".join(
                f"{h:.12g},{lo:.12g},{hi:.12g}\n"
                for h, lo, hi in zip(band.grid, band.lower, band.upper))
            assert buf.getvalue() == expected

    @pytest.mark.parametrize("ci", [(1.0, math.nan), (math.nan, 1.0)],
                             ids=["high_nan", "low_nan"])
    def test_bad_rate_is_rejected_in_either_place(self, ci):
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            confidence_bands(ci, [0.0, 1.0])


class TestVerifiers:
    def test_clt_passes_at_long_window(self):
        check = verify_clt(1.0, 1e4, 2000, 0)
        assert check.ks.p_value > 0.001
        assert abs(np.var(check.statistics) - 1.0) < 0.1

    def test_clt_negative_control_short_window(self):
        # at t=1 the count lattice dominates and normality fails badly
        check = verify_clt(1.0, 1.0, 2000, 0)
        assert check.ks.p_value < 0.01

    def test_clt_min_reps(self):
        with pytest.raises(ValueError):
            verify_clt(1.0, 100.0, 50, 0)

    def test_gc_medians_decrease(self):
        check = verify_glivenko_cantelli(1.0, (100.0, 1000.0, 10000.0), 300, 1)
        assert check.medians[0] > check.medians[1] > check.medians[2]
        assert check.medians[0] == pytest.approx(0.04, abs=0.03)

    @pytest.mark.parametrize("reps", [150.5, math.nan], ids=["float", "nan"])
    def test_clt_reps_must_be_an_integer(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer, got "):
            verify_clt(1.0, 100.0, reps, 0)
        a, b = verify_clt(1.0, 100.0, np.int64(150), 0), verify_clt(1.0, 100.0, 150, 0)
        assert np.array_equal(a.statistics, b.statistics) and a.ks == b.ks

    @pytest.mark.parametrize("reps", [2.5, math.nan], ids=["float", "nan"])
    def test_gc_reps_must_be_an_integer(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer, got "):
            verify_glivenko_cantelli(1.0, (10.0, 100.0), reps, 0)
        assert (verify_glivenko_cantelli(1.0, (10.0, 100.0), np.int32(3), 0)
                == verify_glivenko_cantelli(1.0, (10.0, 100.0), 3, 0))

    @pytest.mark.parametrize("reps", [500.5, math.nan], ids=["float", "nan"])
    def test_kolmogorov_reps_must_be_an_integer(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer, got "):
            verify_kolmogorov_limit(1.0, 100.0, reps, 0)
        a = verify_kolmogorov_limit(1.0, 100.0, np.uint16(500), 0)
        b = verify_kolmogorov_limit(1.0, 100.0, 500, 0)
        assert np.array_equal(a.statistics, b.statistics) and a.ks == b.ks

    def test_gc_needs_two_windows(self):
        with pytest.raises(ValueError):
            verify_glivenko_cantelli(1.0, (100.0,), 100, 0)

    def test_kolmogorov_limit(self):
        check = verify_kolmogorov_limit(1.0, 1e4, 2000, 0)
        assert check.ks.p_value > 0.001
        folded_mean = math.exp(-1.0) * math.sqrt(2.0 / math.pi)
        assert abs(np.mean(check.statistics) - folded_mean) < 0.1 * folded_mean

    def test_kolmogorov_min_reps(self):
        with pytest.raises(ValueError):
            verify_kolmogorov_limit(1.0, 100.0, 100, 0)

    def test_poisson_mean_bound(self):
        # numpy draws at its bound and rejects the next double up
        assert verify_clt(_POISSON_MEAN_MAX, 1.0, 100, 0).statistics.size == 100
        with pytest.raises(ValueError, match="largest Poisson mean numpy draws"):
            verify_clt(np.nextafter(_POISSON_MEAN_MAX, np.inf), 1.0, 100, 0)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(_POISSON_MEAN_MAX, np.inf))

    def test_determinism(self):
        a = verify_clt(1.0, 1000.0, 200, 7)
        b = verify_clt(1.0, 1000.0, 200, 7)
        assert np.array_equal(a.statistics, b.statistics)
        assert a.ks == b.ks


VERIFIERS = {
    "clt": lambda m, window: verify_clt(m, window, 100, 0),
    "kolmogorov": lambda m, window: verify_kolmogorov_limit(m, window, 500, 0),
    "gc": lambda m, window: verify_glivenko_cantelli(m, (window, 1e3), 10, 0),
}


@pytest.mark.parametrize("kind", sorted(VERIFIERS))
@pytest.mark.parametrize("m, window, message", [
    *[(m, 100.0, "m must be strictly positive") for m in (0.0, -0.0, -1.0, math.nan)],
    *[(1.0, w, "window lengths must be strictly positive") for w in (0.0, -1.0, math.nan)],
], ids=["m_zero", "m_minus_zero", "m_negative", "m_nan",
        "window_zero", "window_negative", "window_nan"])
def test_every_verifier_checks_rate_and_windows_in_the_draw(kind, m, window, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        VERIFIERS[kind](m, window)


def reference_slope_draws(m, tau, reps, seed, offset):
    """Window-at-a-time draws: replicate i of the window starting at
    replicate ``offset`` reads substream(seed, offset + i)."""
    counts = [substream(seed, offset + i).poisson(m * tau) for i in range(reps)]
    return np.array(counts, dtype=float) / tau


@settings(max_examples=100, deadline=None)
@given(m=st.floats(1e-3, 1e3), seed=st.integers(0, 2**64 - 1),
       windows=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=300))
def test_slope_draws_equal_the_per_generator_loop(m, seed, windows):
    windows = np.array(windows)
    counts = [g.poisson(m * w) for g, w in zip(substreams(seed, len(windows)), windows)]
    expected = np.array(counts, dtype=float) / windows
    got = _slope_draws(m, windows, seed)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def poisson_cells(mean, n):
    """Starts s_j of integer cells [s_j, s_{j+1}), the last unbounded, each
    expected to hold at least 5 of n Poisson(mean) counts, and the cells'
    probabilities."""
    cdf = stats.poisson.cdf(np.arange(int(stats.poisson.isf(1e-12, mean)) + 1), mean)
    starts, below = [0], 0.0
    for k, c in enumerate(cdf):
        if n * (c - below) >= 5:
            starts.append(k + 1)
            below = c
    starts = np.array(starts)
    if n * stats.poisson.sf(starts[-1] - 1, mean) < 5:
        starts = starts[:-1]  # a thin tail joins the cell before it
    return starts, np.diff(stats.poisson.cdf(starts - 1, mean), append=1.0)


@pytest.mark.parametrize("mean", [3.0, 1e4])
def test_slope_draws_follow_the_poisson_law(mean):
    # seed and threshold fixed before the test first ran
    n, window = 10**4, 3.0
    windows = np.full(n, window)
    counts = np.rint(_slope_draws(mean / window, windows, 0) * windows)
    starts, probs = poisson_cells(mean, n)
    observed = np.bincount(starts.searchsorted(counts, side="right") - 1,
                           minlength=starts.size)
    assert stats.chisquare(observed, n * probs).pvalue > 0.001


class TestVerifierDraws:
    """The verifiers draw replicate i from substream i of the seed; pinned
    against one window at a time, at a replicate count that is not round."""

    def test_gc_medians(self):
        m, taus, reps, seed = 1.3, (50.0, 400.0, 3000.0), 137, 11
        expected = []
        for j, tau in enumerate(taus):
            m_hats = reference_slope_draws(m, tau, reps, seed, j * reps)
            expected.append(float(np.median([sup_distance_exp(mh, m) for mh in m_hats])))
        assert verify_glivenko_cantelli(m, taus, reps, seed).medians == tuple(expected)

    def test_clt_statistics(self):
        m, t, reps, seed = 0.8, 700.0, 113, 5
        stats = math.sqrt(t) * (reference_slope_draws(m, t, reps, seed, 0) - m)
        check = verify_clt(m, t, reps, seed)
        assert np.array_equal(check.statistics, stats)
        assert check.ks == ks_test(stats, lambda x: normal_cdf(x / math.sqrt(m)))

    def test_kolmogorov_statistics(self):
        m, tau, reps, seed = 1.7, 900.0, 523, 2
        m_hats = reference_slope_draws(m, tau, reps, seed, 0)
        stats = math.sqrt(tau) * np.array([sup_distance_exp(mh, m) for mh in m_hats])
        sigma = math.exp(-1.0) / math.sqrt(m)
        check = verify_kolmogorov_limit(m, tau, reps, seed)
        assert np.array_equal(check.statistics, stats)
        assert check.ks == ks_test(stats, lambda x: folded_normal_cdf(x, sigma))
