import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from quakewait import IntensityModel
from quakewait.limitlaw import limit_cdf
from quakewait.nhpp import (_DIGITS, EventTimes, _write_csv, jump_time_pdf, read_events_csv,
                            sample_jump_times, simulate_path, write_events_csv)
from quakewait.rng import substream
from quakewait.statfn import ks_test


class TestEventTimes:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventTimes(np.array([0.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            EventTimes(np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            EventTimes(np.array([1.0, 3.0]), 2.0)

    @pytest.mark.parametrize("times, horizon, message", [
        ((0.5, math.nan, 3.0), 10.0, "strictly increasing"),
        ((math.nan, 1.0, 3.0), 10.0, "strictly positive"),
        ((0.5, 1.0, math.nan), 10.0, "strictly increasing"),
        ((math.nan,), 10.0, "strictly positive"),
        ((0.5, 1.0), math.nan, "horizon must be finite and nonnegative"),
        ((), math.nan, "horizon must be finite and nonnegative"),
        ((), -1.0, "horizon must be finite and nonnegative"),
        ((1.0,), math.inf, "horizon must be finite and nonnegative"),
        ((math.inf,), math.inf, "horizon must be finite and nonnegative"),
        ((), math.inf, "horizon must be finite and nonnegative"),
    ], ids=["nan_inside", "nan_first", "nan_last", "nan_only", "nan_horizon",
            "nan_horizon_empty", "negative_horizon", "inf_horizon", "inf_time",
            "inf_horizon_empty"])
    def test_nan_or_negative_is_rejected(self, times, horizon, message):
        with pytest.raises(ValueError, match=message):
            EventTimes(times, horizon)

    def test_counts(self):
        ev = EventTimes(np.array([1.0, 2.0, 3.0]), 5.0)
        assert ev.count_at(2.0) == 2
        assert ev.count_in(1.0, 3.0) == 2  # event at the left edge excluded


class TestSimulatePath:
    def test_zero_horizon(self, constant_model):
        assert len(simulate_path(constant_model, 0.0, 1)) == 0

    def test_law_of_large_numbers(self, constant_model):
        ev = simulate_path(constant_model, 1e4, 7)
        assert abs(len(ev) / 1e4 - 1.0) < 0.05

    def test_mean_count_matches_cif(self, piecewise_model):
        horizon = 10.0
        expected = piecewise_model.cif(horizon)  # 11
        counts = [len(simulate_path(piecewise_model, horizon, substream(11, i)))
                  for i in range(2000)]
        se = math.sqrt(expected / 2000)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_determinism(self, piecewise_model):
        a = simulate_path(piecewise_model, 50.0, 123)
        b = simulate_path(piecewise_model, 50.0, 123)
        assert np.array_equal(a.times, b.times)

    def test_disjoint_counts_uncorrelated(self, constant_model):
        n = 5000
        first, second = [], []
        for i in range(n):
            ev = simulate_path(constant_model, 3.0, substream(5, i))
            first.append(ev.count_in(0.0, 1.0))
            second.append(ev.count_in(1.0, 3.0))
        first, second = np.array(first), np.array(second)
        cov = np.cov(first, second)[0, 1]
        se = math.sqrt(first.var() * second.var() / n)
        assert abs(cov) < 4 * se


class TestJumpTimePdf:
    def test_first_jump_at_zero(self, constant_model):
        assert jump_time_pdf(constant_model, 1, 0.0) == 1.0

    def test_negative_time(self, constant_model):
        assert jump_time_pdf(constant_model, 10, -1.0) == 0.0

    def test_gamma_shape_ten(self, constant_model):
        oracle = 9.0**9 * math.exp(-9.0) / math.factorial(9)
        assert jump_time_pdf(constant_model, 10, 9.0) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.1318, abs=5e-5)

    def test_invalid_k(self, constant_model):
        with pytest.raises(ValueError):
            jump_time_pdf(constant_model, 0, 1.0)

    def test_large_k_no_overflow(self, constant_model):
        assert jump_time_pdf(constant_model, 500, 500.0) > 0.0

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_normalization(self, k, constant_model, piecewise_model):
        for model in (constant_model, piecewise_model):
            val, _ = integrate.quad(lambda t: jump_time_pdf(model, k, t),
                                    0, np.inf, limit=200)
            assert abs(val - 1.0) <= 1e-6


class TestSampleJumpTimes:
    def test_first_jump_exponential(self, constant_model):
        samples = sample_jump_times(constant_model, 1, 10_000, 3)
        res = ks_test(samples, lambda x: limit_cdf(1.0, x))
        assert res.p_value > 0.01

    def test_transformed_moment(self, constant_model):
        k, n = 10, 10_000
        samples = sample_jump_times(constant_model, k, n, 4)
        transformed = constant_model.cif(samples)
        assert abs(transformed.mean() - k) < 3 * math.sqrt(k / n)

    def test_histogram_matches_density(self, constant_model):
        k, n = 10, 20_000
        samples = sample_jump_times(constant_model, k, n, 5)
        hist, edges = np.histogram(samples, bins=30, range=(2, 20), density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dens = np.array([jump_time_pdf(constant_model, k, t) for t in mids])
        assert np.max(np.abs(hist - dens)) < 0.02


class TestCsv:
    def test_round_trip(self, piecewise_model):
        ev = simulate_path(piecewise_model, 20.0, 9)
        buf = io.StringIO()
        write_events_csv(ev, buf)
        buf.seek(0)
        back = read_events_csv(buf, horizon=20.0)
        assert np.allclose(back.times, ev.times, rtol=1e-11)

    def test_nan_row_is_rejected(self):
        with pytest.raises(ValueError, match="line 3: event time 'nan' is NaN"):
            read_events_csv(io.StringIO("time\n0.5\nnan\n3\n"), 10.0)

    @pytest.mark.parametrize("text, message", [
        ("time\n1.0\nabc\n", "line 3: event time 'abc' is not a number"),
        ("time\n-1\n2\n", "line 2: event time '-1' is not strictly positive"),
        ("time\n1\n\n0.5\n", "line 4: event time '0.5' does not exceed the event time before"),
        ("time\n1\n1\n", "line 3: event time '1' does not exceed the event time before"),
        ("time\n1\ninf\n", "line 3: event time 'inf' exceeds the horizon 10.0"),
    ], ids=["not_a_number", "negative", "decreasing", "repeated", "inf"])
    def test_bad_row_is_named_by_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_events_csv(io.StringIO(text), 10.0)

    def test_bad_horizon_is_reported_before_the_rows(self):
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            read_events_csv(io.StringIO("time\nabc\n"), math.nan)

    @pytest.mark.parametrize("seed", [138, 189])
    def test_round_trip_of_neighbours_twelve_digits_cannot_part(self, seed):
        # each of these paths holds two events that print alike at 12 digits
        ev = simulate_path(IntensityModel.constant(1.0), 1e5, seed)
        back = _round_trip(ev)
        assert len(back) == len(ev)
        assert np.allclose(back.times, ev.times, rtol=1e-11, atol=0.0)

    def test_header(self):
        buf = io.StringIO()
        write_events_csv(EventTimes(np.empty(0), 0.0), buf)
        assert buf.getvalue() == "time\n"

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10_000])
    def test_blocks_match_per_line_format(self, n):
        # fourteen decades, so both fixed and exponent notation appear
        rng = np.random.default_rng(n)
        times = np.geomspace(1e-7, 1e7, n) * rng.uniform(1.0, 1.001, size=n)
        buf = io.StringIO()
        write_events_csv(EventTimes(times, float(times[-1]) if n else 0.0), buf)
        rows = [f"{t:.12g}\n" for t in times]
        if n and float(rows[-1]) > times[-1]:  # rounded past the horizon: exact
            rows[-1] = f"{times[-1]:.17g}\n"
        assert buf.getvalue() == "time\n" + "".join(rows)


def _round_trip(ev):
    buf = io.StringIO()
    write_events_csv(ev, buf)
    buf.seek(0)
    return read_events_csv(buf, ev.horizon)


@settings(max_examples=200, deadline=None)
@given(base=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=20))
def test_neighbours_one_ulp_apart_read_back(base):
    x = np.array(base)
    times = np.unique(np.concatenate([x, np.nextafter(x, np.inf)]))
    # every time has a neighbour one ulp away, so every row is written exactly
    assert np.array_equal(_round_trip(EventTimes(times, float(times[-1]))).times, times)


@settings(max_examples=200, deadline=None)
@given(base=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=20),
       rel=st.floats(0.0, 1e-11))
def test_neighbours_within_a_unit_of_the_twelfth_digit_read_back(base, rel):
    x = np.array(base)
    times = np.unique(np.concatenate([x, np.maximum(np.nextafter(x, np.inf), x * (1 + rel))]))
    back = _round_trip(EventTimes(times, float(times[-1])))
    assert np.allclose(back.times, times, rtol=1e-11, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(horizon=st.floats(1e-300, 1e300), ulps=st.integers(0, 1))
def test_last_event_within_one_ulp_of_a_long_horizon_reads_back(horizon, ulps):
    assume(float(f"{horizon:.12g}") != horizon)  # more than 12 digits
    last = np.nextafter(horizon, 0.0) if ulps else horizon
    back = _round_trip(EventTimes((last / 2, last), horizon))
    assert np.allclose(back.times, (last / 2, last), rtol=1e-11, atol=0.0)


# values whose text is easy to get wrong: signed zero and NaN, infinities,
# subnormals and the extremes of the normal range; then values in [1, 1e12),
# where the table path decides: no point, trailing zeros, an exact tie at the
# 12th digit, one that carries to 1e11 and one just short of 1e12
_ODD_FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                               5e-324, -2.5e-310, 2.2250738585072014e-308,
                               1.7976931348623157e308, 1e-5, 1e16, 123456789012.5,
                               1.0, 1.5, 10.0, 100.25, 1.5e11, 1234567890.125,
                               99999999999.99998, 999999999999.4])


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("ncols", [1, 3])
@settings(max_examples=10, deadline=None)
@given(pool=st.lists(st.floats() | _ODD_FLOATS, min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_matches_per_row_format(ncols, n, pool, seed):
    """The block writer's rows equal one ``str.format`` per row, with 17
    digits in the ``exact`` rows."""
    rng = np.random.default_rng(seed)
    columns = [rng.choice(np.array(pool), size=n) for _ in range(ncols)]
    exact = np.flatnonzero(rng.random(n) < 0.01)
    buf = io.StringIO()
    _write_csv(buf, "head\n", *columns, exact=exact)
    exact = set(exact.tolist())
    fmt = {1: ("{:.12g}\n", "{:.17g}\n"),
           3: ("{:.12g},{:.12g},{:.12g}\n", "{:.17g},{:.17g},{:.17g}\n")}[ncols]
    expected = "head\n" + "".join(
        fmt[i in exact].format(*vals)
        for i, vals in enumerate(zip(*(c.tolist() for c in columns))))
    assert buf.getvalue() == expected


def _decision_values(family):
    """Seeded values on both sides of each choice the table path makes."""
    rng = np.random.default_rng(20160)
    if family == "uniform":
        return rng.uniform(1.0, 1e12, 4 * 10 ** 5)
    if family == "eighths_and_sixteenths":  # exact decimal ties such as 1234567890.125
        n = np.floor(10.0 ** rng.uniform(0.0, 13.0, 4 * 10 ** 5))
        return np.concatenate([n[::2] / 8, n[1::2] / 16])
    if family == "powers_of_ten":
        powers = np.array([float(f"1e{k}") for k in range(-6, 14)])
        return np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    # x * 10**-j for twelve-digit x and for the ties halfway between them,
    # which binary64 holds only to the nearest double: these scale to within
    # a few units of the last place of an integer or of a half-integer
    x = rng.integers(1, 10 ** 12, 15_000) + np.array([[0.0], [0.5]])
    return np.concatenate([x.ravel() / 10.0 ** j for j in range(12)])


@pytest.mark.parametrize("family", ["uniform", "eighths_and_sixteenths",
                                    "powers_of_ten", "twelve_digit_decimals"])
def test_write_csv_matches_percent_where_the_table_path_decides(family):
    x = _decision_values(family)
    buf = io.StringIO()
    _write_csv(buf, "head\n", x)
    assert buf.getvalue().splitlines()[1:] == ["%.12g" % v for v in x.tolist()]


def test_digit_table_equals_a_python_loop():
    table = np.array([[s[:c] if b == 0 else s[:b] + b"." + s[b:c]
                       for b in range(4) for c in range(4)]
                      for s in (b"%03d" % g for g in range(1000))], dtype="S4")
    assert np.array_equal(_DIGITS, table.view("<u4").ravel())
