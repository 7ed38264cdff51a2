"""The package-wide input conventions: a scalar in gives a float out, an
array keeps its shape, and negative or NaN times, rates and waiting times
raise ValueError."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from quakewait.catalog import EmpiricalCdf, segment_by_major
from quakewait.gof import bin_percentages, chi_square_stat, gof_pvalue
from quakewait.intensity import IntensityModel
from quakewait.inference import (confidence_bands, estimate_slope, path_log_likelihood,
                                 random_cdf, slope_ci, verify_clt,
                                 verify_glivenko_cantelli, verify_kolmogorov_limit)
from quakewait.limitlaw import (WaitingLaw, breakpoints, conditional_cdf, limit_cdf,
                                sup_distance_exp)
from quakewait.nhpp import EventTimes, jump_time_pdf
from quakewait.statfn import (chi2_sf, folded_normal_cdf, kolmogorov_sf, ks_test,
                              normal_cdf, reg_lower_incomplete_gamma,
                              reg_upper_incomplete_gamma)

# criterion 9's model, plus a zero-rate stretch for the inverse
MODEL = IntensityModel.piecewise([(0.0, 2.0), (1.0, 0.0), (2.0, 1.0)])
LAW = WaitingLaw(20.0, 10, 1.0)
ECDF = EmpiricalCdf((10, 12, 15, 47))
EVENTS = EventTimes((0.5, 1.5, 3.0), 10.0)

# functions of one nonnegative argument, each checked by the shared test
NONNEG = {
    "rate": MODEL.rate,
    "cif": MODEL.cif,
    "cif_inverse": MODEL.cif_inverse,
    "limit_cdf": lambda h: limit_cdf(0.5, h),
    "random_cdf": lambda h: random_cdf(0.0, h),
    "conditional_cdf": lambda h: conditional_cdf(LAW, h),
    "empirical_cdf": ECDF,
    "sup_distance_exp": lambda rate: sup_distance_exp(rate, 0.5),
}
ANY_REAL = {
    "normal_cdf": normal_cdf,
    "folded_normal_cdf": lambda x: folded_normal_cdf(x, 0.7),
}
ALL = {**NONNEG, **ANY_REAL}

values = st.floats(0.0, 1e3)
shaped = arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=4),
                elements=values)


@pytest.mark.parametrize("name", sorted(ALL))
@settings(max_examples=30, deadline=None)
@given(x=values, arr=shaped)
def test_scalar_gives_float_and_array_keeps_shape(name, x, arr):
    fn = ALL[name]
    if name in ANY_REAL:  # negative arguments are valid here
        x, arr = x - 500.0, arr - 500.0
    assert type(fn(x)) is float
    assert type(fn(np.float64(x))) is float
    assert type(fn(np.array(x))) is float
    out = fn(arr)
    assert isinstance(out, np.ndarray) and out.shape == arr.shape
    assert np.array_equal(out, np.array([fn(v) for v in arr.ravel()]).reshape(arr.shape))


@pytest.mark.parametrize("name", sorted(NONNEG))
@given(bad=st.one_of(st.floats(max_value=-1e-300), st.just(math.nan)),
       arr=shaped)
@settings(max_examples=20, deadline=None)
def test_negative_or_nan_raises(name, bad, arr):
    fn = NONNEG[name]
    with pytest.raises(ValueError, match="must be nonnegative"):
        fn(bad)
    arr.flat[-1] = bad
    with pytest.raises(ValueError, match="must be nonnegative"):
        fn(arr)


# NaN rates, times and model parameters; NaN arguments of the functions
# above are covered by test_negative_or_nan_raises
@pytest.mark.parametrize("call", [
    lambda: limit_cdf(math.nan, 1.0),
    lambda: random_cdf(math.nan, 1.0),
    lambda: WaitingLaw(math.nan, 1, 1.0),
    lambda: WaitingLaw(20.0, 1, math.nan),
    lambda: breakpoints(math.nan, 10),
    lambda: sup_distance_exp(math.nan, 1.0),
    lambda: sup_distance_exp(1.0, math.nan),
    lambda: slope_ci(math.nan, 0.0, 100.0, 0.05),
    lambda: slope_ci(0.2, math.nan, 100.0, 0.05),
    lambda: slope_ci(0.2, 0.0, math.nan, 0.05),
    lambda: IntensityModel((0.0,), (1.0,), math.nan, 1.0),
    lambda: IntensityModel((0.0,), (1.0,), 0.0, math.nan),
    lambda: IntensityModel.piecewise([(0.0, 2.0), (math.nan, 1.0)]),
    lambda: verify_clt(math.nan, 100.0, 100, 0),
    lambda: verify_clt(1.0, math.nan, 100, 0),
    lambda: verify_kolmogorov_limit(math.nan, 100.0, 500, 0),
    lambda: verify_kolmogorov_limit(1.0, math.nan, 500, 0),
    lambda: verify_glivenko_cantelli(math.nan, (10.0, 100.0), 10, 0),
    lambda: verify_glivenko_cantelli(1.0, (10.0, math.nan), 10, 0),
    lambda: segment_by_major([], math.nan),
    lambda: bin_percentages([0.1, math.nan, 0.3], [0.2]),
    lambda: bin_percentages([0.1, 0.3], [math.nan]),
    lambda: chi_square_stat([math.nan] + [10.0] * 9),
    lambda: gof_pvalue(math.nan),
    lambda: chi2_sf(math.nan, 9),
    lambda: reg_lower_incomplete_gamma(math.nan, 1.0),
    lambda: reg_upper_incomplete_gamma(1.0, math.nan),
    lambda: estimate_slope(EVENTS, math.nan, 5.0),
    lambda: estimate_slope(EVENTS, 0.0, math.nan),
    lambda: path_log_likelihood(EVENTS, MODEL, math.nan),
    lambda: folded_normal_cdf(1.0, math.nan),
    lambda: kolmogorov_sf(math.nan),
    lambda: ks_test([math.nan, 0.5, 0.2], lambda x: x),
    lambda: ks_test([0.1, 0.5, 0.2], lambda x: np.where(x > 0.3, math.nan, x)),
    lambda: confidence_bands((1.0, math.nan), [0.0, 1.0]),
    lambda: confidence_bands((math.nan, 1.0), [0.0, 1.0]),
], ids=["limit_cdf_m", "random_cdf_m", "waiting_law_t", "waiting_law_m",
        "breakpoints_m", "sup_distance_a", "sup_distance_b", "slope_ci_m_hat",
        "slope_ci_tau_star", "slope_ci_tau", "model_tail_start", "model_tail_rate",
        "model_breakpoint", "verify_clt_m", "verify_clt_t", "verify_kolmogorov_m",
        "verify_kolmogorov_tau", "verify_gc_m", "verify_gc_tau", "major_threshold",
        "bin_sample", "bin_cut", "chi_square_stat", "gof_pvalue", "chi2_sf",
        "lower_gamma_s", "upper_gamma_x", "estimate_slope_tau_star",
        "estimate_slope_tau", "log_likelihood_t", "folded_normal_sigma",
        "kolmogorov_sf", "ks_test_sample", "ks_test_cdf", "bands_high_nan",
        "bands_low_nan"])
def test_nan_parameter_is_rejected(call):
    # our own message, not one numpy raises further in
    with pytest.raises(ValueError, match="must"):
        call()


# finite parameters whose product overflows, or passes what numpy can draw,
# and infinite parameters with no limit value
@pytest.mark.parametrize("call, match", [
    (lambda: WaitingLaw(1e300, 2, 1e300), "m\\*t must be finite"),
    (lambda: WaitingLaw(1e300, 1, 1e300), "m\\*t must be finite"),
    (lambda: verify_clt(1e300, 1e300, 100, 0), "m \\* window must be at most"),
    (lambda: verify_clt(1e10, 1e10, 100, 0), "m \\* window must be at most"),
    (lambda: verify_kolmogorov_limit(1e10, 1e10, 500, 0), "m \\* window must be at most"),
    (lambda: verify_glivenko_cantelli(1e10, (10.0, 1e10), 10, 0),
     "m \\* window must be at most"),
    (lambda: slope_ci(math.inf, 0.0, 10.0, 0.05), "m_hat must be nonnegative and finite"),
    (lambda: breakpoints(math.inf, 4), "m must be finite and strictly positive"),
    (lambda: path_log_likelihood(EVENTS, MODEL, math.inf), "t must be finite"),
    (lambda: path_log_likelihood(EVENTS, IntensityModel.piecewise([(0.0, 2.0), (1.0, 0.5)]),
                                 math.inf), "t must be finite"),
    (lambda: EventTimes((1.0,), math.inf), "horizon must be finite"),
], ids=["waiting_law", "waiting_law_k1", "verify_clt_inf", "verify_clt",
        "verify_kolmogorov", "verify_gc", "slope_ci_m_hat_inf", "breakpoints_m_inf",
        "log_likelihood_t_inf", "log_likelihood_t_inf_tail_half", "event_horizon_inf"])
def test_overflowing_parameter_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# an infinite rate or time where the value has a limit: 0 * inf is not NaN
@pytest.mark.parametrize("call, expected", [
    (lambda: random_cdf(math.inf, 0.0), 0.0),
    (lambda: random_cdf(0.0, math.inf), 0.0),
    (lambda: limit_cdf(math.inf, np.array([0.0, 2.0])).tolist(), [0.0, 1.0]),
    (lambda: confidence_bands((math.inf, 1.0), [0.0, 1.0]).upper.tolist(), [0.0, 1.0]),
    (lambda: jump_time_pdf(MODEL, 3, math.inf), 0.0),
    (lambda: jump_time_pdf(MODEL, 1, math.inf), 0.0),
], ids=["random_cdf_inf_rate_at_0", "random_cdf_zero_rate_at_inf", "limit_cdf_inf_rate",
        "bands_inf_rate", "jump_time_pdf_k3", "jump_time_pdf_k1"])
def test_infinite_parameter_gives_the_limit(call, expected):
    # pytest's settings turn a RuntimeWarning into an error
    assert call() == expected


def test_infinity_is_accepted():
    assert MODEL.rate(math.inf) == 1.0
    assert MODEL.cif(math.inf) == math.inf
    assert MODEL.cif_inverse(math.inf) == math.inf
    assert limit_cdf(1.0, math.inf) == 1.0
    assert conditional_cdf(WaitingLaw(20.0, 1, 1.0), math.inf) == 1.0
    assert conditional_cdf(LAW, math.inf) == 1.0  # k = 10
    assert np.array_equal(conditional_cdf(LAW, np.array([math.inf, 0.0])), [1.0, 0.0])
    assert slope_ci(0.0, 0.0, math.inf, 0.05) == (0.0, 0.0)
    assert slope_ci(0.2, 0.0, math.inf, 0.05) == pytest.approx((0.2, 0.2), rel=1e-15)
    assert random_cdf(math.inf, 1.0) == 1.0
    assert sup_distance_exp(1.0, math.inf) == 1.0
    assert np.array_equal(sup_distance_exp(np.array([0.0, 1.0, math.inf]), math.inf),
                          [1.0, 1.0, 0.0])
