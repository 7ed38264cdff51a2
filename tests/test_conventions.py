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
from quakewait.intensity import IntensityModel
from quakewait.inference import (random_cdf, slope_ci, verify_clt,
                                 verify_glivenko_cantelli, verify_kolmogorov_limit)
from quakewait.limitlaw import (WaitingLaw, breakpoints, conditional_cdf, limit_cdf,
                                sup_distance_exp)
from quakewait.statfn import folded_normal_cdf, normal_cdf

# criterion 9's model, plus a zero-rate stretch for the inverse
MODEL = IntensityModel.piecewise([(0.0, 2.0), (1.0, 0.0), (2.0, 1.0)])
LAW = WaitingLaw(20.0, 10, 1.0)
ECDF = EmpiricalCdf((10, 12, 15, 47))

# functions of one nonnegative argument, each checked by the shared test
NONNEG = {
    "rate": MODEL.rate,
    "cif": MODEL.cif,
    "cif_inverse": MODEL.cif_inverse,
    "limit_cdf": lambda h: limit_cdf(0.5, h),
    "random_cdf": lambda h: random_cdf(0.0, h),
    "conditional_cdf": lambda h: conditional_cdf(LAW, h),
    "empirical_cdf": ECDF,
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
], ids=["limit_cdf_m", "random_cdf_m", "waiting_law_t", "waiting_law_m",
        "breakpoints_m", "sup_distance_a", "sup_distance_b", "slope_ci_m_hat",
        "slope_ci_tau_star", "slope_ci_tau", "model_tail_start", "model_tail_rate",
        "model_breakpoint", "verify_clt_m", "verify_clt_t", "verify_kolmogorov_m",
        "verify_kolmogorov_tau", "verify_gc_m", "verify_gc_tau", "major_threshold"])
def test_nan_parameter_is_rejected(call):
    # our own message, not one numpy raises further in
    with pytest.raises(ValueError, match="must"):
        call()


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
