import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special, stats

from quakewait import statfn
from quakewait.statfn import (ConvergenceError, chi2_sf, folded_normal_cdf,
                              kolmogorov_sf, ks_test, normal_cdf, normal_quantile,
                              reg_lower_incomplete_gamma, reg_upper_incomplete_gamma)


def gamma_cdf_quadrature(s, x):
    val, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0, x,
                            epsabs=1e-13, limit=400)
    return val / math.gamma(s)


class TestIncompleteGamma:
    def test_zero(self):
        assert reg_lower_incomplete_gamma(2.5, 0.0) == 0.0

    def test_exponential_case(self):
        assert reg_lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12)

    def test_vs_quadrature(self):
        assert reg_lower_incomplete_gamma(4.5, 8.25) == pytest.approx(
            gamma_cdf_quadrature(4.5, 8.25), abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(1.0, -1.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 4.5, 1e6])
    def test_infinite_x(self, s):
        assert reg_lower_incomplete_gamma(s, math.inf) == 1.0
        assert reg_upper_incomplete_gamma(s, math.inf) == 0.0

    @pytest.mark.parametrize("s", [math.inf, -math.inf])
    def test_infinite_s_rejected(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            reg_lower_incomplete_gamma(s, 1.0)

    @pytest.mark.parametrize("s, x", [(4.5, 3.0), (4.5, 8.25)],
                             ids=["series", "continued_fraction"])
    def test_iteration_cap_raises(self, monkeypatch, s, x):
        monkeypatch.setattr(statfn, "_GAMMA_ITMAX", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            reg_lower_incomplete_gamma(s, x)

    def test_monotone_in_x(self):
        s = 3.3
        vals = [reg_lower_incomplete_gamma(s, x) for x in np.linspace(0, 20, 50)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestChi2Sf:
    def test_reference_value(self):
        assert chi2_sf(16.50, 9) == pytest.approx(0.057, abs=2e-3)

    def test_at_zero(self):
        assert chi2_sf(0.0, 9) == 1.0

    def test_at_infinity(self):
        assert chi2_sf(math.inf, 9) == 0.0

    @pytest.mark.parametrize("x", [1.0, 5.0, 10.0])
    def test_two_dof_closed_form(self, x):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-10)

    def test_nonincreasing(self):
        vals = [chi2_sf(x, 9) for x in np.linspace(0, 40, 80)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("df", [30_000, 200_000, 1_000_000])
    @pytest.mark.parametrize("sds", [-3.0, 0.0, 3.0])
    def test_large_df_matches_scipy(self, df, sds):
        # the series needs about 8.6 sqrt(df / 2) terms at the mean, more
        # than _GAMMA_ITMAX above df = 27,000
        x = df + sds * math.sqrt(2.0 * df)
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-13)

    @pytest.mark.parametrize("df", [200_000, 1_000_000])
    @pytest.mark.parametrize("sds", [-3.0, 0.0, 3.0])
    def test_large_df_matches_mpmath(self, df, sds):
        # the direct prefactor exp(-x + s log x - lgamma(s)) loses about
        # 2e-10 here to cancellation
        x = df + sds * math.sqrt(2.0 * df)
        with mpmath.workdps(40):
            expected = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                       mpmath.inf, regularized=True)
        assert chi2_sf(x, df) == pytest.approx(float(expected), abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 9)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestNormalQuantile:
    def test_two_sided_95(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.01, 0.9])
    def test_round_trip_with_quadrature_cdf(self, p):
        x = normal_quantile(p)
        val, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi),
            -np.inf, x, epsabs=1e-12)
        assert val == pytest.approx(p, abs=1e-7)

    def test_domain(self):
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-12)

    @pytest.mark.parametrize("p", [
        np.geomspace(1e-300, 0.02425, 2000),             # lower tail
        np.linspace(0.02425, 0.97575, 2001),             # centre
        1.0 - np.geomspace(1e-15, 1.0 - 0.97575, 2000),  # upper tail
    ], ids=["lower_tail", "centre", "upper_tail"])
    def test_matches_scipy(self, p):
        # a rational approximation with one Halley step was 8.4e-9 off in
        # the upper tail
        x = np.array([normal_quantile(v) for v in p])
        err = np.abs(x - stats.norm.ppf(p)) / np.maximum(1.0, np.abs(x))
        assert err.max() <= 4e-15


class TestKolmogorovSf:
    def test_matches_scipy(self):
        # the alternating series alone does not converge below about 0.03
        # (0.110 at 0.002, 0.945 at 0.01)
        lams = np.concatenate([np.geomspace(1e-4, 10.0, 400), [0.002, 0.005, 0.01, 1.0]])
        got = np.array([kolmogorov_sf(lam) for lam in lams])
        assert np.max(np.abs(got - special.kolmogorov(lams))) <= 1e-14

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_argument(self, lam):
        assert kolmogorov_sf(lam) == 1.0

    def test_perfect_uniform_grid(self):
        n = 62_500
        res = ks_test((np.arange(1, n + 1) - 0.5) / n, lambda x: x)
        assert res.p_value == 1.0


class TestKsTest:
    def test_centered_quantile_samples(self):
        n = 100
        samples = (np.arange(1, n + 1) - 0.5) / n
        res = ks_test(samples, lambda x: x)
        assert res.statistic == pytest.approx(0.5 / n, abs=1e-12)

    def test_single_midpoint(self):
        res = ks_test([0.5], lambda x: np.asarray(x))
        assert res.statistic == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_test([], lambda x: x)

    def test_uniform_calibration(self):
        passes = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            res = ks_test(rng.random(10_000), lambda x: x)
            passes += res.p_value > 0.001
        assert passes >= 9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        samples = rng.random(500)
        base = ks_test(samples, lambda x: x)
        transformed = ks_test(np.exp(samples), lambda x: np.log(x))
        assert transformed.statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_normal_cdf_helper(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def per_element_phi(x):
    """The standard normal CDF one element at a time, as plain floats."""
    x_arr = np.asarray(x, dtype=float)
    out = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x_arr.ravel().tolist()]
    return np.array(out, dtype=float).reshape(x_arr.shape)


def same_bits(got, expected):
    got_arr, exp_arr = np.asarray(got), np.asarray(expected)
    return (got_arr.dtype == exp_arr.dtype and got_arr.shape == exp_arr.shape
            and got_arr.tobytes() == exp_arr.tobytes())


# every double but NaN, ±inf and the subnormals included, and densely the
# range where Phi is neither 0 nor 1, where a last-bit change shows
doubles = st.one_of(st.floats(allow_nan=False, allow_subnormal=True), st.floats(-40, 10))
double_arrays = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                           elements=doubles)


class TestNormalCdfBits:
    """The ufunc form equals the per-element erfc form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(x=doubles)
    def test_scalar(self, x):
        got = normal_cdf(x)
        assert type(got) is float
        assert same_bits(got, per_element_phi(x))
        assert type(normal_cdf(np.array(x))) is float

    @settings(max_examples=200, deadline=None)
    @given(x=double_arrays)
    def test_arrays(self, x):
        got = normal_cdf(x)
        if x.ndim == 0:
            assert type(got) is float
        assert same_bits(got, per_element_phi(x))

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                        elements=st.floats(-1e300, 1e300)),
           sigma=st.floats(1e-3, 1e3))
    def test_folded(self, x, sigma):
        ref = np.where(x < 0, 0.0, np.clip(2.0 * per_element_phi(x / sigma) - 1.0, 0.0, 1.0))
        got = folded_normal_cdf(x, sigma)
        if x.ndim == 0:
            assert type(got) is float
        assert same_bits(got, ref)

    @pytest.mark.parametrize("x", [
        [], [[]], np.empty((2, 0)), [math.inf, -math.inf], [0.0, -0.0, 5e-324, -5e-324],
        [-38.4, -38.5, -40.0, 8.3, 8.4]])
    def test_edges(self, x):
        assert same_bits(normal_cdf(x), per_element_phi(x))
        assert same_bits(folded_normal_cdf(x, 1.0), np.where(
            np.asarray(x) < 0, 0.0, np.clip(2.0 * per_element_phi(x) - 1.0, 0.0, 1.0)))

    def test_dense_draws(self):
        x = np.random.default_rng(0).normal(scale=4.0, size=(200, 100))
        assert same_bits(normal_cdf(x), per_element_phi(x))

    def test_infinities_as_scalars(self):
        assert normal_cdf(math.inf) == 1.0 and normal_cdf(-math.inf) == 0.0
        assert folded_normal_cdf(math.inf, 2.0) == 1.0

    def test_folded_ratio_overflow(self):
        # x / sigma overflows to inf, where Phi is 1; pytest turns a warning into an error
        assert folded_normal_cdf(1.8e8, 1e-300) == 1.0
        got = folded_normal_cdf([1.8e8, -1.8e8, 1e-300, 0.0], 1e-300)
        assert same_bits(got, [1.0, 0.0, folded_normal_cdf(1.0, 1.0), 0.0])
