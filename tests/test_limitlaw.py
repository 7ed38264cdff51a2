import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakewait import limitlaw
from quakewait.limitlaw import (ValidityError, WaitingLaw, breakpoints,
                                conditional_cdf, limit_cdf, sample_conditional,
                                sup_distance_exp)
from quakewait.nhpp import jump_time_pdf
from quakewait.statfn import ConvergenceError, ks_test

# equiprobable decile cut points of the unit-rate exponential
DECILE_CUTS = (0.1053605, 0.2231436, 0.3566749, 0.5108256, 0.6931472,
               0.9162907, 1.2039728, 1.6094379, 2.3025851)


class TestLimitCdf:
    def test_first_decile(self):
        assert limit_cdf(1.0, 0.1053605) == pytest.approx(0.1, abs=1e-7)

    def test_zero(self):
        assert limit_cdf(1.0, 0.0) == 0.0

    def test_ninth_decile(self):
        assert limit_cdf(1.0, 2.3025851) == pytest.approx(0.9, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            limit_cdf(1.0, -0.1)
        with pytest.raises(ValueError):
            limit_cdf(0.0, 1.0)


class TestWaitingLaw:
    def test_validity_condition(self):
        with pytest.raises(ValidityError):
            WaitingLaw(5.0, 10, 1.0)  # m*t = 5 < k-1 = 9
        WaitingLaw(9.0, 10, 1.0)  # boundary is allowed

    def test_bad_parameters(self):
        with pytest.raises(ValidityError):
            WaitingLaw(1.0, 0, 1.0)
        with pytest.raises(ValidityError):
            WaitingLaw(1.0, 1, 0.0)


class TestConditionalCdf:
    def test_zero(self):
        assert conditional_cdf(WaitingLaw(25, 10, 1.0), 0.0) == 0.0

    def test_k1_equals_limit(self):
        law = WaitingLaw(3.0, 1, 0.5)
        for h in np.linspace(0, 10, 25):
            assert conditional_cdf(law, h) == limit_cdf(0.5, h)

    def test_reference_value(self):
        # cross-checked against the density-ratio form below
        assert conditional_cdf(WaitingLaw(25, 10, 1.0), 0.1053605) == pytest.approx(
            0.0652820, abs=1e-6)

    def test_density_ratio_identity(self, constant_model):
        # 1 - f_k(t+h)/f_k(t) for a constant-rate process equals the
        # closed form, as an algebraic identity
        t, k = 30.0, 10
        law = WaitingLaw(t, k, 1.0)
        for h in np.linspace(0.0, 8.0, 17):
            ratio = jump_time_pdf(constant_model, k, t + h) / jump_time_pdf(
                constant_model, k, t)
            assert conditional_cdf(law, h) == pytest.approx(1.0 - ratio, abs=1e-12)

    def test_boundary_near_zero(self):
        # on the boundary m t = k-1 the terms (k-1) log1p(h/t) and -m h
        # nearly cancel at small h
        assert conditional_cdf(WaitingLaw(4 / 3, 3, 1.5), 1e-17) >= 0.0
        low, high = conditional_cdf(WaitingLaw(2, 3, 1), np.array([5e-324, 6.9e-243]))
        assert high >= low

    def test_is_valid_cdf(self):
        law = WaitingLaw(12.0, 10, 1.0)
        grid = np.linspace(0, 60, 2000)
        vals = conditional_cdf(law, grid)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] > 1 - 1e-10

    def test_monotone_convergence_to_limit(self):
        grid = np.linspace(0, 30, 4000)
        sups = []
        for t in (25, 50, 100, 1000):
            law = WaitingLaw(float(t), 10, 1.0)
            sups.append(np.max(np.abs(conditional_cdf(law, grid)
                                      - limit_cdf(1.0, grid))))
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_gamma_density_ratio_converges(self):
        # a gamma density with rate lam has ratio-CDF 1 - f(t+h)/f(t)
        # approaching 1 - exp(-lam h) for large t
        lam = 0.7
        for beta in (2.0, 5.0):
            def log_f(t):
                return (beta - 1) * math.log(lam * t) - lam * t
            t = 1e3
            for h in np.linspace(0.1, 5, 10):
                ratio_cdf = 1.0 - math.exp(log_f(t + h) - log_f(t))
                assert abs(ratio_cdf - limit_cdf(lam, h)) < 1e-2


class TestSampleConditional:
    def test_empty(self):
        assert sample_conditional(WaitingLaw(50, 10, 1.0), 0, 1).size == 0

    def test_inverse_transform_accuracy(self):
        law = WaitingLaw(50, 10, 1.0)
        samples = sample_conditional(law, 1000, 0)
        # re-derive the uniforms the sampler consumed
        rng = np.random.default_rng(np.random.SeedSequence(0))
        u = rng.random(1000)
        assert np.max(np.abs(conditional_cdf(law, samples) - u)) <= 1e-10

    def test_probability_integral_transform(self):
        law = WaitingLaw(1e4, 10, 1.0)
        samples = sample_conditional(law, 5000, 2)
        res = ks_test(conditional_cdf(law, samples), lambda x: x)
        assert res.p_value > 0.01

    def test_determinism(self):
        law = WaitingLaw(50, 10, 1.0)
        a = sample_conditional(law, 100, 42)
        b = sample_conditional(law, 100, 42)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 200), log_m=st.floats(-3.0, 3.0),
           slack=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_inverts_every_uniform(self, k, log_m, slack, seed):
        # slack = 0 is the boundary m t = k - 1, and t = 0 when k = 1
        m = 10.0 ** log_m
        t = (k - 1) / m * (1.0 + slack) + (slack if k == 1 else 0.0)
        while m * t < k - 1:
            t = np.nextafter(t, math.inf)
        law = WaitingLaw(t, k, m)
        samples = sample_conditional(law, 300, seed)
        u = np.random.default_rng(np.random.SeedSequence(seed)).random(300)
        assert np.all(samples >= 0.0)
        assert np.max(np.abs(conditional_cdf(law, samples) - u)) <= 1e-12

    def test_zero_uniform_on_the_boundary(self):
        # at m t = k - 1 the Newton slope vanishes at h = 0, where u = 0 lands
        class ZeroFirst(np.random.Generator):
            def random(self, size):
                out = super().random(size)
                out[0] = 0.0
                return out

        law = WaitingLaw(9.0, 10, 1.0)
        samples = sample_conditional(law, 100, ZeroFirst(np.random.PCG64(3)))
        assert samples[0] == 0.0
        assert np.all(np.isfinite(samples)) and np.all(samples[1:] > 0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(limitlaw, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            sample_conditional(WaitingLaw(50, 10, 1.0), 100, 0)


class TestBreakpoints:
    def test_decile_values(self):
        assert np.allclose(breakpoints(1.0, 10), DECILE_CUTS, atol=1e-7)

    def test_exponential_median(self):
        assert breakpoints(2.0, 2)[0] == pytest.approx(math.log(2) / 2, rel=1e-12)

    def test_round_trip(self):
        m, r = 0.35, 8
        cuts = breakpoints(m, r)
        for i, h in enumerate(cuts, start=1):
            assert limit_cdf(m, h) == pytest.approx(i / r, abs=1e-12)
        assert np.all(np.diff(cuts) > 0)


def grid_sup_distance(a, b, h_max=20.0, step=1e-5):
    h = np.arange(0.0, h_max, step)
    return np.max(np.abs(np.exp(-a * h) - np.exp(-b * h)))


class TestSupDistance:
    def test_equal_rates(self):
        assert sup_distance_exp(0.7, 0.7) == 0.0

    def test_one_two(self):
        assert sup_distance_exp(1.0, 2.0) == pytest.approx(0.25, abs=1e-12)
        assert sup_distance_exp(1.0, 2.0) == pytest.approx(
            grid_sup_distance(1.0, 2.0), abs=1e-9)

    def test_small_rates_vs_grid(self):
        assert sup_distance_exp(0.2, 0.25) == pytest.approx(
            grid_sup_distance(0.2, 0.25, h_max=60.0), abs=1e-9)

    def test_near_equal_continuity(self):
        a = 1.0
        for eps in (1e-13, 1e-11, 1e-9):
            d = sup_distance_exp(a, a + eps)
            assert d == pytest.approx(math.exp(-1) * eps, rel=1e-3)

    def test_zero_rate(self):
        assert sup_distance_exp(0.0, 1.0) == 1.0
