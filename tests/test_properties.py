"""Property tests of the package's invariants: every CDF is monotone and
stays in [0, 1], the cumulative rate and its inverse undo each other, bin
percentages add up to 100, and a repeated seed repeats the output."""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quakewait.catalog import EmpiricalCdf
from quakewait.gof import bin_percentages, table1_experiment
from quakewait.intensity import IntensityModel
from quakewait.limitlaw import (WaitingLaw, conditional_cdf, limit_cdf, random_cdf,
                                sample_conditional)
from quakewait.nhpp import sample_jump_times, simulate_path
from quakewait.statfn import folded_normal_cdf, normal_cdf

EPS = np.finfo(float).eps
# below the normal range only the absolute spacing of subnormals is left,
# so every bound below allows this much on top of its relative part
TINY = np.finfo(float).tiny


def sorted_arrays(lo, hi):
    return arrays(float, st.integers(1, 40), elements=st.floats(lo, hi)).map(np.sort)


def assert_cdf_values(values, tol=0.0):
    """In [0, 1] and nondecreasing, each value to within its ``tol``."""
    values = np.asarray(values)
    tol = np.broadcast_to(tol, values.shape)
    assert np.all((-tol <= values) & (values <= 1.0 + tol))
    assert np.all(np.diff(values) >= -(tol[1:] + tol[:-1]))


@st.composite
def waiting_laws(draw):
    k = draw(st.integers(1, 1000))
    m = draw(st.floats(1e-3, 10.0))
    t = (k - 1) / m * draw(st.floats(1.0, 3.0)) + draw(st.sampled_from([0.0, 1.0]))
    assume(m * t >= k - 1)
    return WaitingLaw(t, k, m)


@st.composite
def models(draw):
    """Piecewise models with zero-rate stretches and a positive tail."""
    gaps = draw(st.lists(st.floats(0.05, 5.0), max_size=5))
    starts = [0.0]
    for g in gaps:
        starts.append(starts[-1] + g)
    rates = [draw(st.sampled_from([0.0, 0.01, 2.0]) | st.floats(0.0, 10.0)) for _ in gaps]
    return IntensityModel.piecewise(list(zip(starts, rates + [draw(st.floats(0.01, 10.0))])))


class TestCdfsAreMonotoneInUnitInterval:
    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(1e-4, 1e3), h=sorted_arrays(0.0, 1e4))
    def test_limit_cdf(self, m, h):
        assert_cdf_values(limit_cdf(m, h))

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(0.0, 1e3), h=sorted_arrays(0.0, 1e4))
    def test_random_cdf(self, m, h):
        assert_cdf_values(random_cdf(m, h))

    @settings(max_examples=60, deadline=None)
    @given(law=waiting_laws(), h=sorted_arrays(0.0, 1e4))
    def test_conditional_cdf(self, law, h):
        # G = -expm1((k-1) log1p(h/t) - m h): the two terms of the exponent
        # nearly cancel for small h on the boundary m t = k-1, so G is exact
        # only to about eps * m h
        values = conditional_cdf(law, h)
        assert_cdf_values(values, 4 * EPS * (law.m * h + values) + TINY)

    @settings(max_examples=60, deadline=None)
    @given(x=sorted_arrays(-50.0, 50.0))
    def test_normal_cdf(self, x):
        assert_cdf_values(normal_cdf(x))

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(1e-3, 1e3), x=sorted_arrays(-50.0, 1e4))
    def test_folded_normal_cdf(self, sigma, x):
        assert_cdf_values(folded_normal_cdf(x, sigma))

    @settings(max_examples=60, deadline=None)
    @given(jumps=st.lists(st.integers(1, 500), min_size=1, max_size=30),
           h=sorted_arrays(0.0, 600.0))
    def test_empirical_cdf(self, jumps, h):
        ecdf = EmpiricalCdf(tuple(sorted(jumps)), len(jumps))
        assert_cdf_values(ecdf(h))
        assert ecdf(600.0) == 1.0


class TestCumulativeRateInverse:
    # Both directions hold up to the rounding of y = Lambda(t): an error of
    # eps * y in y moves t by eps * y / lambda(t).  Binary floating point
    # does not give exact equality (about one round trip in five is off by
    # an ulp), so the bounds are a few eps of these scales.

    @settings(max_examples=100, deadline=None)
    @given(model=models(), frac=st.floats(0.0, 1.0), beyond=st.floats(0.0, 50.0))
    def test_inverse_of_cif_on_positive_rate_stretches(self, model, frac, beyond):
        positive = [i for i, r in enumerate(model.rates) if r > 0]
        i = positive[int(frac * (len(positive) - 1))]
        end = model.starts[i + 1] if i + 1 < len(model.starts) else model.starts[i] + beyond
        t = model.starts[i] + frac * (end - model.starts[i])
        # the right end of a flat stretch is not on a positive-rate stretch:
        # Lambda is constant to its left, and the inverse returns the left end
        assume(model.rate(t) > 0 and (t > model.starts[i] or i == 0 or model.rates[i - 1] > 0))
        y = model.cif(t)
        # at a breakpoint the inverse may land in the segment to the left,
        # so the slower of the two rates sets the scale there
        j = model.starts.index(t) if t in model.starts else 0
        rate = min(model.rate(t), model.rates[j - 1] if j else math.inf)
        back = model.cif_inverse(y)
        assert abs(back - t) <= 4 * EPS * (t + y / rate) + TINY * (1.0 + 1.0 / rate)

    @settings(max_examples=100, deadline=None)
    @given(model=models(), y=st.floats(0.0, 1e3))
    def test_cif_of_inverse(self, model, y):
        t = model.cif_inverse(y)
        rate = model.rate(t)
        assert abs(model.cif(t) - y) <= 4 * EPS * (y + rate * t) + TINY * (1.0 + rate)


@settings(max_examples=100, deadline=None)
@given(samples=arrays(float, st.integers(1, 200), elements=st.floats(0.0, 100.0)),
       cuts=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20, unique=True))
def test_bin_percentages_sum_to_100(samples, cuts):
    perc = bin_percentages(samples, sorted(cuts))
    assert len(perc) == len(cuts) + 1
    assert abs(perc.sum() - 100.0) <= 2 * len(perc) * 100.0 * EPS


class TestRepeatedSeed:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), model=models())
    def test_nhpp_samplers(self, seed, model):
        a, b = simulate_path(model, 30.0, seed), simulate_path(model, 30.0, seed)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(sample_jump_times(model, 3, 50, seed),
                              sample_jump_times(model, 3, 50, seed))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), law=waiting_laws())
    def test_conditional_sampler(self, seed, law):
        assert np.array_equal(sample_conditional(law, 200, seed),
                              sample_conditional(law, 200, seed))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 63))
    def test_table1_experiment(self, seed):
        first, second = (table1_experiment(1.0, 10, (20.0, 40.0), 300, seed)
                         for _ in range(2))
        for a, b in zip(first, second):
            assert np.array_equal(a.percentages, b.percentages)
            assert (a.chi2, a.p_value) == (b.chi2, b.p_value)
