import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quakewait.gof import (bin_percentages, chi_square_stat, expected_percentages,
                           gof_pvalue, table1_experiment)
from quakewait.limitlaw import ValidityError, WaitingLaw, breakpoints, sample_conditional
from quakewait.rng import substreams

ROW_T25 = (6.7, 6.4, 7.0, 8.3, 7.4, 9.2, 10.1, 11.8, 12.5, 20.6)
ROW_T30 = (7.5, 9.0, 8.4, 7.4, 7.7, 7.5, 9.9, 10.1, 13.0, 19.5)
ROW_T40 = (7.3, 8.9, 9.4, 9.2, 9.6, 8.7, 11.7, 8.2, 11.1, 15.9)
ROW_T50 = (10.3, 9.7, 8.2, 8.8, 9.3, 11.5, 8.9, 9.7, 11.1, 12.5)
TABLE1_T = (10.0, 20.0, 25.0, 30.0, 40.0, 50.0)


class TestBinPercentages:
    def test_all_below_first_cut(self):
        cuts = breakpoints(1.0, 10)
        perc = bin_percentages([0.01, 0.02, 0.05], cuts)
        assert perc[0] == 100.0
        assert np.all(perc[1:] == 0.0)

    def test_one_per_bin(self):
        cuts = np.array([1.0, 2.0, 3.0])
        mids = [0.5, 1.5, 2.5, 3.5]
        assert np.allclose(bin_percentages(mids, cuts), 25.0)

    def test_limit_samples_near_uniform(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(size=1000)
        perc = bin_percentages(samples, breakpoints(1.0, 10))
        # multinomial(1000, 1/10): 4 sigma is about 3.8 percentage points
        assert np.all(np.abs(perc - 10.0) < 4.0)
        assert perc.sum() == pytest.approx(100.0, abs=1e-9)

    def test_unsorted_cuts(self):
        with pytest.raises(ValueError):
            bin_percentages([1.0], [2.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10_000), r=st.integers(1, 64), zero_cut=st.booleans(),
           tie_share=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_sample_binning(self, n, r, zero_cut, tie_share, seed):
        # samples exactly on a cut, at 0, -0 and infinity included
        rng = np.random.default_rng(seed)
        cuts = np.unique(rng.exponential(size=r - 1))
        if zero_cut:
            cuts = np.concatenate([[0.0], cuts])
        samples = rng.exponential(size=n)
        tied = rng.random(n) < tie_share
        pool = np.concatenate([cuts, [0.0, -0.0, np.inf]])
        samples[tied] = rng.choice(pool, size=int(tied.sum()))
        counts = np.bincount(np.searchsorted(cuts, samples, side="right"),
                             minlength=cuts.size + 1)
        expected = 100.0 * counts / n
        got = bin_percentages(samples, cuts)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_sample_on_a_cut_opens_its_bin(self):
        assert bin_percentages([0.0, -0.0, 1.0, 2.0, 2.0], [0.0, 1.0, 2.0]).tolist() == [
            0.0, 40.0, 20.0, 40.0]


class TestChiSquareStat:
    def test_reference_row_t25(self):
        assert chi_square_stat(ROW_T25) == pytest.approx(16.50, abs=1e-9)

    def test_all_tens(self):
        assert chi_square_stat([10.0] * 10) == 0.0

    def test_reference_row_t40(self):
        assert chi_square_stat(ROW_T40) == pytest.approx(5.35, abs=1e-9)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            chi_square_stat([10.0] * 9)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            chi_square_stat([11.0] * 10)

    def test_any_bin_count(self):
        assert chi_square_stat([20.0] * 5) == 0.0
        # expected 100/3 per bin: (50 - 100/3)^2 + 2 (25 - 100/3)^2 over 100/3
        assert chi_square_stat([50.0, 25.0, 25.0]) == pytest.approx(12.5, rel=1e-14)

    @pytest.mark.parametrize("row", [[100.0], [[50.0, 50.0]]], ids=["one_bin", "two_d"])
    def test_needs_one_row_of_two_bins(self, row):
        with pytest.raises(ValueError, match="at least 2 bins"):
            chi_square_stat(row)

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(2, 64), n=st.integers(1, 10_000), seed=st.integers(0, 2**32 - 1))
    def test_percentage_form_is_scaled_count_form(self, r, n, seed):
        counts = np.random.default_rng(seed).multinomial(n, [1.0 / r] * r)
        expected = n / r
        count_form = float(np.sum((counts - expected) ** 2) / expected)
        assert chi_square_stat(100.0 * counts / n) == pytest.approx(
            100.0 / n * count_form, rel=1e-9, abs=1e-9)

    def test_equals_pearson_for_hundred_draws(self):
        # with 100 draws percentages equal raw counts, so the statistic
        # reduces to the classic Pearson form with expected count 10
        rng = np.random.default_rng(3)
        counts = rng.multinomial(100, [0.1] * 10)
        pearson = float(np.sum((counts - 10.0) ** 2) / 10.0)
        assert chi_square_stat(counts.astype(float)) == pytest.approx(
            pearson, abs=1e-9)


class TestPvalue:
    def test_row_t25(self):
        assert gof_pvalue(chi_square_stat(ROW_T25)) == pytest.approx(0.057, abs=2e-3)

    def test_row_t30(self):
        assert gof_pvalue(chi_square_stat(ROW_T30)) == pytest.approx(0.175, abs=2e-3)

    def test_row_t50(self):
        assert gof_pvalue(chi_square_stat(ROW_T50)) == pytest.approx(0.996, abs=2e-3)

    def test_decreasing_in_stat(self):
        stats = np.linspace(0, 40, 40)
        ps = [gof_pvalue(s) for s in stats]
        assert all(b <= a for a, b in zip(ps, ps[1:]))


class TestExperiment:
    def test_short_elapsed_time_rejected_by_test(self):
        (report,) = table1_experiment(1.0, 10, [10.0], 1000, 0)
        assert report.p_value < 0.001

    def test_long_elapsed_time_fits(self):
        (report,) = table1_experiment(1.0, 10, [50.0], 1000, 0)
        assert report.p_value > 0.05

    def test_invalid_parameters_propagate(self):
        with pytest.raises(ValidityError):
            table1_experiment(1.0, 10, [5.0], 1000, 0)

    def test_determinism(self):
        a = table1_experiment(1.0, 10, [25.0, 50.0], 1000, 9)
        b = table1_experiment(1.0, 10, [25.0, 50.0], 1000, 9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.percentages, rb.percentages)
            assert ra.p_value == rb.p_value

    def test_order_independence(self):
        # a t value gets the same substream regardless of evaluation order
        # within one call; single-t calls use substream 0
        (a,) = table1_experiment(1.0, 10, [25.0], 1000, 9)
        b = table1_experiment(1.0, 10, [25.0, 50.0], 1000, 9)[0]
        assert np.array_equal(a.percentages, b.percentages)

    @pytest.mark.parametrize("r", [5, 10])
    def test_statistic_bits_follow_the_percentage_form(self, r):
        for rep in table1_experiment(1.0, 10, [25.0, 50.0], 1000, 4, r=r):
            assert rep.percentages.size == r
            assert rep.chi2 == float(np.sum((rep.percentages - 100.0 / r) ** 2) / (100.0 / r))

    def test_report_invariants(self):
        reports = table1_experiment(1.0, 10, [25.0, 50.0], 1000, 4)
        for rep in reports:
            assert rep.percentages.sum() == pytest.approx(100.0, abs=1e-9)
            assert rep.chi2 >= 0.0

    # the Newton sampler inverts the uniforms the experiment bins, so its
    # draws binned at the cuts give the same percentages; the last three
    # laws lie on the boundary m t = k - 1
    @pytest.mark.parametrize("m, k, ts, r", [
        (1.0, 10, TABLE1_T, 2), (1.0, 10, TABLE1_T, 5), (1.0, 10, TABLE1_T, 10),
        (1.0, 10, TABLE1_T, 40), (1.0, 10, (9.0,), 10), (0.5, 3, (4.0,), 10),
        (2.0, 1, (0.0,), 10),
    ], ids=["table1_r2", "table1_r5", "table1_r10", "table1_r40", "boundary_k10",
            "boundary_k3", "boundary_k1"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_binned_newton_draws(self, m, k, ts, r, seed):
        cuts = breakpoints(m, r)
        reports = table1_experiment(m, k, ts, 1000, seed, r=r)
        for rep, t, gen in zip(reports, ts, substreams(seed, len(ts))):
            draws = sample_conditional(WaitingLaw(t, k, m), 1000, gen)
            assert np.array_equal(rep.percentages, bin_percentages(draws, cuts))


class TestExpectedPercentages:
    def test_table1_law(self):
        got = expected_percentages(WaitingLaw(10.0, 10, 1.0), 10)
        assert got.tolist() == pytest.approx(
            [1.10, 1.33, 1.62, 2.01, 2.55, 3.34, 4.59, 6.84, 12.06, 64.56], abs=0.005)
        assert got.sum() == pytest.approx(100.0, abs=1e-12)

    def test_k1_is_the_limit(self):
        assert expected_percentages(WaitingLaw(3.0, 1, 2.0), 5).tolist() == pytest.approx(
            [20.0] * 5, abs=1e-12)

    def test_newton_draws_follow_the_cells(self):
        # chi-square p-values of independent Newton draws against the exact
        # cells are uniform; seed and threshold fixed before the first run
        law, n = WaitingLaw(10.0, 10, 1.0), 10_000
        cuts, cells = breakpoints(law.m, 10), n / 100.0 * expected_percentages(law, 10)
        p_values = [stats.chisquare(n / 100.0 * bin_percentages(
                        sample_conditional(law, n, gen), cuts), cells).pvalue
                    for gen in substreams(7, 100)]
        assert stats.kstest(p_values, "uniform").pvalue > 0.001
