from fractions import Fraction

import pytest

from quakewait.catalog import (CatalogFormatError, EmpiricalCdf, compare_cdfs,
                               empirical_waiting_cdf, load_reference_catalog,
                               parse_catalog, reproducibility_report,
                               segment_by_major, slope_at, slope_series)


class TestParseCatalog:
    def test_reference_catalog(self):
        events = load_reference_catalog()
        assert len(events) == 39
        assert (events[0].year, events[0].magnitude) == (1604, 8.5)
        assert (events[-1].year, events[-1].magnitude) == (2007, 7.6)

    def test_empty_body(self):
        assert parse_catalog("year,magnitude\n") == []

    def test_wrong_header(self):
        with pytest.raises(CatalogFormatError) as exc:
            parse_catalog("time,mag\n1,2\n")
        assert exc.value.line_no == 1

    def test_non_numeric_row(self):
        with pytest.raises(CatalogFormatError) as exc:
            parse_catalog("year,magnitude\n1900,7.5\nnineteen,7\n")
        assert exc.value.line_no == 3

    def test_out_of_order_years(self):
        with pytest.raises(CatalogFormatError):
            parse_catalog("year,magnitude\n1950,7.0\n1900,7.5\n")


class TestSegmentation:
    def test_three_segments(self, reference_segments):
        assert [s.anchor_year for s in reference_segments] == [1604, 1715, 1877]
        assert [s.closed for s in reference_segments] == [True, True, False]

    def test_second_segment_times(self, reference_segments):
        assert reference_segments[1].relative_times == (53, 116, 118, 121,
                                                        153, 155, 156, 161)

    def test_third_segment(self, reference_segments):
        seg = reference_segments[2]
        assert len(seg.relative_times) == 26
        assert seg.relative_times[-1] == 130
        assert seg.relative_times.count(29) == 2  # two events in 1906

    def test_partition(self, reference_segments):
        total = sum(1 + len(s.relative_times) for s in reference_segments)
        assert total == 39

    def test_too_high_threshold(self):
        with pytest.warns(UserWarning):
            assert segment_by_major(load_reference_catalog(), 9.0) == []


class TestSlopeSeries:
    def test_first_data_set(self, reference_segments):
        assert slope_series(reference_segments[0]) == [
            (0, Fraction(0)), (11, Fraction(1, 11)), (77, Fraction(2, 77))]

    def test_second_data_set(self, reference_segments):
        series = slope_series(reference_segments[1])
        assert series[3] == (118, Fraction(3, 118))
        assert series[-1] == (161, Fraction(8, 161))

    def test_tied_times_in_third_set(self, reference_segments):
        series = slope_series(reference_segments[2])
        assert series[3] == (29, Fraction(3, 29))
        assert series[4] == (29, Fraction(4, 29))
        assert series[-1] == (130, Fraction(26, 130))

    def test_slope_at(self, reference_segments):
        assert slope_at(reference_segments[1], 53) == Fraction(1, 53)
        assert slope_at(reference_segments[2], 130) == Fraction(26, 130)


class TestEmpiricalCdf:
    def test_jumps_after_53(self, reference_segments):
        ecdf = empirical_waiting_cdf(reference_segments[1], 53)
        assert ecdf.jumps == (63, 65, 68, 100, 102, 103, 108)
        assert ecdf.n == 7

    def test_step_values(self, reference_segments):
        ecdf = empirical_waiting_cdf(reference_segments[1], 53)
        assert ecdf(10.0) == 0.0
        assert ecdf(63.0) == pytest.approx(1 / 7)
        assert ecdf(200.0) == 1.0

    def test_not_an_event_time(self, reference_segments):
        with pytest.raises(ValueError):
            empirical_waiting_cdf(reference_segments[1], 54)

    def test_no_later_events(self, reference_segments):
        with pytest.raises(ValueError):
            empirical_waiting_cdf(reference_segments[1], 161)

    def test_n_is_the_number_of_jumps(self):
        ecdf = EmpiricalCdf((1, 2, 2, 5))
        assert ecdf.n == 4
        assert ecdf(2.0) == 0.75
        assert ecdf(10.0) == 1.0

    @pytest.mark.parametrize("jumps", [(), (5, 1), (1, 3, 2)])
    def test_bad_jumps(self, jumps):
        with pytest.raises(ValueError, match="nonempty and nondecreasing"):
            EmpiricalCdf(jumps)


class TestComparison:
    def test_estimated_column_at_53(self, reference_segments):
        rows = compare_cdfs(reference_segments[1], 53)
        estimates = {r.h: r.estimated for r in rows}
        assert estimates[63] == pytest.approx(0.6954, abs=5e-4)
        assert estimates[108] == pytest.approx(0.8697, abs=5e-4)

    def test_difference_column(self, reference_segments):
        for row in compare_cdfs(reference_segments[1], 53):
            assert row.abs_diff == pytest.approx(
                abs(row.estimated - row.empirical), abs=1e-12)

    def test_reproducibility_flags(self, reference_segments):
        notes = {n.t: n for n in reproducibility_report(reference_segments[1])}
        assert notes[53].reproducible
        assert not notes[116].reproducible
        assert not notes[118].reproducible
        assert not notes[121].reproducible
        assert notes[116].max_abs_dev > 0.5
