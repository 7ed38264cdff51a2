import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quakewait.intensity import IntensityModel, ModelSpecError


def segment_sum(segments, tail_rate, t):
    """Brute-force cumulative rate for [(start, rate), ...] segments."""
    total = 0.0
    for (s0, r0), (s1, _) in zip(segments, segments[1:]):
        total += r0 * (min(t, s1) - min(t, s0))
    last_start, last_rate = segments[-1]
    if t > last_start:
        total += last_rate * (t - last_start)
    return total


class TestCif:
    def test_constant(self, constant_model):
        assert constant_model.cif(5.0) == 5.0

    def test_zero(self, piecewise_model):
        assert piecewise_model.cif(0.0) == 0.0

    def test_piecewise_matches_segment_sum_oracle(self, piecewise_model):
        assert piecewise_model.cif(2.0) == segment_sum([(0, 2), (1, 1)], 1, 2.0) == 3.0
        for t in np.linspace(0, 5, 31):
            assert piecewise_model.cif(t) == pytest.approx(
                segment_sum([(0, 2), (1, 1)], 1, t), abs=1e-12)

    def test_negative_time_rejected(self, constant_model):
        with pytest.raises(ValueError):
            constant_model.cif(-0.5)

    def test_array_input(self, piecewise_model):
        out = piecewise_model.cif(np.array([0.0, 0.5, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 3.0])


class TestCifInverse:
    def test_constant(self):
        model = IntensityModel.constant(2.0)
        assert model.cif_inverse(6.0) == 3.0

    def test_zero(self, piecewise_model):
        assert piecewise_model.cif_inverse(0.0) == 0.0

    def test_piecewise(self, piecewise_model):
        assert piecewise_model.cif_inverse(3.0) == 2.0

    def test_negative_rejected(self, constant_model):
        with pytest.raises(ValueError):
            constant_model.cif_inverse(-1.0)

    def test_flat_segment_maps_to_left_endpoint(self):
        model = IntensityModel.piecewise([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0)])
        # Lambda reaches 1 at t=1 and stays flat until t=2
        assert model.cif_inverse(1.0) == 1.0
        assert model.cif_inverse(1.5) == 2.5
        # cum repeats across two zero-rate segments; their end value maps to
        # the left endpoint of the first
        model = IntensityModel.piecewise([(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 2.0)])
        assert model.cif_inverse(np.array([1.0, np.nextafter(1.0, 2.0)])).tolist() == [
            1.0, 3.0 + (np.nextafter(1.0, 2.0) - 1.0) / 2.0]

    def test_leading_zero_rate(self):
        model = IntensityModel.piecewise([(0.0, 0.0), (1.0, 1.0)])
        assert model.cif_inverse(0.0) == 0.0
        assert model.cif_inverse(0.5) == 1.5
        # y = +-0 lands in the zero-rate segment: t is +0.0, without a warning
        got = model.cif_inverse(np.array([0.0, -0.0, 0.5]))
        assert got.tolist() == [0.0, 0.0, 1.5] and not np.signbit(got).any()
        assert math.copysign(1.0, model.cif_inverse(-0.0)) == 1.0


class TestAsymptoticSlope:
    def test_constant(self):
        assert IntensityModel.constant(0.2).tail_rate == 0.2

    def test_piecewise_tail_value(self, piecewise_model):
        assert piecewise_model.tail_rate == 1.0

    @pytest.mark.parametrize("model", [
        IntensityModel.constant(0.7),
        IntensityModel.piecewise([(0.0, 2.0), (1.0, 1.0)]),
        IntensityModel.piecewise([(0.0, 0.0), (3.0, 0.5)]),
    ])
    def test_slope_is_cif_limit(self, model):
        big_t = 100.0 * model.tail_start + 100.0
        assert abs(model.cif(big_t) / big_t - model.tail_rate) < 0.01


class TestInvariants:
    def test_monotonicity(self, piecewise_model):
        grid = np.linspace(0, 10, 200)
        vals = piecewise_model.cif(grid)
        assert np.all(np.diff(vals) >= 0)

    def test_inverse_consistency(self, piecewise_model):
        for t in np.linspace(0.01, 8, 50):
            back = piecewise_model.cif_inverse(piecewise_model.cif(t))
            assert abs(back - t) <= 1e-8

    @pytest.mark.parametrize("model", [
        IntensityModel.piecewise([(0.0, 2.0), (1.0, 1.0)]),
        IntensityModel.piecewise([(0.0, 0.0), (2.0, 0.5)]),
    ])
    def test_slope_convergence_bound(self, model):
        m = model.tail_rate
        tail = model.tail_start
        sup_dev = max(abs(r - m) for r in model.rates)
        for t in [10 * tail + 10, 50 * tail + 50]:
            assert abs(model.cif(t) / t - m) <= 2 * sup_dev * tail / t + 1e-12

    def test_mean_slope_beyond_tail_is_exact(self, piecewise_model):
        tail = piecewise_model.tail_start
        for t in [tail + 0.5, tail + 3, tail + 100]:
            mean = (piecewise_model.cif(t) - piecewise_model.cif(tail)) / (t - tail)
            assert mean == pytest.approx(piecewise_model.tail_rate, abs=1e-12)


class TestSpecFile:
    def test_round_trip(self, piecewise_model):
        text = json.dumps(piecewise_model.to_spec())
        clone = IntensityModel.from_json(text)
        assert clone.starts == piecewise_model.starts
        assert clone.rates == piecewise_model.rates

    def test_bad_json(self):
        with pytest.raises(ModelSpecError):
            IntensityModel.from_json("not json")

    def test_missing_keys(self):
        with pytest.raises(ModelSpecError):
            IntensityModel.from_json('{"segments": [[0, 1]]}')

    @pytest.mark.parametrize("spec", [
        {"segments": [[0, 1], [0.5, 2], [0.5, 1]], "tail_start": 1, "tail_rate": 1},
        {"segments": [[0, 1], [1, 2]], "tail_start": 1, "tail_rate": 1},
        {"segments": [[0, 1]], "tail_start": 0, "tail_rate": 0},
        {"segments": [[0.5, 1]], "tail_start": 1, "tail_rate": 1},
        {"segments": [[0, -1], [1, 1]], "tail_start": 1, "tail_rate": 1},
    ])
    def test_invalid_specs(self, spec):
        with pytest.raises(ModelSpecError):
            IntensityModel.from_spec(spec)


class TestDataclassBehaviour:
    """The explicit ``__init__`` keeps what the generated one gave."""

    def test_replace_runs_the_checks_again(self, piecewise_model):
        with pytest.raises(ModelSpecError, match="last segment rate must equal tail_rate"):
            dataclasses.replace(piecewise_model, tail_rate=3.0)
        moved = dataclasses.replace(piecewise_model, tail_start=2.5)
        assert (moved.starts, moved.rates, moved.tail_start, moved.tail_rate, moved._cum) == \
            ((0.0, 1.0), (2.0, 1.0), 2.5, 1.0, (0.0, 2.0))

    @pytest.mark.parametrize("name", ["starts", "rates", "tail_start", "tail_rate", "_cum"])
    def test_fields_are_frozen(self, piecewise_model, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(piecewise_model, name, 1.0)

    def test_repr(self):
        model = IntensityModel.piecewise([(0, 2), (1.5, 0.25), (4, 1)])
        assert repr(model) == ("IntensityModel(starts=(0.0, 1.5, 4.0), rates=(2.0, 0.25, "
                               "1.0), tail_start=4.0, tail_rate=1.0)")

    def test_fields_are_python_floats(self):
        model = IntensityModel.piecewise([(np.float64(0), 2), (1, np.float64(0.5))])
        values = [*model.starts, *model.rates, model.tail_start, model.tail_rate, *model._cum]
        assert {type(v) for v in values} == {float}


class TestTabulated:
    def test_matches_piecewise(self, piecewise_model):
        model = IntensityModel.tabulated(
            lambda t: 2.0 if t < 1.0 else 1.0,
            grid=[0.0, 0.5, 1.0], tail_start=1.0, tail_rate=1.0)
        for t in np.linspace(0, 5, 21):
            assert model.cif(t) == pytest.approx(piecewise_model.cif(t), abs=1e-12)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ModelSpecError):
            IntensityModel.tabulated(lambda t: 1.0, grid=[0.5, 1.0],
                                     tail_start=1.0, tail_rate=1.0)


def reference_spec(starts, rates, tail_start, tail_rate):
    """The multi-pass construction checks, kept as the reference for the
    one-pass ``IntensityModel.__init__``: the first error message, else the
    converted ``(starts, rates, cum)``."""
    starts = tuple(float(s) for s in starts)
    rates = tuple(float(r) for r in rates)
    if not starts or starts[0] != 0.0:
        return "segments must start at time 0"
    if len(starts) != len(rates):
        return "one rate per breakpoint required"
    if any(not s2 > s1 for s1, s2 in zip(starts, starts[1:])):
        return "breakpoints must be strictly increasing"
    if any(not 0.0 <= r < math.inf for r in rates):
        return "rates must be finite and nonnegative"
    if not tail_rate > 0:
        return "tail_rate must be strictly positive"
    if not 0 <= tail_start < math.inf:
        return "tail_start must be finite and nonnegative"
    if starts[-1] > tail_start:
        return "no breakpoint may lie beyond tail_start"
    if rates[-1] != tail_rate:
        return "last segment rate must equal tail_rate"
    cum = [0.0]
    for i in range(1, len(starts)):
        cum.append(cum[-1] + rates[i - 1] * (starts[i] - starts[i - 1]))
    return starts, rates, tuple(cum)


def _built(build):
    try:
        model = build()
    except ModelSpecError as exc:
        return str(exc)
    return model.starts, model.rates, model._cum


_BAD = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])


@st.composite
def model_specs(draw):
    """Mostly valid specs, each with a chance of one or more defects:
    NaN, infinite or negative values, unsorted or duplicate breakpoints, a
    mismatched tail, a length mismatch or no segments at all."""
    n = draw(st.integers(0, 6))
    starts = [0.0] + sorted(draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n)))
    rates = draw(st.lists(st.floats(0.0, 10.0), min_size=n + 1, max_size=n + 1))
    for values in (starts, rates):
        if draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, n))] = draw(_BAD | st.floats(0.0, 50.0))
    if n and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(1, n))
        starts[i] = starts[i - 1]
    if draw(st.integers(0, 7)) == 0:
        starts.pop() if draw(st.booleans()) else rates.pop()
    if draw(st.integers(0, 9)) == 0:
        starts, rates = [], []
    tail_start = (starts[-1] if starts else 0.0) + draw(st.sampled_from([0.0, 1.0]))
    tail_rate = rates[-1] if rates else 1.0
    if draw(st.integers(0, 3)) == 0:
        tail_start = draw(_BAD | st.floats(0.0, 60.0))
    if draw(st.integers(0, 3)) == 0:
        tail_rate = draw(_BAD | st.floats(0.0, 10.0))
    return starts, rates, tail_start, tail_rate


@settings(max_examples=400, deadline=None)
@given(spec=model_specs())
# an infinite breakpoint after a zero rate: 0 * inf in the cumulative rate
@example(spec=([0.0, math.inf], [0.0, 1.0], math.inf, 1.0))
def test_one_pass_construction_matches_reference(spec):
    starts, rates, tail_start, tail_rate = spec
    expected = reference_spec(starts, rates, tail_start, tail_rate)
    assert _built(lambda: IntensityModel(
        tuple(starts), tuple(rates), tail_start, tail_rate)) == expected
    if len(starts) == len(rates):
        # piecewise takes its tail from the last segment
        expected = (reference_spec(starts, rates, starts[-1], rates[-1]) if starts
                    else "at least one segment required")
        assert _built(lambda: IntensityModel.piecewise(list(zip(starts, rates)))) == expected
