"""Intensity models with an eventually-constant tail.

A model is a piecewise-constant rate function lambda(t) on [0, infinity)
that equals a strictly positive constant ``tail_rate`` from ``tail_start``
onward.  Piecewise-constant is the canonical representation: the cumulative
rate and its inverse close in exact arithmetic, so the time transformation
and path likelihood carry no quadrature error.  General rate functions are
admitted through the tabulation adapter :meth:`IntensityModel.tabulated`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .statfn import _float_if_scalar, _nonneg


class ModelSpecError(ValueError):
    """Malformed intensity-model specification."""


@dataclass(frozen=True, eq=False)
class IntensityModel:
    """Piecewise-constant intensity with rate ``rates[i]`` on
    ``[starts[i], starts[i+1])``; the last segment extends to infinity.

    Immutable after construction; all methods are pure.
    """

    starts: tuple
    rates: tuple
    tail_start: float
    tail_rate: float
    _cum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        starts = tuple(map(float, self.starts))
        rates = tuple(map(float, self.rates))
        if not starts or starts[0] != 0.0:
            raise ModelSpecError("segments must start at time 0")
        if len(starts) != len(rates):
            raise ModelSpecError("one rate per breakpoint required")
        # one pass: note each defect and accumulate the cumulative rate at
        # each segment start; the defects are raised after the pass so that
        # their precedence does not depend on where they occur
        s0, r0 = starts[0], rates[0]
        increasing, finite = True, 0.0 <= r0 < math.inf
        cum = [0.0]
        for i in range(1, len(starts)):
            s, r = starts[i], rates[i]
            increasing = increasing and s > s0
            finite = finite and 0.0 <= r < math.inf
            cum.append(cum[-1] + r0 * (s - s0))
            s0, r0 = s, r
        if not increasing:
            raise ModelSpecError("breakpoints must be strictly increasing")
        if not finite:
            raise ModelSpecError("rates must be finite and nonnegative")
        if not self.tail_rate > 0:
            raise ModelSpecError("tail_rate must be strictly positive")
        if not 0 <= self.tail_start < math.inf:
            raise ModelSpecError("tail_start must be finite and nonnegative")
        # breakpoints increase, so a finite tail_start bounds them all
        if s0 > self.tail_start:
            raise ModelSpecError("no breakpoint may lie beyond tail_start")
        if r0 != self.tail_rate:
            raise ModelSpecError("last segment rate must equal tail_rate")
        # frozen: write the converted fields straight into the instance
        self.__dict__.update(starts=starts, rates=rates,
                             tail_start=float(self.tail_start),
                             tail_rate=float(self.tail_rate), _cum=tuple(cum))

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, rate: float) -> "IntensityModel":
        """Homogeneous model with lambda(t) = rate for all t."""
        return cls((0.0,), (float(rate),), 0.0, float(rate))

    @classmethod
    def piecewise(cls, segments) -> "IntensityModel":
        """Build from ``[(start, rate), ...]``; the last segment is the
        tail."""
        starts, rates = [], []
        for s, r in segments:
            starts.append(s)
            rates.append(r)
        if not starts:
            raise ModelSpecError("at least one segment required")
        return cls(starts, rates, starts[-1], rates[-1])

    @classmethod
    def tabulated(cls, rate_fn, grid, tail_start, tail_rate) -> "IntensityModel":
        """Adapt a general rate function by sampling it at cell midpoints of
        ``grid`` (which must start at 0 and end at ``tail_start``)."""
        grid = [float(g) for g in grid]
        if not grid or grid[0] != 0.0:
            raise ModelSpecError("tabulation grid must start at 0")
        if grid[-1] > tail_start:
            raise ModelSpecError("tabulation grid must not extend past tail_start")
        rates = [rate_fn(0.5 * (a + b)) for a, b in zip(grid, grid[1:])]
        return cls(grid, rates + [tail_rate], tail_start, tail_rate)

    @classmethod
    def from_spec(cls, spec: dict) -> "IntensityModel":
        """Build from a parsed model-spec mapping with keys ``segments``,
        ``tail_start`` and ``tail_rate``."""
        try:
            segments = [(float(t), float(r)) for t, r in spec["segments"]]
            tail_start = float(spec["tail_start"])
            tail_rate = float(spec["tail_rate"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelSpecError(f"invalid model spec: {exc}") from exc
        return cls(tuple(t for t, _ in segments), tuple(r for _, r in segments),
                   tail_start, tail_rate)

    @classmethod
    def from_json(cls, text: str) -> "IntensityModel":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"model spec is not valid JSON: {exc}") from exc
        return cls.from_spec(spec)

    def to_spec(self) -> dict:
        return {
            "segments": [[s, r] for s, r in zip(self.starts, self.rates)],
            "tail_start": self.tail_start,
            "tail_rate": self.tail_rate,
        }

    # -- evaluation ---------------------------------------------------

    def rate(self, t):
        """lambda(t); right-continuous in t."""
        idx = np.searchsorted(self.starts, _nonneg(t, "time"), side="right") - 1
        return _float_if_scalar(np.asarray(self.rates)[idx])

    def cif(self, t):
        """Cumulative rate Lambda(t) = integral of lambda over [0, t].

        Exact segment sums; accepts scalars or arrays.
        """
        t_arr = _nonneg(t, "time")
        starts = np.asarray(self.starts)
        rates = np.asarray(self.rates)
        cum = np.asarray(self._cum)
        idx = np.searchsorted(starts, t_arr, side="right") - 1
        return _float_if_scalar(cum[idx] + rates[idx] * (t_arr - starts[idx]))

    def _tail_cif(self, t: float) -> float:
        """Lambda(t) for a float t >= starts[-1]: the last segment's closed
        form, the same arithmetic :meth:`cif` does there, without numpy."""
        return self._cum[-1] + self.rates[-1] * (t - self.starts[-1])

    def cif_inverse(self, y):
        """Smallest t with Lambda(t) >= y.

        Flat (zero-rate) stretches map to their left endpoint.  Accepts
        scalars or arrays.
        """
        y_arr = _nonneg(y, "cumulative intensity")
        cum = np.asarray(self._cum)
        # segment in which Lambda first reaches y, with cum < y if y > 0;
        # its rate is then strictly positive, because cum is constant
        # across zero-rate segments and the tail rate is positive
        idx = np.maximum(np.searchsorted(cum, y_arr, side="left") - 1, 0)
        rate = np.asarray(self.rates)[idx]
        # y = 0 with a zero first rate: 0 / 1 gives starts[0], not 0 / 0
        safe = np.where(rate > 0, rate, 1.0)
        return _float_if_scalar(np.asarray(self.starts)[idx] + (y_arr - cum[idx]) / safe)
