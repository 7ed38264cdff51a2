"""Non-homogeneous Poisson process sample paths and jump times.

Simulation uses the time transformation: unit-rate arrival epochs are pushed
through the inverse cumulative rate, which is exact for piecewise-constant
intensities and needs no rejection loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intensity import IntensityModel
from .rng import as_generator


@dataclass(frozen=True, eq=False)
class EventTimes:
    """A realized path: strictly increasing occurrence times on
    (0, horizon]."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if times.size:
            if times[0] <= 0:
                raise ValueError("event times must be strictly positive")
            if np.any(np.diff(times) <= 0):
                raise ValueError("event times must be strictly increasing")
            if times[-1] > self.horizon:
                raise ValueError("event times must not exceed the horizon")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", float(self.horizon))

    def __len__(self) -> int:
        return int(self.times.size)

    def count_at(self, t: float) -> int:
        """N_t: number of events with time <= t."""
        return int(np.searchsorted(self.times, t, side="right"))

    def count_in(self, a: float, b: float) -> int:
        """Events in the half-open window (a, b]."""
        return self.count_at(b) - self.count_at(a)


def simulate_path(model: IntensityModel, horizon: float, seed) -> EventTimes:
    """Simulate one path on [0, horizon]; deterministic given the seed."""
    if not 0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    rng = as_generator(seed)
    total = model.cif(horizon)
    epochs = []
    acc = 0.0
    chunk = max(64, int(total + 10.0 * math.sqrt(total + 1.0)))
    while acc <= total:
        block = np.cumsum(rng.exponential(size=chunk)) + acc
        epochs.append(block)
        acc = block[-1]
    s = np.concatenate(epochs)
    s = s[s <= total]
    times = np.asarray(model.cif_inverse(s), dtype=float)
    times = times[times <= horizon]
    return EventTimes(times, horizon)


def jump_time_pdf(model: IntensityModel, k: int, t: float) -> float:
    """Density of the k-th jump time: lambda(t) Lambda(t)^{k-1}
    exp(-Lambda(t)) / (k-1)!; zero for t < 0.

    Evaluated in log space so large k cannot overflow.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    k = int(k)
    if t < 0:
        return 0.0
    lam = model.rate(t)
    if lam == 0.0:
        return 0.0
    big_l = model.cif(t)
    if k > 1 and big_l == 0.0:
        return 0.0
    log_pdf = math.log(lam) - big_l - math.lgamma(k)
    if k > 1:
        log_pdf += (k - 1) * math.log(big_l)
    return math.exp(log_pdf)


def sample_jump_times(model: IntensityModel, k: int, n: int, seed) -> np.ndarray:
    """n independent draws of the k-th jump time: the inverse cumulative
    rate applied to a sum of k unit exponentials."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = as_generator(seed)
    sums = rng.exponential(size=(int(n), int(k))).sum(axis=1)
    return np.asarray(model.cif_inverse(sums), dtype=float)


_CSV_BLOCK = 4096


def _write_csv(fp, header: str, row: str, *columns) -> None:
    """Write ``header``, then one ``%``-style ``row`` per element of the
    equal-length 1-d float arrays ``columns``.

    Each block of rows is formatted in one operation, ``row`` repeated once
    per row applied to the block's values in row order, and written in one
    ``fp.write``, so a long file is never held as one string.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    fp.write(header)
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.stack([c[lo:lo + _CSV_BLOCK] for c in columns], axis=1)
        fp.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_events_csv(events: EventTimes, fp) -> None:
    """Write a path as CSV: header ``time``, ascending, 12 significant
    digits."""
    _write_csv(fp, "time\n", "%.12g\n", events.times)


def read_events_csv(fp, horizon=None) -> EventTimes:
    """Read a path written by :func:`write_events_csv`."""
    header = fp.readline().strip()
    if header != "time":
        raise ValueError("expected header 'time'")
    times = np.array([float(line) for line in fp if line.strip()], dtype=float)
    if horizon is None:
        horizon = times[-1] if times.size else 0.0
    return EventTimes(times, horizon)
