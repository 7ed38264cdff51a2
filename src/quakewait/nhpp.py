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


@dataclass(frozen=True, eq=False)
class EventTimes:
    """A realized path: strictly increasing occurrence times on
    (0, horizon], with a finite horizon."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        # each check is written so that a NaN fails it; a finite horizon
        # bounds every event time
        if not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be finite and nonnegative")
        if times.size:
            if not times[0] > 0:
                raise ValueError("event times must be strictly positive")
            if not np.all(np.diff(times) > 0):
                raise ValueError("event times must be strictly increasing")
            if not times[-1] <= self.horizon:
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
    rng = np.random.default_rng(seed)
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
    times = model.cif_inverse(s)
    times = times[times <= horizon]
    return EventTimes(times, horizon)


def jump_time_pdf(model: IntensityModel, k: int, t: float) -> float:
    """Density of the k-th jump time: lambda(t) Lambda(t)^{k-1}
    exp(-Lambda(t)) / (k-1)!; zero for t < 0 and where Lambda(t) = inf.

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
    # the log form below would take log 0, or be inf - inf at t = inf
    if big_l == math.inf or (k > 1 and big_l == 0.0):
        return 0.0
    log_pdf = math.log(lam) - big_l - math.lgamma(k)
    if k > 1:
        log_pdf += (k - 1) * math.log(big_l)
    return math.exp(log_pdf)


def sample_jump_times(model: IntensityModel, k: int, n: int, seed) -> np.ndarray:
    """n independent draws of the k-th jump time: the inverse cumulative
    rate at Gamma(k, 1) draws, the law of a sum of k unit exponentials."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    return model.cif_inverse(rng.gamma(k, size=int(n)))


_CSV_BLOCK = 4096


def _write_csv(fp, header: str, row, *columns) -> None:
    """Write ``header``, then one ``%``-style ``row`` per element of the
    equal-length 1-d float arrays ``columns``; ``row`` is one format for
    every row or a list of one per row.

    Each block of rows is formatted in one operation, the block's formats
    joined and applied to its values in row order, and written in one
    ``fp.write``, so a long file is never held as one string.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    fp.write(header)
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.stack([c[lo:lo + _CSV_BLOCK] for c in columns], axis=1)
        fmt = row * len(block) if isinstance(row, str) else "".join(row[lo:lo + len(block)])
        fp.write(fmt % tuple(block.ravel().tolist()))


def write_events_csv(events: EventTimes, fp) -> None:
    """Write a path as CSV: header ``time``, ascending, 12 significant
    digits where they read back as a valid path.

    Rounding to 12 digits is monotone and moves a value by at most half a
    unit of its 12th digit, so only neighbours at most 1e-11 of their value
    apart can print alike.  Both rows of such a pair, and a last row whose
    12-digit form would exceed the horizon, are written with 17 digits,
    which read back exactly.
    """
    times, row, exact = events.times, "%.12g\n", []
    if times.size:
        gaps = np.diff(times)
        # gaps[i] <= 1e-11 times[i + 1] implies gaps[i] <= 1e-11 times[-1], a
        # scalar test that finds the few candidates without a second full array
        pairs = np.flatnonzero(gaps <= 1e-11 * times[-1])
        pairs = pairs[gaps[pairs] <= 1e-11 * times[pairs + 1]]
        exact = [*pairs.tolist(), *(pairs + 1).tolist()]
        if float("%.12g" % times[-1]) > events.horizon:
            exact.append(times.size - 1)
    if exact:
        row = [row] * times.size
        for i in exact:
            row[i] = "%.17g\n"
    _write_csv(fp, "time\n", row, times)


def read_events_csv(fp, horizon: float) -> EventTimes:
    """Read a path written by :func:`write_events_csv`; ``horizon`` is the
    end of the observation window, which the file does not hold.  The last
    event time would understate it, and a slope over it would read high.

    A row that is not a number, or that breaks a rule of
    :class:`EventTimes`, raises ``ValueError`` naming its line.
    """
    header = fp.readline().strip()
    if header != "time":
        raise ValueError("expected header 'time'")
    lines = fp.readlines()
    try:
        return EventTimes(np.array([float(s) for s in lines if s.strip()], dtype=float),
                          horizon)
    except ValueError:
        EventTimes((), horizon)  # a bad horizon is no row's fault
        prev = 0.0
        for line_no, line in enumerate(lines, start=2):
            cell = line.strip()
            if not cell:
                continue
            try:
                t = float(cell)
            except ValueError:
                t = None
            fault = ("is not a number" if t is None else
                     "is NaN" if math.isnan(t) else
                     "is not strictly positive" if not t > 0 else
                     "does not exceed the event time before it" if not t > prev else
                     f"exceeds the horizon {horizon!r}" if t > horizon else None)
            if fault:
                raise ValueError(f"line {line_no}: event time {cell!r} {fault}") from None
            prev = t
        raise
