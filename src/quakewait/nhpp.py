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


def _digit_tables():
    """The tables of the CSV writer's table path, built by numpy slicing.

    ``digits[16 * g + 4 * b + c]``: the first c digits of ``b"%03d" % g``,
    with a decimal point after its digit b when b > 0, NUL-padded to four
    bytes and read as one little-endian ``uint32``.

    ``last[j, g]``: where, among a 12-digit significand's digits, the last
    nonzero digit of its group j (digits 3j + 1 to 3j + 3) falls when that
    group is g; 0 for g = 0.

    ``variant[j, 13 * last + point]``: the column ``4 * b + c`` of group j
    for a significand whose last nonzero digit is digit ``last`` and whose
    decimal point follows digit ``point``.  Digits past both are trailing
    zeros and are dropped, and so is a point that no digit follows.
    """
    g = np.arange(1000)
    group = np.stack([g // 100, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    cells = np.zeros((1000, 4, 4, 4), np.uint8)  # g, b, c, byte
    for c in range(4):
        cells[:, 0, c, :c] = group[:, :c]
        for b in range(1, 4):
            cells[:, b, c, :b] = group[:, :b]
            cells[:, b, c, b] = ord(".")
            cells[:, b, c, b + 1:c + 1] = group[:, b:c]
    j = np.arange(4)[:, None]
    last = np.where(g > 0, 3 * j + 3 - (g % 10 == 0) - (g % 100 == 0), 0)
    last_digit, point = np.divmod(np.arange(13 * 13), 13)
    b = point - 3 * j
    variant = (4 * np.where((b >= 1) & (b <= 3) & (last_digit > point), b, 0)
               + np.clip(np.maximum(last_digit, point) - 3 * j, 0, 3))
    return cells.view("<u4").ravel(), last, variant


_DIGITS, _LAST, _VARIANT = _digit_tables()
_POW10 = np.array([float(10 ** k) for k in range(12)])
# one CSV cell: its text, NUL-padded, then its separator; '%.17g' of a
# float is at most 24 characters
_CELL = np.dtype([("text", "S24"), ("sep", "<u4")])


def _fill_table_cells(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write ``'%.12g' % v`` into ``words[i, :4]`` for each ``v = x[i]`` in
    [1, 1e12) whose 12-digit rounding binary64 decides; return where it did."""
    ok = (x >= 1) & (x < 1e12)
    xs = np.where(ok, x, 1.0)
    e = np.minimum(np.log10(xs), 11).astype(np.intp)  # floor(log10 x), or off by one
    y = xs * _POW10.take(11 - e)
    d = np.rint(y)
    # an e one too small puts y from 1e12 up; one too large puts it below
    # 1e11, or at 1e11 when rounded up from just below, which prints alike;
    # d = 1e12 carries into a 13th digit
    ok &= (y >= 1e11) & (d < 1e12) & (np.abs(y - d) < 0.5 - 2.0 ** -12)
    q, g3 = np.divmod(np.where(ok, d, 0).astype(np.int64), 1000)
    q, g2 = np.divmod(q, 1000)
    groups = (*np.divmod(q, 1000), g2, g3)
    last = np.maximum.reduce([_LAST[j].take(g) for j, g in enumerate(groups)])
    key = 13 * last + e + 1
    for j, g in enumerate(groups):
        words[:, j] = _DIGITS.take(16 * g + _VARIANT[j].take(key))
    return ok


def _write_csv(fp, header: str, *columns, exact=()) -> None:
    """Write ``header``, then one row per element of the equal-length 1-d
    float arrays ``columns``: each value as ``'%.12g' % v``, or as
    ``'%.17g' % v`` in the rows whose indices are in ``exact``, with ``,``
    between cells.

    Most cells take a table path.  A value v in [1, 1e12) with decimal
    exponent e is scaled to y = v * 10**(11 - e) in one binary64 multiply,
    whose rounding moves y by at most 2**-14 below 1e12.  Where y lies more
    than 2**-12 from a half-integer, its nearest integer D is the 12-digit
    decimal significand that ``%`` rounds to, so its digits, read three at a
    time from a 1000-row table with trailing zeros and a bare point dropped,
    are byte for byte ``'%.12g' % v``.  Every other cell (0, negatives,
    values below 1 or from 1e12 up, NaN, infinities, the near-ties and the
    ``exact`` rows) takes the ``%`` path: one ``%`` per block and format
    formats them all, and each lands in its own cell.

    Each block of rows is built as fixed-width NUL-padded cells, compacted
    by ``bytes.translate`` and written in one ``fp.write``, so a long file
    is never held as one string.  (A ``%`` over the whole block's text, with
    the table cells as literal digits, was faster but raised the peak RSS
    of repeated 1e5-row writes by about 1.3 MB.)
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    is_exact = np.zeros(len(columns[0]), bool)
    is_exact[np.asarray(exact, dtype=np.intp)] = True
    fp.write(header)
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.stack([c[lo:lo + _CSV_BLOCK] for c in columns], axis=1)
        cells = np.zeros(block.shape, _CELL)
        cells["sep"][:, :-1], cells["sep"][:, -1] = ord(","), ord("\n")
        ok = _fill_table_cells(block.ravel(), cells.view("<u4").reshape(block.size, -1))
        ok = ok.reshape(block.shape)
        ex = np.broadcast_to(is_exact[lo:lo + len(block), None], block.shape)
        for fmt, mask in ((b"%.12g\0", ~ok & ~ex), (b"%.17g\0", ex)):
            vals = block[mask].tolist()
            cells["text"][mask] = (fmt * len(vals) % tuple(vals)).split(b"\0")[:-1]
        fp.write(cells.tobytes().translate(None, b"\0").decode())


def write_events_csv(events: EventTimes, fp) -> None:
    """Write a path as CSV: header ``time``, ascending, 12 significant
    digits where they read back as a valid path.

    Rounding to 12 digits is monotone and moves a value by at most half a
    unit of its 12th digit, so only neighbours at most 1e-11 of their value
    apart can print alike.  Both rows of such a pair, and a last row whose
    12-digit form would exceed the horizon, are written with 17 digits,
    which read back exactly.
    """
    times, exact = events.times, []
    if times.size:
        gaps = np.diff(times)
        # gaps[i] <= 1e-11 times[i + 1] implies gaps[i] <= 1e-11 times[-1], a
        # scalar test that finds the few candidates without a second full array
        pairs = np.flatnonzero(gaps <= 1e-11 * times[-1])
        pairs = pairs[gaps[pairs] <= 1e-11 * times[pairs + 1]]
        exact = [*pairs.tolist(), *(pairs + 1).tolist()]
        if float("%.12g" % times[-1]) > events.horizon:
            exact.append(times.size - 1)
    _write_csv(fp, "time\n", times, exact=exact)


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
