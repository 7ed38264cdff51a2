"""Earthquake catalog ingestion and recurrence analysis.

Events split into major shocks (magnitude >= 8.5 by default) and moderate
ones; each major shock anchors a segment whose moderate events are timed in
whole years since the anchor.  Slope estimates along a segment are exact
rationals: count of moderate events so far over years elapsed.
"""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .limitlaw import random_cdf
from .statfn import _float_if_scalar, _nonneg

MAJOR_THRESHOLD = 8.5

# Reference comparison values published for the Area A analysis, keyed by
# elapsed time t of the second segment: (h, estimated CDF).  Only the t=53
# row is consistent with 1 - exp(-m_hat h); see reproducibility_report.
PUBLISHED_COMPARISON = {
    53: ((63, 0.70), (65, 0.71), (68, 0.72), (100, 0.85), (102, 0.86),
         (103, 0.86), (108, 0.87), (109, 0.88)),
    116: ((2, 0.66), (5, 0.67), (37, 0.69), (39, 0.82), (40, 0.83),
          (45, 0.83), (46, 0.84)),
    118: ((3, 0.80), (35, 0.81), (37, 0.82), (38, 0.92), (43, 0.93),
          (44, 0.93)),
    121: ((32, 0.88), (34, 0.88), (35, 0.89), (40, 0.96), (41, 0.97)),
}

# a published row counts as formula-reproducible when every entry agrees
# with 1 - exp(-m_hat h) to within rounding slack
REPRODUCIBLE_TOL = 0.01


class CatalogFormatError(ValueError):
    """Malformed catalog input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class CatalogEvent:
    year: int
    magnitude: float


@dataclass(frozen=True)
class CatalogSegment:
    """Moderate events between consecutive major shocks, timed relative to
    the initiating major shock."""

    anchor_year: int
    anchor_magnitude: float
    relative_times: tuple
    magnitudes: tuple
    closed: bool


def parse_catalog(source) -> list[CatalogEvent]:
    """Parse a ``year,magnitude`` CSV from a text stream or string."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CatalogFormatError(1, "missing header") from None
    if [c.strip().lower() for c in header] != ["year", "magnitude"]:
        raise CatalogFormatError(1, "expected header 'year,magnitude'")
    events: list[CatalogEvent] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise CatalogFormatError(line_no, "expected two columns")
        try:
            year = int(row[0])
            magnitude = float(row[1])
        except ValueError:
            raise CatalogFormatError(line_no, f"non-numeric row {row!r}") from None
        if magnitude < 0:
            raise CatalogFormatError(line_no, "magnitude must be nonnegative")
        if events and year < events[-1].year:
            raise CatalogFormatError(line_no, "years must be nondecreasing")
        events.append(CatalogEvent(year, magnitude))
    return events


def load_reference_catalog() -> list[CatalogEvent]:
    """The 39-event Area A reference catalog shipped with the package."""
    text = resources.files("quakewait").joinpath("data/area_a_catalog.csv").read_text()
    return parse_catalog(text)


def segment_by_major(events, threshold: float = MAJOR_THRESHOLD) -> list[CatalogSegment]:
    """Split the catalog at events with magnitude >= threshold.

    Each qualifying event opens a segment at relative time 0; later
    sub-threshold events are timed as year differences.  Events before the
    first anchor are discarded with a warning.
    """
    if not threshold > 0:
        raise ValueError("threshold must be strictly positive")
    segments: list[CatalogSegment] = []
    anchor = None
    rel: list[int] = []
    mags: list[float] = []
    dropped = 0
    for ev in events:
        if ev.magnitude >= threshold:
            if anchor is not None:
                segments.append(CatalogSegment(anchor.year, anchor.magnitude,
                                               tuple(rel), tuple(mags), True))
            anchor = ev
            rel, mags = [], []
        elif anchor is None:
            dropped += 1
        else:
            rel.append(ev.year - anchor.year)
            mags.append(ev.magnitude)
    if anchor is None:
        warnings.warn("no event reaches the major threshold; empty result")
        return []
    if dropped:
        warnings.warn(f"{dropped} event(s) before the first major shock discarded")
    segments.append(CatalogSegment(anchor.year, anchor.magnitude,
                                   tuple(rel), tuple(mags), False))
    return segments


def slope_series(segment: CatalogSegment) -> list[tuple[int, Fraction]]:
    """(t, m_hat) at the anchor and at every moderate event: the i-th event
    at relative time t gives m_hat = i / t, kept as an exact rational."""
    if segment.relative_times and segment.relative_times[0] == 0:
        raise ValueError("moderate event at relative time 0 is not supported")
    series = [(0, Fraction(0))]
    for i, t in enumerate(segment.relative_times, start=1):
        series.append((t, Fraction(i, t)))
    return series


def slope_at(segment: CatalogSegment, t: int) -> Fraction:
    """m_hat at elapsed time t > 0: events within (0, t] over t."""
    if t <= 0:
        raise ValueError("t must be strictly positive")
    count = sum(1 for rt in segment.relative_times if rt <= t)
    return Fraction(count, t)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step CDF over waiting times, with one jump per
    later event (tied times give a double jump)."""

    jumps: tuple

    def __post_init__(self):
        if not self.jumps or any(b < a for a, b in zip(self.jumps, self.jumps[1:])):
            raise ValueError("jumps must be nonempty and nondecreasing")

    @property
    def n(self) -> int:
        return len(self.jumps)

    def __call__(self, h):
        out = np.searchsorted(np.asarray(self.jumps, dtype=float), _nonneg(h, "h"),
                              side="right") / self.n
        return _float_if_scalar(out)


def empirical_waiting_cdf(segment: CatalogSegment, t: int) -> EmpiricalCdf:
    """Empirical CDF of waiting times beyond elapsed time t, built from the
    segment's later events."""
    if t not in segment.relative_times:
        raise ValueError(f"t={t} is not an event time of this segment")
    later = [rt - t for rt in segment.relative_times if rt > t]
    if not later:
        raise ValueError(f"no events after t={t} in this segment")
    return EmpiricalCdf(tuple(later))


@dataclass(frozen=True)
class ComparisonRow:
    h: int
    empirical: float
    estimated: float
    abs_diff: float


def compare_cdfs(segment: CatalogSegment, t: int) -> list[ComparisonRow]:
    """Empirical vs estimated waiting-time CDF at every jump of the
    empirical one; the estimate uses m_hat at the same elapsed time."""
    ecdf = empirical_waiting_cdf(segment, t)
    m_hat = float(slope_at(segment, t))
    rows = []
    for h in sorted(set(ecdf.jumps)):
        emp = ecdf(h)
        est = random_cdf(m_hat, h)
        rows.append(ComparisonRow(int(h), emp, est, abs(est - emp)))
    return rows


@dataclass(frozen=True)
class ReproducibilityNote:
    t: int
    max_abs_dev: float
    reproducible: bool


def reproducibility_report(segment: CatalogSegment) -> list[ReproducibilityNote]:
    """Check each published comparison row against the generating formula
    1 - exp(-m_hat h) and flag rows that cannot be reproduced from it.

    With the reference catalog only the t=53 row reproduces; the published
    t=116/118/121 rows disagree with the formula by large margins.
    """
    notes = []
    for t, published in sorted(PUBLISHED_COMPARISON.items()):
        m_hat = float(slope_at(segment, t))
        dev = max(abs(random_cdf(m_hat, h) - g) for h, g in published)
        notes.append(ReproducibilityNote(t, dev, dev <= REPRODUCIBLE_TOL))
    return notes
