"""Goodness-of-fit of the conditional waiting-time law against its
exponential limit: equiprobable binning, the chi-square statistic on
observed percentages, and the full simulation experiment.

Note on the statistic: with r = 10 equiprobable bins and percentages O_j,
the Pearson statistic is sum (O_j - 10)^2 / 10, identical to the count
form sum (n_j - n/10)^2 / (n/10) at n = 1000.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limitlaw import WaitingLaw, breakpoints, sample_conditional
from .rng import substreams
from .statfn import chi2_sf


@dataclass(frozen=True, eq=False)
class GofReport:
    """One experiment row: observed bin percentages and the test result."""

    t: float
    percentages: np.ndarray
    chi2: float
    p_value: float
    n: int
    r: int


def bin_percentages(samples, cuts) -> np.ndarray:
    """Percentage of samples in each of the len(cuts)+1 bins
    [0, c_1), ..., [c_{r-1}, infinity)."""
    cuts_arr = np.asarray(cuts, dtype=float)
    if np.any(np.diff(cuts_arr) <= 0):
        raise ValueError("cuts must be strictly increasing")
    samples_arr = np.asarray(samples, dtype=float)
    if np.any(samples_arr < 0):
        raise ValueError("samples must be nonnegative")
    if samples_arr.size == 0:
        raise ValueError("at least one sample required")
    idx = np.searchsorted(cuts_arr, samples_arr, side="right")
    counts = np.bincount(idx, minlength=cuts_arr.size + 1)
    return 100.0 * counts / samples_arr.size


def _pearson(perc: np.ndarray, r: int) -> float:
    """Pearson statistic on r observed percentages with expected value
    100/r in every bin."""
    expected = 100.0 / r
    return float(np.sum((perc - expected) ** 2) / expected)


def chi_square_stat(percentages) -> float:
    """Pearson statistic on 10 observed percentages with expected value 10
    in every bin: sum (O_j - 10)^2 / 10."""
    p = np.asarray(percentages, dtype=float)
    if p.shape != (10,):
        raise ValueError("exactly 10 percentages required")
    if abs(p.sum() - 100.0) > 1e-6:
        raise ValueError("percentages must sum to 100")
    return _pearson(p, 10)


def gof_pvalue(stat: float) -> float:
    """Upper-tail probability of the statistic under chi-square with 9
    degrees of freedom."""
    if stat < 0:
        raise ValueError("statistic must be nonnegative")
    return chi2_sf(stat, 9)


def table1_experiment(m: float, k: int, t_values, n: int, seed,
                      r: int = 10) -> list[GofReport]:
    """For each elapsed time t: draw n waiting times from the conditional
    law, bin them at the equiprobable cut points of the limit law, and
    score the fit.  Replicate i (the i-th t value) uses substream i of the
    master seed, so results do not depend on evaluation order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cuts = breakpoints(m, r)
    reports = []
    for t, gen in zip(t_values, substreams(seed, len(t_values))):
        law = WaitingLaw(t, k, m)
        samples = sample_conditional(law, n, gen)
        perc = bin_percentages(samples, cuts)
        stat = _pearson(perc, r)
        p = chi2_sf(stat, r - 1)
        reports.append(GofReport(float(t), perc, stat, p, int(n), int(r)))
    return reports
