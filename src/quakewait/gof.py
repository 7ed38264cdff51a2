"""Goodness-of-fit of the conditional waiting-time law against its
exponential limit: equiprobable binning, the chi-square statistic on
observed percentages, and the full simulation experiment.

Note on the experiment: a waiting time drawn by inversion is
h = G_t^{-1}(u) for a uniform u, and G_t is strictly increasing, so h lies
below a cut c exactly when u lies below G_t(c).  The experiment therefore
bins the uniforms at the cumulative probabilities G_t(c_j) and never inverts
G_t: its counts are multinomial with the exact cell probabilities, which
``expected_percentages`` returns.  Binning ``sample_conditional`` draws
from the same generator gives the same counts except where a uniform lies
within the sampler's 1e-12 tolerance of some G_t(c_j), a chance of about
2e-12 (r - 1) per draw.

Note on the statistic: with r equiprobable bins and percentages O_j, the
Pearson statistic is sum (O_j - 100/r)^2 / (100/r), which is (100/n) times
the count form sum (n_j - n/r)^2 / (n/r): the two agree at n = 100.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limitlaw import WaitingLaw, breakpoints, conditional_cdf
from .rng import substreams
from .statfn import _nonneg, chi2_sf


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
    [0, c_1), ..., [c_{r-1}, infinity).

    Counted from the sorted samples: the number below each cut, then the
    differences.  A sample on a cut goes to the bin the cut opens.
    """
    cuts_arr = _nonneg(cuts, "cuts")
    if not (np.diff(cuts_arr) > 0).all():
        raise ValueError("cuts must be strictly increasing")
    samples_arr = _nonneg(samples, "samples")
    if samples_arr.size == 0:
        raise ValueError("at least one sample required")
    below = np.sort(samples_arr).searchsorted(cuts_arr)
    counts = np.diff(below, prepend=0, append=samples_arr.size)
    return 100.0 * counts / samples_arr.size


def chi_square_stat(percentages) -> float:
    """Pearson statistic on a row of r >= 2 observed percentages with
    expected value 100/r in every bin: sum (O_j - 100/r)^2 / (100/r)."""
    p = _nonneg(percentages, "percentages")
    if p.ndim != 1 or p.size < 2:
        raise ValueError("percentages must be one row of at least 2 bins")
    if abs(p.sum() - 100.0) > 1e-6:
        raise ValueError("percentages must sum to 100")
    expected = 100.0 / p.size
    return float(np.sum((p - expected) ** 2) / expected)


def gof_pvalue(stat: float) -> float:
    """Upper-tail probability of a 10-bin statistic under chi-square with
    9 degrees of freedom, the Table 1 test."""
    if not stat >= 0:
        raise ValueError("statistic must be nonnegative")
    return chi2_sf(stat, 9)


def expected_percentages(law: WaitingLaw, r: int) -> np.ndarray:
    """Percentage of the conditional law in each of the r bins cut at the
    equiprobable points of its exponential limit: 100 (G_t(c_j) -
    G_t(c_{j-1})), with G_t(c_0) = 0 and G_t(c_r) = 1."""
    cdf = conditional_cdf(law, breakpoints(law.m, r))
    return 100.0 * np.diff(cdf, prepend=0.0, append=1.0)


def table1_experiment(m: float, k: int, t_values, n: int, seed,
                      r: int = 10) -> list[GofReport]:
    """For each elapsed time t: bin n draws of the conditional law at the
    equiprobable cut points c_j of the limit law, and score the fit.

    A draw G_t^{-1}(u) falls below c_j exactly when its uniform u falls
    below G_t(c_j), so the n uniforms are binned at G_t(c_j) and the counts
    are multinomial with the exact cell probabilities; no draw is inverted.
    The uniforms are those ``sample_conditional`` would invert.  Replicate
    i (the i-th t value) uses substream i of the master seed, so results
    do not depend on evaluation order.  ValueError where G_t(c_j) does not
    strictly increase in floating point, as on the boundary m t = k - 1 at
    k = 1e17."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cuts = breakpoints(m, r)
    reports = []
    for t, gen in zip(t_values, substreams(seed, len(t_values))):
        law = WaitingLaw(t, k, m)
        cdf = conditional_cdf(law, cuts)
        if not (np.diff(cdf) > 0).all():
            raise ValueError(f"G_t at t={law.t!r}, k={law.k}, m={law.m!r} rounds to "
                             "equal values at the cut points, so its bins cannot be "
                             "told apart")
        perc = bin_percentages(gen.random(int(n)), cdf)
        stat = chi_square_stat(perc)
        p = chi2_sf(stat, r - 1)
        reports.append(GofReport(float(t), perc, stat, p, int(n), int(r)))
    return reports
