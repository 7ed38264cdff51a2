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

Note on the layout: ``table1_experiment`` checks its arguments once and
works on one row per t.  One call of the conditional-CDF kernel gives the
(T, r - 1) matrix of G_t(c_j); each t's uniforms are drawn, sorted and
counted below its row of cuts one t at a time, so no (T, n) array of draws
is held; the percentages and the statistics are one array expression each,
and only ``chi2_sf`` runs once per row.  ``bin_percentages`` is the
one-row case of the same counting helper.

Note on the statistic: with r equiprobable bins and percentages O_j, the
Pearson statistic is sum (O_j - 100/r)^2 / (100/r), which is (100/n) times
the count form sum (n_j - n/r)^2 / (n/r): the two agree at n = 100.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .limitlaw import WaitingLaw, _cdf, breakpoints, conditional_cdf
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


def _bin_rows(samples, cuts: np.ndarray, n: int) -> np.ndarray:
    """Percentages of n values in each bin, one row per sample array: row i
    bins ``samples[i]`` at the cuts ``cuts[i]``.

    Counted from the sorted values: the number below each cut, then the
    differences.  A value on a cut goes to the bin the cut opens.  The
    sample arrays are taken one at a time, so an iterator that draws each
    one holds only one of them.
    """
    below = np.empty((len(cuts), cuts.shape[1] + 2), dtype=np.intp)
    below[:, 0], below[:, -1] = 0, n
    for row, values, row_cuts in zip(below, samples, cuts):
        row[1:-1] = np.sort(values).searchsorted(row_cuts)
    return 100.0 * np.diff(below) / n


def bin_percentages(samples, cuts) -> np.ndarray:
    """Percentage of samples in each of the len(cuts)+1 bins
    [0, c_1), ..., [c_{r-1}, infinity).  A sample on a cut goes to the bin
    the cut opens."""
    cuts_arr = _nonneg(cuts, "cuts")
    if not (np.diff(cuts_arr) > 0).all():
        raise ValueError("cuts must be strictly increasing")
    samples_arr = _nonneg(samples, "samples")
    if samples_arr.size == 0:
        raise ValueError("at least one sample required")
    return _bin_rows([samples_arr], cuts_arr[np.newaxis], samples_arr.size)[0]


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
    do not depend on evaluation order.

    Every argument is checked before anything is drawn: n, then m and r,
    the seed, each t's law in order, and last each t's cells in order.
    ValueError where G_t(c_j) does not strictly increase in floating
    point, as on the boundary m t = k - 1 at k = 1e17.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("n must be at least 1")
    cuts = breakpoints(m, r)
    r = int(r)
    gens = substreams(seed, len(t_values))
    laws = [WaitingLaw(t, k, m) for t in t_values]
    if not laws:
        return []
    # one row of G_t(c_j) per t, on the laws' stored fields; at k = 1 every
    # row is the same
    t_col = np.array([law.t for law in laws])[:, np.newaxis]
    cdf = np.broadcast_to(_cdf(t_col, laws[0].k, laws[0].m, cuts), (len(laws), r - 1))
    for law, increasing in zip(laws, (np.diff(cdf) > 0).all(axis=1)):
        if not increasing:
            raise ValueError(f"G_t at t={law.t!r}, k={law.k}, m={law.m!r} rounds to "
                             "equal values at the cut points, so its bins cannot be "
                             "told apart")
    perc = _bin_rows((gen.random(n) for gen in gens), cdf, n)
    # chi_square_stat of each row, bit for bit: numpy sums each row of a
    # contiguous matrix as it sums that row alone
    expected = 100.0 / r
    stats = (np.sum((perc - expected) ** 2, axis=1) / expected).tolist()
    return [GofReport(law.t, row, stat, chi2_sf(stat, r - 1), n, r)
            for law, row, stat in zip(laws, perc, stats)]
