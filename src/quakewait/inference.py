"""Slope estimation, path likelihood, confidence intervals/bands, and
Monte Carlo verifiers for the asymptotic results.

The slope estimator over a window (tau*, tau] is the event count divided by
the window length; it maximizes the path log-likelihood and is
asymptotically normal with variance m / (tau - tau*).
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .intensity import IntensityModel
from .limitlaw import random_cdf, sup_distance_exp
from .nhpp import EventTimes, _write_csv
from .rng import substreams
from .statfn import KsResult, folded_normal_cdf, ks_test, normal_cdf, normal_quantile

# numpy's Generator.poisson rejects any larger mean
_POISSON_MEAN_MAX = np.iinfo("l").max - 10 * math.sqrt(np.iinfo("l").max)


@dataclass(frozen=True)
class SlopeEstimate:
    """Slope estimate ``m_hat`` from the event ``count`` in a window, and
    its confidence interval ``ci_low`` to ``ci_high`` when one is asked for."""

    m_hat: float
    count: int
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True, eq=False)
class BandCurve:
    """Lower/upper confidence band for the limit CDF on a time grid."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True, eq=False)
class KsCheck:
    """Scaled statistics from one Monte Carlo verification run and their
    KS test against the limiting law."""

    statistics: np.ndarray
    ks: KsResult


@dataclass(frozen=True)
class GcCheck:
    """Median sup-distances per window length."""

    taus: tuple
    medians: tuple


def estimate_slope(events: EventTimes, tau_star: float, tau: float) -> SlopeEstimate:
    """Count events in (tau_star, tau] and divide by the window length.

    An event exactly at tau_star belongs to the previous epoch; one exactly
    at tau is counted.
    """
    if not tau > tau_star:
        raise ValueError("tau must exceed tau_star")
    if not tau_star >= 0:
        raise ValueError("tau_star must be nonnegative")
    if not tau <= events.horizon:
        raise ValueError("tau must not exceed the observation horizon")
    count = events.count_in(tau_star, tau)
    return SlopeEstimate(count / (tau - tau_star), count)


def path_log_likelihood(events: EventTimes, model: IntensityModel, t: float) -> float:
    """Log of the path-likelihood ratio against a unit-rate process on
    [0, t].

    Equals sum over events u <= tau* of log(lambda(u)), plus
    log(m) * (N_t - N_tau*), minus the integral of (lambda - 1) over
    [0, tau*], minus (t - tau*)(m - 1).  An event landing where lambda = 0
    yields minus infinity.
    """
    tau_star = model.tail_start
    m = model.tail_rate
    if not t > tau_star:
        raise ValueError("t must exceed the model's tail_start")
    if t == math.inf:
        raise ValueError("t must be finite")
    times = events.times
    n = len(events)
    if n and times[-1] > t:
        raise ValueError("events must lie within [0, t]")
    # plain floats from here on: a numpy call per event or per 0-d value
    # costs more than the arithmetic at the few early events a path has
    n_early = int(times.searchsorted(tau_star, side="right"))
    starts, rates = model.starts, model.rates
    total = 0.0
    for u in times[:n_early].tolist():
        lam = rates[bisect_right(starts, u) - 1]
        if lam == 0.0:
            return float("-inf")
        total += math.log(lam)
    total += math.log(m) * (n - n_early)
    total -= model._tail_cif(tau_star) - tau_star
    total -= (t - tau_star) * (m - 1.0)
    return total


def slope_ci(m_hat: float, tau_star: float, tau: float, alpha: float):
    """Confidence interval for the slope: the two roots in m of
    t (m_hat - m)^2 = x^2 m, with t = tau - tau_star and x the two-sided
    normal quantile for level alpha."""
    if not 0 <= m_hat < math.inf:
        raise ValueError("m_hat must be nonnegative and finite")
    if not tau > tau_star:
        raise ValueError("tau must exceed tau_star")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    t = tau - tau_star
    x = normal_quantile(1.0 - alpha / 2.0)
    half_sum = x * x / t + 2.0 * m_hat
    half_diff = (x / math.sqrt(t)) * math.sqrt(x * x / t + 4.0 * m_hat)
    high = 0.5 * (half_sum + half_diff)
    # the roots multiply to m_hat^2 (high is 0 only if m_hat = 0 and t = inf)
    return (m_hat * m_hat / high if high > 0 else 0.0), high


def estimate_slope_with_ci(events: EventTimes, tau_star: float, tau: float,
                           alpha: float) -> SlopeEstimate:
    """Slope estimate plus its confidence interval."""
    base = estimate_slope(events, tau_star, tau)
    low, high = slope_ci(base.m_hat, tau_star, tau, alpha)
    return SlopeEstimate(base.m_hat, base.count, low, high)


def confidence_bands(ci, grid) -> BandCurve:
    """Exponential band curves from a rate interval: the smaller rate gives
    the lower band, the larger the upper, since 1 - exp(-m h) increases
    in m."""
    rates = [float(c) for c in ci]
    if not all(c >= 0 for c in rates):
        raise ValueError("rates must be nonnegative")
    low, high = min(rates), max(rates)
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.diff(grid_arr) <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.any(grid_arr < 0):
        raise ValueError("grid times must be nonnegative")
    return BandCurve(grid_arr, random_cdf(low, grid_arr), random_cdf(high, grid_arr))


def write_bands_csv(band: BandCurve, fp) -> None:
    """Write a band curve as CSV: header ``h,lower,upper``, 12 significant
    digits."""
    _write_csv(fp, "h,lower,upper\n", band.grid, band.lower, band.upper)


def _slope_draws(m: float, windows, seed) -> np.ndarray:
    """Slope estimates at constant rate m, replicate i over [0, windows[i]].

    Only the event count enters the estimator, so replicate i draws
    N ~ Poisson(m windows[i]) from substream i rather than materializing
    the full path; the distribution of the estimate is identical.  This is
    every verifier's one check of its rate and windows: m and each window
    must be strictly positive (a NaN fails both), and m times the longest
    window at most the largest Poisson mean numpy draws.
    """
    m, window = float(m), float(np.max(windows))
    if not m > 0:
        raise ValueError("m must be strictly positive")
    if not np.all(windows > 0):
        raise ValueError("window lengths must be strictly positive")
    if not m * window <= _POISSON_MEAN_MAX:
        raise ValueError(f"m * window must be at most {_POISSON_MEAN_MAX!r}, the largest "
                         f"Poisson mean numpy draws (got m={m!r}, window={window!r})")
    gens = substreams(seed, len(windows))
    counts = np.fromiter(map(np.random.Generator.poisson, gens, (m * windows).tolist()),
                         float, len(gens))
    return counts / windows


def _replicate_count(reps) -> int:
    """``reps`` as an int; a numpy integer passes, a float or NaN does not."""
    try:
        return operator.index(reps)
    except TypeError:
        raise ValueError(f"reps must be an integer, got {reps!r}") from None


def _verify_ks(m: float, t: float, reps: int, seed, min_reps: int,
               statistic, limit_cdf) -> KsCheck:
    """KS-test ``statistic`` of ``reps`` slope draws at window t against ``limit_cdf``."""
    reps = _replicate_count(reps)
    if reps < min_reps:
        raise ValueError(f"at least {min_reps} replicates required")
    stats = statistic(_slope_draws(m, np.full(reps, t), seed))
    return KsCheck(stats, ks_test(stats, limit_cdf))


def verify_clt(m: float, t: float, reps: int, seed) -> KsCheck:
    """KS-test sqrt(t) (m_hat - m) against N(0, m) over ``reps``
    replicates."""
    return _verify_ks(m, t, reps, seed, 100, lambda m_hats: math.sqrt(t) * (m_hats - m),
                      lambda x: normal_cdf(x / math.sqrt(m)))


def verify_glivenko_cantelli(m: float, taus, reps: int, seed) -> GcCheck:
    """Median sup-distance between the estimated and true limit CDFs, per
    window length; medians should shrink as the window grows."""
    taus = tuple(float(t) for t in taus)
    reps = _replicate_count(reps)
    if reps < 1:
        raise ValueError("at least one replicate required")
    if len(taus) < 2:
        raise ValueError("at least two window lengths required")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("window lengths must be increasing")
    # window j takes replicates j*reps .. (j+1)*reps - 1 of one run
    m_hats = _slope_draws(m, np.repeat(taus, reps), seed)
    dists = sup_distance_exp(m_hats, m)
    medians = np.median(dists.reshape(len(taus), reps), axis=1)
    return GcCheck(taus, tuple(medians.tolist()))


def verify_kolmogorov_limit(m: float, tau: float, reps: int, seed) -> KsCheck:
    """KS-test sqrt(tau) * sup-distance against |N(0, exp(-2)/m)| over
    ``reps`` replicates."""
    return _verify_ks(m, tau, reps, seed, 500,
                      lambda m_hats: math.sqrt(tau) * sup_distance_exp(m_hats, m),
                      lambda x: folded_normal_cdf(x, math.exp(-1.0) / math.sqrt(m)))
