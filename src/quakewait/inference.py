"""Slope estimation, path likelihood, confidence intervals/bands, and
Monte Carlo verifiers for the asymptotic results.

The slope estimator over a window (tau*, tau] is the event count divided by
the window length; it maximizes the path log-likelihood and is
asymptotically normal with variance m / (tau - tau*).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .intensity import IntensityModel
from .limitlaw import random_cdf, sup_distance_exp
from .nhpp import EventTimes, _write_csv
from .rng import substreams
from .statfn import KsResult, folded_normal_cdf, ks_test, normal_cdf, normal_quantile


@dataclass(frozen=True)
class SlopeEstimate:
    """Estimated asymptotic slope over the window (tau_star, tau]."""

    m_hat: float
    tau_star: float
    tau: float
    count: int
    alpha: float | None = None
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
    if tau <= tau_star:
        raise ValueError("tau must exceed tau_star")
    if tau_star < 0:
        raise ValueError("tau_star must be nonnegative")
    if tau > events.horizon:
        raise ValueError("tau must not exceed the observation horizon")
    count = events.count_in(tau_star, tau)
    return SlopeEstimate(count / (tau - tau_star), tau_star, tau, count)


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
    if t <= tau_star:
        raise ValueError("t must exceed the model's tail_start")
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
    if not m_hat >= 0:
        raise ValueError("m_hat must be nonnegative")
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
    return SlopeEstimate(base.m_hat, tau_star, tau, base.count, alpha, low, high)


def confidence_bands(ci, grid) -> BandCurve:
    """Exponential band curves from a rate interval: the smaller rate gives
    the lower band, the larger the upper, since 1 - exp(-m h) increases
    in m."""
    low, high = float(min(ci)), float(max(ci))
    if low < 0:
        raise ValueError("rates must be nonnegative")
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
    _write_csv(fp, "h,lower,upper\n", "%.12g,%.12g,%.12g\n",
               band.grid, band.lower, band.upper)


def _slope_draws(m: float, windows, seed) -> np.ndarray:
    """Slope estimates at constant rate m, replicate i over [0, windows[i]].

    Only the event count enters the estimator, so replicate i draws
    N ~ Poisson(m windows[i]) from substream i rather than materializing
    the full path; the distribution of the estimate is identical.
    """
    gens = substreams(seed, len(windows))
    counts = np.array([g.poisson(m * w) for g, w in zip(gens, windows)], dtype=float)
    return counts / windows


def verify_clt(m: float, t: float, reps: int, seed) -> KsCheck:
    """KS-test sqrt(t) (m_hat - m) against N(0, m) over ``reps``
    replicates."""
    if reps < 100:
        raise ValueError("at least 100 replicates required")
    if not (m > 0 and t > 0):
        raise ValueError("m and t must be strictly positive")
    m_hats = _slope_draws(m, np.full(reps, t), seed)
    stats = math.sqrt(t) * (m_hats - m)
    sd = math.sqrt(m)
    ks = ks_test(stats, lambda x: normal_cdf(x / sd))
    return KsCheck(stats, ks)


def verify_glivenko_cantelli(m: float, taus, reps: int, seed) -> GcCheck:
    """Median sup-distance between the estimated and true limit CDFs, per
    window length; medians should shrink as the window grows."""
    taus = tuple(float(t) for t in taus)
    if reps < 1:
        raise ValueError("at least one replicate required")
    if not m > 0:
        raise ValueError("m must be strictly positive")
    if len(taus) < 2:
        raise ValueError("at least two window lengths required")
    if not all(t > 0 for t in taus):
        raise ValueError("window lengths must be strictly positive")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("window lengths must be increasing")
    # window j takes replicates j*reps .. (j+1)*reps - 1 of one run
    m_hats = _slope_draws(m, np.repeat(taus, reps), seed)
    dists = np.array([sup_distance_exp(mh, m) for mh in m_hats])
    medians = np.median(dists.reshape(len(taus), reps), axis=1)
    return GcCheck(taus, tuple(medians.tolist()))


def verify_kolmogorov_limit(m: float, tau: float, reps: int, seed) -> KsCheck:
    """KS-test sqrt(tau) * sup-distance against |N(0, exp(-2)/m)| over
    ``reps`` replicates."""
    if reps < 500:
        raise ValueError("at least 500 replicates required")
    if not (m > 0 and tau > 0):
        raise ValueError("m and tau must be strictly positive")
    m_hats = _slope_draws(m, np.full(reps, tau), seed)
    stats = math.sqrt(tau) * np.array([sup_distance_exp(mh, m) for mh in m_hats])
    sigma = math.exp(-1.0) / math.sqrt(m)
    ks = ks_test(stats, lambda x: folded_normal_cdf(x, sigma))
    return KsCheck(stats, ks)
