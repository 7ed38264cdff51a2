"""Special functions and distributional tests.

The regularized incomplete gamma is implemented here, to 1e-13 absolute
for s up to 5e5 (within 5e-14 of mpmath there).  The normal quantile is
the standard library's ``statistics.NormalDist.inv_cdf`` (Wichura's
AS241), accurate to about 1e-15.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 1000


class ConvergenceError(RuntimeError):
    """An iteration reached its cap before meeting its tolerance."""


@dataclass(frozen=True)
class KsResult:
    """Kolmogorov-Smirnov sup-distance and its asymptotic p-value."""

    statistic: float
    p_value: float


def _nonneg(x, what: str) -> np.ndarray:
    """``x`` as a float array; ValueError unless every element is >= 0,
    which NaN is not."""
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0).all():
        raise ValueError(f"{what} must be nonnegative")
    return arr


def _float_if_scalar(out):
    """The one scalar/array policy: a 0-d result becomes a Python float,
    an array is returned as it is."""
    return float(out) if np.ndim(out) == 0 else out


def _gamma_itmax(s: float) -> int:
    """Term cap for both incomplete-gamma branches.  Near x = s the series
    needs about 8.6 sqrt(s) terms, so the cap grows with sqrt(s) beyond
    s = 256 and is _GAMMA_ITMAX below it."""
    return int(_GAMMA_ITMAX * max(1.0, math.sqrt(s) / 16.0))


def _log_gamma_prefactor(s: float, x: float) -> float:
    """log(x^s e^-x / Gamma(s)), the prefactor both incomplete-gamma
    branches scale by.

    The direct form's three terms are each about s log s and cancel at
    large s, so from s = 20 on it is written in Loader's form (Loader 2000,
    "Fast and accurate computation of binomial probabilities"):
    -s (d - log1p d) + log(s / 2 pi) / 2 - stirlerr(s), with d = (x - s) / s.
    s (d - log1p d) is summed as an atanh series for |d| < 0.1, where it
    would cancel too, and stirlerr(s) = lgamma(s) - (s - 1/2) log s + s -
    log(2 pi) / 2 by its Stirling series.
    """
    if s < 20.0:
        return -x + s * math.log(x) - math.lgamma(s)
    d = (x - s) / s
    if abs(d) < 0.1:
        # with v = d / (2 + d): s (d - log1p d) = s d v - 2 s sum_{j>=1}
        # v^(2j+1) / (2j+1), the terms falling by v^2 < 0.0028
        v = d / (2.0 + d)
        bd0 = s * d * v
        term = -2.0 * s * v
        k = 1
        while True:
            term *= v * v
            k += 2
            nxt = bd0 + term / k
            if nxt == bd0:
                break
            bd0 = nxt
    else:
        bd0 = s * (d - math.log1p(d))
    ss = s * s
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * ss)) / ss) / ss)
                / ss) / s
    return -bd0 + 0.5 * math.log(s / (2.0 * math.pi)) - stirlerr


def _gamma_series(s: float, x: float) -> float:
    """P(s, x) by the power series; converges fast for x < s + 1."""
    term = 1.0 / s
    total = term
    a = s
    itmax = _gamma_itmax(s)
    for _ in range(itmax):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma series did not converge in {itmax} terms")
    return total * math.exp(_log_gamma_prefactor(s, x))


def _gamma_cf(s: float, x: float) -> float:
    """Q(s, x) by the modified Lentz continued fraction; for x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    itmax = _gamma_itmax(s)
    for i in range(1, itmax + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge in {itmax} terms")
    return f * math.exp(_log_gamma_prefactor(s, x))


def _reg_incomplete_gamma(s: float, x: float) -> tuple[float, float]:
    """(P(s, x), Q(s, x)), each clamped to [0, 1]; the one that the chosen
    branch computes directly keeps its digits in the tail."""
    if not 0 < s < math.inf:
        raise ValueError("s must be finite and strictly positive")
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if x < s + 1.0:
        p = _gamma_series(s, x)
        return min(p, 1.0), max(1.0 - p, 0.0)
    q = _gamma_cf(s, x)
    return max(1.0 - q, 0.0), min(q, 1.0)


def reg_lower_incomplete_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x)."""
    return _reg_incomplete_gamma(s, x)[0]


def reg_upper_incomplete_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x), computed
    without cancellation in the upper tail."""
    return _reg_incomplete_gamma(s, x)[1]


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function with ``df`` degrees of freedom."""
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    return reg_upper_incomplete_gamma(df / 2.0, x / 2.0)


_STANDARD_NORMAL = NormalDist()


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt 2); accepts scalars or arrays.

    The division runs on the array, as x / -sqrt 2, which is the same
    double as -x / sqrt 2; ``math.erfc`` runs per element through one
    ufunc, whose object result ``np.asarray`` turns back into floats (a
    Python float for 0-d input).
    """
    z = np.asarray(_ERFC(np.asarray(x, dtype=float) / -math.sqrt(2.0)), dtype=float)
    return _float_if_scalar(0.5 * z)


def folded_normal_cdf(x, sigma: float):
    """CDF of |N(0, sigma^2)|: 2 Phi(x / sigma) - 1 for x >= 0, else 0."""
    if not sigma > 0:
        raise ValueError("sigma must be strictly positive")
    with np.errstate(over="ignore"):  # x / sigma = inf gives Phi = 1
        z = np.asarray(x, dtype=float) / sigma
    # x < 0 gives Phi(z) <= 1/2, so the clip returns 0 there
    return _float_if_scalar(np.clip(2.0 * normal_cdf(z) - 1.0, 0.0, 1.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile Phi^{-1}(p) for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return _STANDARD_NORMAL.inv_cdf(p)


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function
    Q(lam) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lam^2), and 1 for lam <= 0.

    That series converges slowly below lam = 1, so there Q is taken from
    its theta-function form
    1 - (sqrt(2 pi) / lam) sum_{j>=1} exp(-(2j-1)^2 pi^2 / (8 lam^2)),
    whose fourth term is already below 1e-25.  From lam = 1 on, four
    terms of the series itself suffice: the fifth, exp(-50 lam^2), is
    below half an ulp of the sum.
    """
    if math.isnan(lam):
        raise ValueError("lam must not be NaN")
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        a = math.pi / lam  # a * a may overflow to inf, where exp gives 0
        total = sum(math.exp(-(2 * j - 1) ** 2 * a * a / 8.0) for j in range(1, 5))
        return 1.0 - math.sqrt(2.0 * math.pi) * total / lam
    total = sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 5))
    return 2.0 * total


def ks_test(samples, cdf) -> KsResult:
    """One-sample KS test of ``samples`` against the CDF evaluator ``cdf``.

    ``cdf`` must accept a sorted numpy array.  The p-value is the
    asymptotic Kolmogorov law of sqrt(n) D_n at every n, so it is accurate
    only at large n; it is not the exact finite-n distribution.
    ValueError if a sample is NaN or ``cdf`` returns NaN.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("at least one sample required")
    if math.isnan(x[-1]):  # the sort puts NaN last
        raise ValueError("samples must not be NaN")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    stat = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    if math.isnan(stat):
        raise ValueError("cdf must not return NaN")
    return KsResult(stat, kolmogorov_sf(math.sqrt(n) * stat))
