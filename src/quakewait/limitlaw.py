"""The exponential limit law and the conditional waiting-time family.

``limit_cdf`` is the exponential law 1 - exp(-m h) toward which the
conditional family converges as the elapsed time grows; ``conditional_cdf``
is the exact law at elapsed time t for the k-th shock under a linear
cumulative rate with slope m.  ``random_cdf`` evaluates 1 - exp(-m h) for
every rate m >= 0, the estimate m = 0 included; ``limit_cdf`` calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statfn import ConvergenceError, _float_if_scalar, _nonneg

_U_TOL = 1e-12
_MAX_ITER = 200


class ValidityError(ValueError):
    """The (t, k, m) triple does not define a proper CDF."""


@dataclass(frozen=True)
class WaitingLaw:
    """Parameters of the conditional waiting-time CDF at elapsed time t.

    Valid only when m * t >= k - 1; otherwise the density at h = 0 would
    be negative.  m * t must also be finite.
    """

    t: float
    k: int
    m: float

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValidityError("k must be a positive integer")
        if not 0 < self.m < np.inf:
            raise ValidityError("m must be finite and strictly positive")
        if not 0 <= self.t < np.inf:
            raise ValidityError("t must be finite and nonnegative")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "m", float(self.m))
        # checked on the stored floats, so that m t - (k-1) >= 0 holds in
        # the arithmetic _log_survival does
        if self.m * self.t < self.k - 1:
            raise ValidityError(
                f"need m*t >= k-1 for a valid CDF (got m*t={self.m * self.t}, "
                f"k-1={self.k - 1})")
        if self.m * self.t == np.inf:
            raise ValidityError(f"m*t must be finite (got m={self.m}, t={self.t})")


def random_cdf(m_hat: float, h):
    """Exponential CDF 1 - exp(-m_hat h) at an estimated rate m_hat >= 0;
    identically zero when no events have been observed (m_hat = 0), and
    zero at h = 0 for every rate, an infinite one included."""
    if not m_hat >= 0:
        raise ValueError("m_hat must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # m h = inf gives 1
        mh = m_hat * _nonneg(h, "h")
    # 0 inf: h = 0 at an infinite rate, or h = inf at rate 0
    return _float_if_scalar(-np.expm1(-np.where(np.isnan(mh), 0.0, mh)))


def limit_cdf(m: float, h):
    """Exponential limit CDF: 1 - exp(-m h)."""
    if not m > 0:
        raise ValueError("m must be strictly positive")
    return random_cdf(m, h)


def _log_survival(t, k: int, m: float, h):
    """log(1 - G_t(h)) = (k-1) log1p(h/t) - m h, unchecked: (t, k, m) are
    the stored fields of a ``WaitingLaw``, except that ``t`` may be a column
    of such t values, and ``h`` is a float or float array with every
    element >= 0.  The result broadcasts ``t`` against ``h``; at k = 1 it
    does not depend on t and has the shape of ``h``.

    With x = h/t it is written as (k-1) (log1p(x) - x) - (m t - (k-1)) x.
    Both terms are <= 0 on a valid law, so they cannot cancel and
    1 - exp of the sum stays in [0, 1] and nondecreasing in h.
    """
    if k == 1:
        return -m * h
    x = h / t
    return (k - 1) * (np.log1p(x) - x) - (m * t - (k - 1)) * x


def _cdf(t, k: int, m: float, h) -> np.ndarray:
    """G_t(h) from ``_log_survival``, on the same unchecked arguments.

    It is 1 where the log-survival is NaN.  With h not NaN and m t finite,
    that is only where x = h/t overflows to inf for k >= 2 (h = inf
    included), and the log-survival lies below -(k-1) x, so G is 1 there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = _log_survival(t, k, m, h)
    # inf - inf or 0 inf where h / t overflows, for k >= 2
    return np.where(np.isnan(g), 1.0, -np.expm1(g))


def conditional_cdf(law: WaitingLaw, h):
    """Conditional CDF: 1 - (1 + h/t)^{k-1} exp(-m h); 1 where h/t
    overflows, h = inf included."""
    return _float_if_scalar(_cdf(law.t, law.k, law.m, _nonneg(h, "h")))


def sample_conditional(law: WaitingLaw, n: int, seed) -> np.ndarray:
    """Inverse-transform sampling by Newton's method on the log-survival.

    Each uniform u is inverted by solving f(h) = 0 for
    f(h) = _log_survival(t, k, m, h) - log1p(-u), whose derivative is
    f'(h) = -(m t - (k-1) + m h) / (t + h).  Where the law is valid
    (m t >= k-1), f is concave and non-increasing on h >= 0.  The start,
    the exponential quantile -log1p(-u)/m, has f >= 0 and is exact for
    k = 1; the first step lands at or right of the root and the iterates
    then fall monotonically onto it, so no bracket is needed.  Iteration
    stops once every sample satisfies |G_t(sample) - u| <= 1e-12 and
    raises ConvergenceError if that takes more than ``_MAX_ITER`` passes.
    A start that overflows, at an m near the smallest floats, raises
    ValueError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = np.random.default_rng(seed).random(int(n))
    log_surv = np.log1p(-u)
    with np.errstate(over="ignore"):
        h = log_surv / -law.m
    # f is non-increasing from a start with f >= 0, so the root lies at or
    # beyond the start and is out of range too
    if not np.isfinite(h).all():
        raise ValueError(f"m={law.m} is too small: the start -log1p(-u)/m "
                         "overflows")
    excess = law.m * law.t - (law.k - 1)
    # the slope vanishes only at h = 0 on the boundary m t = k-1, where
    # u = 0 and f = 0 too; the floor turns that 0/0 into a zero step
    tiny = np.finfo(float).tiny
    for _ in range(_MAX_ITER):
        g = _log_survival(law.t, law.k, law.m, h)
        if (np.abs(-np.expm1(g) - u) <= _U_TOL).all():
            return h
        # h - f/f'
        h += (g - log_surv) * (law.t + h) / np.maximum(excess + law.m * h, tiny)
    raise ConvergenceError(
        f"sample_conditional did not converge in {_MAX_ITER} Newton steps")


def breakpoints(m: float, r: int) -> np.ndarray:
    """Cut points h_1 < ... < h_{r-1} with limit_cdf(m, h_i) = i/r."""
    if not 0 < m < np.inf:
        raise ValueError("m must be finite and strictly positive")
    if r < 2 or int(r) != r:
        raise ValueError("r must be an integer >= 2")
    i = np.arange(1, int(r))
    with np.errstate(over="ignore"):
        cuts = -np.log1p(-i / r) / m
    if not np.isfinite(cuts).all():
        raise ValueError(f"m={m} is too small: the cut points -log1p(-i/r)/m "
                         "overflow")
    return cuts


def sup_distance_exp(a, b):
    """sup over h >= 0 of |exp(-a h) - exp(-b h)| for rates a, b >= 0;
    accepts scalars or arrays.

    With r = min/max and d = 1 - r the supremum, reached at
    h = log(max/min) / (max - min), is d exp(r log r / d).  log r is taken
    from r below r = 1/2 and from d above it, whichever is exact there.
    Equal rates give 0; a zero or an infinite rate beside a different one
    gives 1, the limit as r -> 0.
    """
    a, b = _nonneg(a, "rates"), _nonneg(b, "rates")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # the masked cases are 0/0, inf/inf or 0 * log 0 in the formula
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lo / hi
        d = (hi - lo) / hi
        log_r = np.where(r < 0.5, np.log(r), np.log1p(-d))
        out = d * np.exp(r * log_r / d)
    return _float_if_scalar(np.where(a == b, 0.0, np.where(r == 0.0, 1.0, out)))
