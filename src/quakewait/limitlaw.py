"""The exponential limit law and the conditional waiting-time family.

``limit_cdf`` is the exponential law 1 - exp(-m h) toward which the
conditional family converges as the elapsed time grows; ``conditional_cdf``
is the exact law at elapsed time t for the k-th shock under a linear
cumulative rate with slope m.  ``random_cdf`` evaluates 1 - exp(-m h) for
every rate m >= 0, the estimate m = 0 included; ``limit_cdf`` calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator
from .statfn import ConvergenceError, _float_if_scalar, _nonneg

_U_TOL = 1e-12
_MAX_ITER = 200


class ValidityError(ValueError):
    """The (t, k, m) triple does not define a proper CDF."""


@dataclass(frozen=True)
class WaitingLaw:
    """Parameters of the conditional waiting-time CDF at elapsed time t.

    Valid only when m * t >= k - 1; otherwise the density at h = 0 would
    be negative.
    """

    t: float
    k: int
    m: float

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValidityError("k must be a positive integer")
        if not self.m > 0:
            raise ValidityError("m must be strictly positive")
        if not self.t >= 0:
            raise ValidityError("t must be nonnegative")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "m", float(self.m))
        # checked on the stored floats, so that m t - (k-1) >= 0 holds in
        # the arithmetic _log_survival does
        if self.m * self.t < self.k - 1:
            raise ValidityError(
                f"need m*t >= k-1 for a valid CDF (got m*t={self.m * self.t}, "
                f"k-1={self.k - 1})")


def random_cdf(m_hat: float, h):
    """Exponential CDF 1 - exp(-m_hat h) at an estimated rate m_hat >= 0;
    identically zero when no events have been observed (m_hat = 0)."""
    if not m_hat >= 0:
        raise ValueError("m_hat must be nonnegative")
    return _float_if_scalar(-np.expm1(-m_hat * _nonneg(h, "h")))


def limit_cdf(m: float, h):
    """Exponential limit CDF: 1 - exp(-m h)."""
    if not m > 0:
        raise ValueError("m must be strictly positive")
    return random_cdf(m, h)


def _log_survival(law: WaitingLaw, h):
    """log(1 - G_t(h)) = (k-1) log1p(h/t) - m h, unchecked: ``h`` is a
    float or float array with every element >= 0.

    With x = h/t it is written as (k-1) (log1p(x) - x) - (m t - (k-1)) x.
    Both terms are <= 0 on a valid law, so they cannot cancel and
    1 - exp of the sum stays in [0, 1] and nondecreasing in h.
    """
    if law.k == 1:
        return -law.m * h
    x = h / law.t
    return (law.k - 1) * (np.log1p(x) - x) - (law.m * law.t - (law.k - 1)) * x


def conditional_cdf(law: WaitingLaw, h):
    """Conditional CDF: 1 - (1 + h/t)^{k-1} exp(-m h); 1 at h = inf, where
    the log-survival would be inf - inf."""
    h = _nonneg(h, "h")
    h_inf = np.isinf(h)
    g = _log_survival(law, np.where(h_inf, 0.0, h))
    return _float_if_scalar(np.where(h_inf, 1.0, -np.expm1(g)))


def sample_conditional(law: WaitingLaw, n: int, seed) -> np.ndarray:
    """Inverse-transform sampling by Newton's method on the log-survival.

    Each uniform u is inverted by solving f(h) = 0 for
    f(h) = _log_survival(law, h) - log1p(-u), whose derivative is
    f'(h) = -(m t - (k-1) + m h) / (t + h).  Where the law is valid
    (m t >= k-1), f is concave and non-increasing on h >= 0.  The start,
    the exponential quantile -log1p(-u)/m, has f >= 0 and is exact for
    k = 1; the first step lands at or right of the root and the iterates
    then fall monotonically onto it, so no bracket is needed.  Iteration
    stops once every sample satisfies |G_t(sample) - u| <= 1e-12 and
    raises ConvergenceError if that takes more than ``_MAX_ITER`` passes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty(0)
    u = as_generator(seed).random(int(n))
    log_surv = np.log1p(-u)
    h = log_surv / -law.m
    excess = law.m * law.t - (law.k - 1)
    # the slope vanishes only at h = 0 on the boundary m t = k-1, where
    # u = 0 and f = 0 too; the floor turns that 0/0 into a zero step
    tiny = np.finfo(float).tiny
    for _ in range(_MAX_ITER):
        g = _log_survival(law, h)
        if np.max(np.abs(-np.expm1(g) - u)) <= _U_TOL:
            return h
        # h - f/f'
        h += (g - log_surv) * (law.t + h) / np.maximum(excess + law.m * h, tiny)
    raise ConvergenceError(
        f"sample_conditional did not converge in {_MAX_ITER} Newton steps")


def breakpoints(m: float, r: int) -> np.ndarray:
    """Cut points h_1 < ... < h_{r-1} with limit_cdf(m, h_i) = i/r."""
    if not m > 0:
        raise ValueError("m must be strictly positive")
    if r < 2 or int(r) != r:
        raise ValueError("r must be an integer >= 2")
    i = np.arange(1, int(r))
    return -np.log1p(-i / r) / m


def sup_distance_exp(a: float, b: float) -> float:
    """sup over h >= 0 of |exp(-a h) - exp(-b h)| for rates a, b >= 0.

    For a != b the maximizer is h* = ln(a/b)/(a-b).  Near a == b the h*
    formula is 0/0, so the first-order limit exp(-1)|a-b|/max(a,b) is
    returned instead.  A zero rate gives the degenerate distance 1.
    """
    if not (a >= 0 and b >= 0):
        raise ValueError("rates must be nonnegative")
    if a == b:
        return 0.0
    if a == 0.0 or b == 0.0:
        return 1.0
    if abs(a - b) < 1e-12 * max(a, b):
        return math.exp(-1.0) * abs(a - b) / max(a, b)
    h_star = math.log(a / b) / (a - b)
    return abs(math.exp(-b * h_star) - math.exp(-a * h_star))
