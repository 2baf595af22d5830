"""Test-only reference code shared by the test modules."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import kolmogorov

from quasistat import dynamics


def marginal_law_test(samples, cdf):
    """One-sample KS of ``samples`` against a given CDF, asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    d = float(max(d_plus, d_minus))
    return d, float(kolmogorov(np.sqrt(n) * d))


class FrontRootError(RuntimeError):
    """The front profile stays below 1 everywhere; no leading-edge position."""


def front_position(points, law, tau) -> float:
    """Root z of F(z) = 1, i.e. inf{y : F(y) < 1}, for the front profile
    F(y) = sum_i P(S_i(tau) >= y - X_i) of one row of ranked points, S_i(tau)
    one draw of ``law.summed(tau)``.

    Profiles with F < 1 everywhere (a single tracked point) raise
    FrontRootError.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0:
        # step profile: F(y) = #{i : X_i >= y} crosses below 1 at the leader
        return float(points[0])
    if len(points) < 2:
        raise FrontRootError("fewer than one expected survivor at every level")
    summed = law.summed(tau)

    def profile(y):
        return dynamics._tail_sums(y, points, summed)

    lo = points[0] - 10.0
    hi = points[0] + law.log_mgf(1.0) * tau + 10.0
    hi = max(hi, lo + 1.0)
    width = hi - lo
    while profile(lo) < 1.0:
        lo -= width
        width *= 2.0
    while profile(hi) >= 1.0:
        hi += width
        width *= 2.0
    z = brentq(lambda y: profile(y) - 1.0, lo, hi, xtol=1e-13, rtol=1e-15)
    if abs(profile(z) - 1.0) > 1e-9:
        raise FrontRootError("bisection failed to pin F(z) = 1")
    return float(z)
