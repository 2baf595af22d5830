"""Test-only reference code shared by the test modules."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import kolmogorov, ndtr


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


def tail_sums(levels, points, law):
    """sum_i P(x_i + h >= y) for each level y, h one draw of ``law``, or the count
    #{i : x_i >= y} for ``law`` None: the front profile
    F(y) = sum_i P(X_i + S_i(tau) >= y), with ``law`` the summed law
    ``IncrementLaw.summed(tau)`` of S_i(tau), or None at tau = 0.

    Works in place on one levels x points buffer, summed along each row: the
    reference that ``experiments.front_bound_counts``, which sums
    ``IncrementLaw.survival`` per start, must match bit for bit.
    """
    buf = np.subtract.outer(levels, points)
    if law is None:
        np.less_equal(buf, 0.0, out=buf)
    else:
        np.subtract(law.mu, buf, out=buf)
        buf /= law.sigma
        ndtr(buf, out=buf)
    return buf.sum(axis=-1)


def front_counts_loop(starts, law, tau, beta, grid_points):
    """``experiments.front_bound_counts`` of (points, tail) ``starts`` as a serial
    loop over them, on ``tail_sums``."""
    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    with np.errstate(over="ignore"):
        decay = np.exp(v * tau - beta * grid)
    summed = law.summed(tau) if tau > 0 else None
    markov = z = 0
    max_ratio = 0.0
    for points, tail in starts:
        fvals = tail_sums(grid, points, summed)
        rhs = (1.0 + tail) * decay
        markov += int(np.any(fvals > rhs))
        ratio = np.divide(fvals, rhs, out=np.zeros_like(rhs), where=rhs > 0)
        max_ratio = max(max_ratio, float(np.max(ratio)))
        z += int(tau > 0 and tail_sums(speed, points, summed) > 1.0)
    return {"markov_violations": markov, "z_violations": z, "max_bound_ratio": max_ratio}


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
        return tail_sums(y, points, summed)

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
