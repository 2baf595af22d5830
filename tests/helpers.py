"""Test-only reference code shared by the test modules."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, kolmogorov, ndtr


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


def gap_law_p(top, rho):
    """p of the one-sample KS test that T = sum_{i<=k} i (x_i - x_{i+1}) of each row
    of k + 1 ranked points is Gamma(k, rate rho), as for the top points of PP(rho),
    whose gaps X_i - X_{i+1} are independent Exp(i rho) (the Renyi representation).
    For a tuple of rates, each row's drawn with equal chance, T's CDF is their mean."""
    k = top.shape[1] - 1
    t = -np.diff(top, axis=1) @ np.arange(1.0, k + 1)
    return marginal_law_test(t, lambda t: np.mean([gammainc(k, r * t)
                                                   for r in np.atleast_1d(rho)], axis=0))[1]


def sample_gamma_arrivals(n, rng) -> np.ndarray:
    """First n arrival times Gamma_1 < ... < Gamma_n of a unit-rate Poisson process:
    the reference for the arrival rows that ``experiments`` draws in chunks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.cumsum(rng.exponential(size=int(n)))


def poisson_kingman_rows(alphas, arrivals):
    """Row i holds one replica's arrival times Gamma_1 < ... < Gamma_n; returns
    its PD(alphas[i], 0) masses, the atoms Gamma_i^{-1/alpha} normalized by their
    sum plus the expected tail E[sum_{j>n} Gamma_j^{-1/alpha} | Gamma_n] (the
    integral of t^{-1/alpha} beyond Gamma_n), and that tail's share.

    The law reference on powers that ``experiments.PoissonKingman``, which
    normalizes the e^{X_i} of PP(alpha) points X_i = -log(Gamma_i)/alpha, must
    match to rounding.  A mass that underflows is 0, and as the masses are
    ranked, these zeros trail.  Raises OverflowError where an atom or a total
    overflows.
    """
    if not np.all((alphas > 0) & (alphas < 1)):
        raise ValueError("alpha must be in (0, 1): atoms are summable iff alpha < 1")
    with np.errstate(over="ignore"):  # an overflow shows in the total below
        atoms = arrivals ** (-1.0 / alphas)[:, None]
        # a float64-scalar power per row: numpy's vector ** can differ from it in the last bit
        powers = [g ** e for g, e in zip(arrivals[:, -1], (alphas - 1.0) / alphas)]
    tails = alphas * np.array(powers) / (1.0 - alphas)
    total = atoms.sum(axis=1) + tails
    off = np.flatnonzero(~np.isfinite(total))
    if off.size:
        i = off[0]
        raise OverflowError(f"the atom Gamma_1^(-1/alpha) at Gamma_1 = {arrivals[i, 0]:.6g} and "
                            f"alpha = {alphas[i]:.6g} leaves float64 range")
    atoms /= total[:, None]
    return atoms, tails / total


def gem_partition(alpha, theta, sticks=500):
    """A ``Partitions`` sample of PD(alpha, theta) by stick-breaking, GEM(alpha, theta):
    ``sticks`` sticks V_i ~ Beta(1 - alpha, theta + i alpha) in one draw, ranked, and
    the tail 1 - sum they leave.  A near alternative to PD(alpha, 0) for theta > 0."""
    def sample(rng):
        v = rng.beta(1.0 - alpha, theta + alpha * np.arange(1, sticks + 1))
        masses = np.sort(v * np.cumprod(np.concatenate(([1.0], 1.0 - v[:-1]))))[::-1]
        masses = masses[masses > 0]
        return masses, max(0.0, 1.0 - masses.sum())
    return sample


def decorated_pp_gaps(q, replicas, rng, k=5, n=500, law=None):
    """First k gaps of the top points of ``replicas`` decorated PP(1) configurations,
    given ``law`` after one step that moves every point by one draw of it.  Each of
    the top n points X_i = -log(Gamma_i) gains, with probability q, a twin X_i - D_i,
    D_i ~ Exp(mean 0.5): random offsets keep an atom out of the gap law.  A near
    alternative to PP(1) with its exponential intensity, not quasi-stationary."""
    x = -np.log(np.cumsum(rng.exponential(size=(replicas, n)), axis=1))
    twins = np.where(rng.random((replicas, n)) < q, x - rng.exponential(0.5, (replicas, n)),
                     -np.inf)
    points = np.concatenate((x, twins), axis=1)
    if law is not None:
        points += law.sample(points.shape, rng)
    points.sort(axis=1)
    return -np.diff(points[:, :-k - 2:-1], axis=1)


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
