"""Exact top-N samplers for ranked point processes and random mass-partitions.

Infinite processes are sampled through their unit-rate Poisson arrival times
Gamma_1 < Gamma_2 < ...: the transform X_i = -log(Gamma_i)/rho (exponential
intensity rho*e^{-rho*y} dy) yields exactly the N largest points of the
infinite configuration, so truncation affects only normalizing sums, never
point positions.  The untracked part of each normalizing sum is carried as an
explicit tail estimate, relative to the row's leading weight: normalizing does
not depend on scale, and so the estimate is finite for every finite row.  One
normalizer, ``mass_partition_rows``, serves both uses: a PD(alpha, 0) start is
the e^{X_i} of PP(alpha) normalized with their tail (by the mapping theorem the
atoms Gamma_i^{-1/alpha} of the power-law intensity alpha*s^{-alpha-1} ds), and
its shift tail-normalizes a row, so that sum_i e^{beta X_i} plus the tail is 1.
"""

import numpy as np

__all__ = [
    "pp_points",
    "pp_exponential_rows",
    "check_point_rows",
    "check_partition_rows",
    "sample_pd_stickbreaking",
    "mass_partition_rows",
]

_SUM_TOL = 1e-12
# stick-breaking gives up past this many sticks rather than return an inexact top n
_MAX_STICKS = 200_000


def check_partition_rows(masses, tails, counts=None):
    """Raise ValueError unless every row i is a mass-partition: its first
    ``counts[i]`` masses (all of them by default) lie in (0, 1] and do not
    increase, the rest are 0, and they sum with the finite, nonnegative
    ``tails[i]`` to 1."""
    if not np.all(np.diff(masses, axis=1) <= 0):  # NaN fails here too
        raise ValueError("masses must be non-increasing")
    # so each row's ends bound it: first <= 1, last tracked > 0, first untracked 0, last >= 0
    n = masses.shape[1]
    counts = np.full(len(masses), n) if counts is None else counts
    rows = np.arange(len(masses))
    ends = (masses[:, 0] <= 1) & (masses[rows, counts - 1] > 0) & (masses[:, -1] >= 0)
    if not (np.all(ends) and np.all(masses[rows, np.minimum(counts, n - 1)][counts < n] == 0)):
        raise ValueError("masses must lie in (0, 1]")
    if not np.all(np.isfinite(tails) & (tails >= 0)):
        raise ValueError("tails must be finite and nonnegative")
    total = masses.sum(axis=1) + tails
    off = ~(np.abs(total - 1.0) <= _SUM_TOL)
    if np.any(off):
        raise ValueError(f"masses + tails must equal 1, got {float(total[off][0])!r}")


def check_point_rows(points, tails=None):
    """Raise ValueError unless every row of ``points`` is finite and does not
    increase, and every tail estimate ``tails[i]`` given is finite and >= 0."""
    # a NaN fails the comparison, and ranked points with finite ends are all finite
    if not (np.all(points[:, 1:] <= points[:, :-1]) and np.all(np.isfinite(points[:, [0, -1]]))):
        raise ValueError("points must be finite and non-increasing")
    if tails is not None and not np.all(np.isfinite(tails) & (tails >= 0)):
        raise ValueError("tails must be finite and nonnegative")


def pp_points(rho, arrivals):
    """The points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy) at rows of arrival
    times, for one rho or a column of them; OverflowError where one leaves float64."""
    points = np.log(arrivals)
    with np.errstate(over="ignore"):  # checked below
        points /= -rho  # the bits of -log(Gamma_i) / rho, with one chunk-sized array
    if not np.all(np.isfinite(points[:, [0, -1]])):  # ranked rows: their ends bound them
        raise OverflowError(f"a point -log(Gamma_i)/rho leaves float64 at rho {np.min(rho):.6g}")
    return points


def pp_exponential_rows(rho, arrivals, beta=1.0):
    """Row i holds one replica's arrival times Gamma_1 < ... < Gamma_n; returns
    its top n points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy), and the
    tail estimate E[sum_{j>n} e^{beta X_j} | Gamma_n] of each row relative to its
    leading weight e^{beta X_1}, for one rho or one per row.  With r = beta/rho,
    that is Gamma_n^{1-r} Gamma_1^r / (r - 1) = Gamma_n/(r - 1) e^{beta (X_n - X_1)},
    finite for every finite row.  The sum diverges unless beta > rho, so
    beta <= rho raises ValueError; a point beyond float64 raises OverflowError.
    """
    rho = np.broadcast_to(rho, len(arrivals))
    if not np.all(rho > 0):
        raise ValueError("rho must be positive")
    with np.errstate(over="ignore"):  # an infinite r is a tail factor Gamma_n/(r - 1) = 0
        r = beta / rho
    if not np.all(r > 1):
        raise ValueError(f"the tail sum of e^{{beta X_i}} diverges unless beta > rho, "
                         f"got beta {beta} and rho {rho.max()}")
    points = pp_points(rho[:, None], arrivals)
    with np.errstate(over="ignore"):  # a product of -inf is a factor e^{-inf} = 0
        tails = arrivals[:, -1] / (r - 1.0) * np.exp(beta * (points[:, -1] - points[:, 0]))
    check_point_rows(points, tails)
    return points, tails


def sample_pd_stickbreaking(alpha, n, rng):
    """PD(alpha, 0) via residual allocation: V_i ~ Beta(1-alpha, i*alpha).

    Sticks are drawn in blocks until the unbroken remainder cannot displace
    the n-th largest product, so the returned top n masses are exact; the
    remainder and the discarded products are folded into the returned tail.
    Raises ValueError when that takes more than ``_MAX_STICKS`` sticks, or
    when the remainder underflows to 0 first: a draw V_i that rounds to 1
    leaves every later stick 0, so fewer than n masses can ever be positive.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    products = []
    remainder = 1.0
    drawn = 0
    block = max(256, 4 * n)
    while drawn < _MAX_STICKS:
        idx = np.arange(drawn + 1, drawn + block + 1)
        v = rng.beta(1.0 - alpha, alpha * idx)
        sticks = remainder * v * np.cumprod(np.concatenate(([1.0], 1.0 - v[:-1])))
        products.append(sticks)
        remainder *= np.prod(1.0 - v)
        drawn += block  # at least 4n, so the products hold a top n
        if remainder < np.partition(np.concatenate(products), -n)[-n]:
            break
        if remainder == 0.0:
            raise ValueError(f"stick-breaking PD({alpha}, 0): the remainder underflowed to 0 "
                             f"after {drawn} sticks, with fewer than {n} positive masses")
    else:
        raise ValueError(f"stick-breaking PD({alpha}, 0): the top {n} masses are not exact "
                         f"after {drawn} sticks")
    allp = np.sort(np.concatenate(products))[::-1]
    top = allp[:n]
    return top, max(0.0, 1.0 - top.sum())


def mass_partition_rows(points, tails, beta=1.0):
    """Row i holds one replica's ranked points and ``tails[i]``, its tail estimate
    of sum_{j>n} e^{beta X_j} relative to e^{beta X_1}; returns its masses
    e^{beta (X_i - X_1)} / T, with T = sum_j e^{beta (X_j - X_1)} + tail, the tail's
    share, and the shift X_1 + log(T)/beta that tail-normalizes the row.

    A mass that underflows is 0, and as the points are ranked, these zeros trail.
    """
    w = np.subtract(points, points[:, :1])
    with np.errstate(over="ignore"):  # a weight e^{-inf} is 0
        w *= beta
    np.exp(w, out=w)
    total = w.sum(axis=1) + tails
    w /= total[:, None]
    return w, tails / total, points[:, 0] + np.log(total) / beta
