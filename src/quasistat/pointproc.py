"""Exact top-N samplers for ranked point processes and random mass-partitions.

Infinite processes are sampled through their unit-rate Poisson arrival times
Gamma_1 < Gamma_2 < ...: the transform X_i = -log(Gamma_i)/rho (exponential
intensity rho*e^{-rho*y} dy) yields exactly the N largest points of the
infinite configuration, so truncation affects only normalizing sums, never
point positions.  The untracked part of each normalizing sum is carried as an
explicit tail estimate.  A PD(alpha, 0) start is the e^{X_i} of PP(alpha),
normalized with their tail (``mass_partition_rows``): by the mapping theorem
they are the atoms Gamma_i^{-1/alpha} of the power-law intensity
alpha*s^{-alpha-1} ds.
"""

import numpy as np

__all__ = [
    "pp_exponential_rows",
    "check_point_rows",
    "check_partition_rows",
    "sample_pd_stickbreaking",
    "mass_partition_rows",
    "shift_tail_rows",
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


def pp_exponential_rows(rho, arrivals, beta=1.0):
    """Row i holds one replica's arrival times Gamma_1 < ... < Gamma_n; returns
    its top n points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy), and the
    tail estimate E[sum_{j>n} e^{beta X_j} | Gamma_n] of each row, for one rho
    or one per row.  The sum diverges unless beta > rho, so beta <= rho raises
    ValueError; a tail estimate that overflows raises OverflowError.
    """
    rho = np.broadcast_to(rho, len(arrivals))
    if not np.all(rho > 0):
        raise ValueError("rho must be positive")
    r = beta / rho
    if not np.all(r > 1):
        raise ValueError(f"the tail sum of e^{{beta X_i}} diverges unless beta > rho, "
                         f"got beta {beta} and rho {rho.max()}")
    with np.errstate(over="ignore"):  # checked below
        # a float64-scalar power per row: numpy's vector ** can differ from it in the last bit
        tails = np.array([g ** (1.0 - e) for g, e in zip(arrivals[:, -1], r)]) / (r - 1.0)
    off = np.flatnonzero(~np.isfinite(tails))
    if off.size:
        raise OverflowError(f"the tail estimate Gamma_n^(1 - beta/rho) / (beta/rho - 1) "
                            f"leaves float64 range at Gamma_n = {arrivals[off[0], -1]:.6g}")
    points = np.log(arrivals)
    points /= -rho[:, None]  # the bits of -log(Gamma_i) / rho, with one chunk-sized array
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


def _weights(points, tails, beta):
    """Each row's weights e^{beta X_i - m}, against its leading m = beta X_1, its
    tail estimate times e^{-m}, and m.  Raises OverflowError where that product
    leaves float64 range (an underflowed tail times an overflowed e^{-m} is NaN)."""
    w = beta * points
    m = w[:, 0].copy()
    w -= m[:, None]
    np.exp(w, out=w)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scaled_tails = tails * np.exp(-m)
    off = np.flatnonzero(~np.isfinite(scaled_tails))
    if off.size:
        i = off[0]
        raise OverflowError(f"the tail estimate {tails[i]:.6g} times "
                            f"e^{{-beta X_1}} = e^{{{-m[i]:.6g}}} leaves float64 range")
    return w, scaled_tails, m


def mass_partition_rows(points, tails, beta=1.0):
    """Row i holds one replica's ranked points and ``tails[i]``, its tail estimate
    of sum_{j>n} e^{beta X_j}; returns its masses e^{beta X_i} / (sum_j e^{beta X_j}
    + tail), max-subtracted for stability, and that tail's share.

    A mass that underflows is 0, and as the points are ranked, these zeros trail.
    Raises OverflowError as ``_weights`` does.
    """
    w, scaled_tails, _ = _weights(points, tails, beta)
    total = w.sum(axis=1) + scaled_tails
    w /= total[:, None]
    return w, scaled_tails / total


def shift_tail_rows(points, tails, beta=1.0):
    """Re-center each row of ranked points, with its tail estimate ``tails[i]``,
    so that sum_i e^{beta X_i} plus the rescaled tail equals 1.  Raises
    OverflowError as ``_weights`` does.
    """
    w, scaled_tails, m = _weights(points, tails, beta)
    log_totals = m + np.log(w.sum(axis=1) + scaled_tails)
    shifted = np.subtract(points, (log_totals / beta)[:, None], out=w)
    tails = tails * np.exp(-log_totals)
    check_point_rows(shifted, tails)
    return shifted, tails
