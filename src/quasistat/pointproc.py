"""Exact top-N samplers for ranked point processes and random mass-partitions.

Infinite processes are sampled through their unit-rate Poisson arrival times
Gamma_1 < Gamma_2 < ...: the transform eta_i = Gamma_i^{-1/alpha} (power-law
intensity alpha*s^{-alpha-1} ds) or X_i = -log(Gamma_i)/rho (exponential
intensity rho*e^{-rho*y} dy) yields exactly the N largest points of the
infinite configuration, so truncation affects only normalizing sums, never
point positions.  The untracked part of each normalizing sum is carried as an
explicit tail estimate.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MassPartition",
    "sample_gamma_arrivals",
    "pp_exponential_rows",
    "check_point_rows",
    "poisson_kingman_rows",
    "check_partition_rows",
    "sample_pd_stickbreaking",
    "mass_partition_rows",
    "shift_tail_rows",
]

_SUM_TOL = 1e-12
# stick-breaking gives up past this many sticks rather than return an inexact top n
_MAX_STICKS = 200_000


@dataclass
class MassPartition:
    """Non-increasing masses in (0,1]; tracked masses plus tail sum to 1."""

    masses: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.ndim != 1 or self.masses.size == 0:
            raise ValueError("masses must be a nonempty 1-d sequence")
        check_partition_rows(self.masses[None], np.array([self.tail_mass], dtype=float))

    def __len__(self):
        return self.masses.size


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
        raise ValueError("tail_mass must be finite and nonnegative")
    total = masses.sum(axis=1) + tails
    off = ~(np.abs(total - 1.0) <= _SUM_TOL)
    if np.any(off):
        raise ValueError(f"masses + tail_mass must equal 1, got {total[off][0]!r}")


def check_point_rows(points, tails=None):
    """Raise ValueError unless every row of ``points`` is finite and does not
    increase, and every tail estimate ``tails[i]`` given is finite and >= 0."""
    # a NaN fails the comparison, and ranked points with finite ends are all finite
    if not (np.all(points[:, 1:] <= points[:, :-1]) and np.all(np.isfinite(points[:, [0, -1]]))):
        raise ValueError("points must be finite and non-increasing")
    if tails is not None and not np.all(np.isfinite(tails) & (tails >= 0)):
        raise ValueError("tail_weight_estimate must be finite and nonnegative")


def sample_gamma_arrivals(n, rng) -> np.ndarray:
    """First n arrival times Gamma_1 < ... < Gamma_n of a unit-rate Poisson process."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.cumsum(rng.exponential(size=int(n)))


def pp_exponential_rows(rho, arrivals, beta=1.0):
    """Row i holds one replica's arrival times Gamma_1 < ... < Gamma_n; returns
    its top n points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy), and the
    tail estimate E[sum_{j>n} e^{beta X_j} | Gamma_n] of each row.

    The tail estimate is finite only when beta > rho.  For beta <= rho the sum
    diverges and the tail is recorded as 0, so ``shift_tail_rows`` and
    ``mass_partition_rows`` would normalize the tracked points alone: only the
    positions and gaps are meaningful there, and ``verify-lemma`` refuses that
    range.  Raises OverflowError where a tail estimate overflows.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not beta > 0:
        raise ValueError("beta must be positive")
    r = beta / rho
    if r > 1:
        with np.errstate(over="ignore"):  # checked below
            # a float64-scalar power per row, as in poisson_kingman_rows
            tails = np.array([g ** (1.0 - r) for g in arrivals[:, -1]]) / (r - 1.0)
    else:
        tails = np.zeros(len(arrivals))
    off = np.flatnonzero(~np.isfinite(tails))
    if off.size:
        raise OverflowError(f"the tail estimate Gamma_n^(1 - beta/rho) / (beta/rho - 1) "
                            f"leaves float64 range at Gamma_n = {arrivals[off[0], -1]:.6g}")
    points = np.log(arrivals)
    points /= -rho  # the bits of -log(Gamma_i) / rho, with one chunk-sized array
    check_point_rows(points, tails)
    return points, tails


def poisson_kingman_rows(alphas, arrivals):
    """Row i holds one replica's arrival times Gamma_1 < ... < Gamma_n; returns
    its PD(alphas[i], 0) masses, the atoms Gamma_i^{-1/alpha} normalized by their
    sum plus the expected tail E[sum_{j>n} Gamma_j^{-1/alpha} | Gamma_n] (the
    integral of t^{-1/alpha} beyond Gamma_n), and that tail's share.

    A mass that underflows is 0, and as the masses are ranked, these zeros
    trail.  Raises OverflowError where an atom or a total overflows.
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


def sample_pd_stickbreaking(alpha, n, rng) -> MassPartition:
    """PD(alpha, 0) via residual allocation: V_i ~ Beta(1-alpha, i*alpha).

    Sticks are drawn in blocks until the unbroken remainder cannot displace
    the n-th largest product, so the returned top n is exact; the remainder
    and the discarded products are folded into tail_mass.  Raises ValueError
    when that takes more than ``_MAX_STICKS`` sticks, or when the remainder
    underflows to 0 first: a draw V_i that rounds to 1 leaves every later
    stick 0, so fewer than n masses can ever be positive.
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
    return MassPartition(top, tail_mass=max(0.0, 1.0 - top.sum()))


def _weights(points, tails, beta):
    """Each row's weights e^{beta X_i - m}, against its leading m = beta X_1, its
    tail estimate times e^{-m}, and m."""
    w = beta * points
    m = w[:, 0].copy()
    w -= m[:, None]
    np.exp(w, out=w)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite tail fails a check later
        scaled_tails = tails * np.exp(-m)
    return w, scaled_tails, m


def mass_partition_rows(points, tails, beta=1.0):
    """Row i holds one replica's ranked points and ``tails[i]``, its tail estimate
    of sum_{j>n} e^{beta X_j}; returns its masses e^{beta X_i} / (sum_j e^{beta X_j}
    + tail), max-subtracted for stability, and that tail's share.

    A mass that underflows is 0, and as the points are ranked, these zeros trail.
    """
    w, scaled_tails, _ = _weights(points, tails, beta)
    total = w.sum(axis=1) + scaled_tails
    w /= total[:, None]
    return w, scaled_tails / total


def shift_tail_rows(points, tails, beta=1.0):
    """Re-center each row of ranked points, with its tail estimate ``tails[i]``,
    so that sum_i e^{beta X_i} plus the rescaled tail equals 1.  Raises
    OverflowError where a tail, scaled to its row's leading weight, leaves
    float64 range (an underflowed tail times an overflowed e^{-beta X_1} is NaN).
    """
    w, scaled_tails, m = _weights(points, tails, beta)
    off = np.flatnonzero(~np.isfinite(scaled_tails))
    if off.size:
        i = off[0]
        raise OverflowError(f"the tail estimate {tails[i]:.6g} times "
                            f"e^{{-beta X_1}} = e^{{{-m[i]:.6g}}} leaves float64 range")
    log_totals = m + np.log(w.sum(axis=1) + scaled_tails)
    shifted = np.subtract(points, (log_totals / beta)[:, None], out=w)
    tails = tails * np.exp(-log_totals)
    check_point_rows(shifted, tails)
    return shifted, tails
