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
    "PointConfiguration",
    "MassPartition",
    "sample_gamma_arrivals",
    "sample_pp_exponential",
    "sample_pd_poisson_kingman",
    "poisson_kingman_rows",
    "check_partition_rows",
    "sample_pd_stickbreaking",
    "mass_partition_from_config",
]

_SUM_TOL = 1e-12
# stick-breaking gives up past this many sticks rather than return an inexact top n
_MAX_STICKS = 200_000


@dataclass
class PointConfiguration:
    """Decreasing finite truncation of a point configuration on the line.

    ``tail_weight_estimate`` estimates sum_{i>N} e^{beta*X_i} beyond the
    tracked points; ``beta`` is the exponent for which that sum is finite.
    """

    points: np.ndarray
    beta: float = 1.0
    tail_weight_estimate: float = 0.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size == 0:
            raise ValueError("points must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if np.any(np.diff(self.points) > 0):
            raise ValueError("points must be non-increasing")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not (np.isfinite(self.tail_weight_estimate) and self.tail_weight_estimate >= 0):
            raise ValueError("tail_weight_estimate must be finite and nonnegative")

    def __len__(self):
        return self.points.size


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


def sample_gamma_arrivals(n, rng) -> np.ndarray:
    """First n arrival times Gamma_1 < ... < Gamma_n of a unit-rate Poisson process."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.cumsum(rng.exponential(size=int(n)))


def sample_pp_exponential(rho, n, rng, beta=1.0) -> PointConfiguration:
    """Top n points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy).

    The tail estimate E[sum_{i>n} e^{beta X_i} | Gamma_n] is finite only when
    beta > rho.  For beta <= rho the sum diverges and the tail is recorded as
    0, so ``shift_tail`` and ``mass_partition_from_config`` would normalize
    the tracked points alone: only the positions and gaps are meaningful
    there, and ``verify-lemma`` refuses that range.  Raises OverflowError
    where the tail estimate overflows.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    g = sample_gamma_arrivals(n, rng)
    r = beta / rho
    with np.errstate(over="ignore"):  # checked below
        tail = g[-1] ** (1.0 - r) / (r - 1.0) if r > 1 else 0.0
    if not np.isfinite(tail):
        raise OverflowError(f"the tail estimate Gamma_n^(1 - beta/rho) / (beta/rho - 1) "
                            f"leaves float64 range at Gamma_n = {g[-1]:.6g}")
    return PointConfiguration(-np.log(g) / rho, beta=beta, tail_weight_estimate=tail)


def sample_pd_poisson_kingman(alpha, n, rng) -> MassPartition:
    """PD(alpha, 0) as the top n atoms Gamma_i^{-1/alpha} of PP(alpha s^{-alpha-1} ds),
    less the masses that underflow to 0; see ``poisson_kingman_rows``."""
    masses, tails = poisson_kingman_rows(np.array([alpha], dtype=float),
                                         sample_gamma_arrivals(n, rng)[None])
    row = masses[0]
    return MassPartition(row[row > 0], tail_mass=tails[0])


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
    when that takes more than ``_MAX_STICKS`` sticks.
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
    else:
        raise ValueError(f"stick-breaking PD({alpha}, 0): the top {n} masses are not exact "
                         f"after {drawn} sticks")
    allp = np.sort(np.concatenate(products))[::-1]
    top = allp[:n]
    return MassPartition(top, tail_mass=max(0.0, 1.0 - top.sum()))


def mass_partition_from_config(config: PointConfiguration) -> MassPartition:
    """Masses e^{beta X_i} / (sum_j e^{beta X_j} + tail), max-subtracted for stability.

    Entries whose weight underflows to exactly zero are folded into tail_mass.
    """
    logw = config.beta * config.points
    m = logw[0]
    w = np.exp(logw - m)
    scaled_tail = config.tail_weight_estimate * np.exp(-m)
    total = w.sum() + scaled_tail
    masses = w / total
    keep = masses > 0.0
    return MassPartition(masses[keep], tail_mass=scaled_tail / total)

