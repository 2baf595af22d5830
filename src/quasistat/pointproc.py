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
    "ArrivalTimes",
    "sample_gamma_arrivals",
    "points_from_arrivals",
    "atoms_from_arrivals",
    "sample_pp_exponential",
    "sample_pk_powerlaw",
    "normalize_to_mass_partition",
    "sample_pd_poisson_kingman",
    "sample_pd_stickbreaking",
    "mass_partition_from_config",
    "config_from_mass_partition",
]

_SUM_TOL = 1e-12


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
        if np.any(self.masses <= 0) or np.any(self.masses > 1):
            raise ValueError("masses must lie in (0, 1]")
        if np.any(np.diff(self.masses) > 0):
            raise ValueError("masses must be non-increasing")
        if not (np.isfinite(self.tail_mass) and self.tail_mass >= 0):
            raise ValueError("tail_mass must be finite and nonnegative")
        total = self.masses.sum() + self.tail_mass
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"masses + tail_mass must equal 1, got {total!r}")

    def __len__(self):
        return self.masses.size


@dataclass
class ArrivalTimes:
    """Strictly increasing arrival times of a unit-rate Poisson process."""

    gammas: np.ndarray

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=float)
        if self.gammas.ndim != 1 or self.gammas.size == 0:
            raise ValueError("gammas must be a nonempty 1-d sequence")
        if self.gammas[0] <= 0 or np.any(np.diff(self.gammas) <= 0):
            raise ValueError("gammas must be positive and strictly increasing")

    def __len__(self):
        return self.gammas.size


def sample_gamma_arrivals(n, rng) -> ArrivalTimes:
    """First n arrival times of a unit-rate Poisson process."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ArrivalTimes(np.cumsum(rng.exponential(size=int(n))))


def points_from_arrivals(arrivals: ArrivalTimes, rho, beta=1.0) -> PointConfiguration:
    """Map arrivals to the n largest points of PP(rho e^{-rho y} dy).

    The tail estimate E[sum_{i>N} e^{beta X_i} | Gamma_N] is finite only when
    beta > rho; otherwise it is recorded as 0 (the correspondence to mass
    partitions is only used in the convergent regime).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    g = arrivals.gammas
    points = -np.log(g) / rho
    r = beta / rho
    tail = g[-1] ** (1.0 - r) / (r - 1.0) if r > 1 else 0.0
    return PointConfiguration(points, beta=beta, tail_weight_estimate=tail)


def sample_pp_exponential(rho, n, rng, beta=1.0) -> PointConfiguration:
    """Top n points of the Poisson process with intensity rho*e^{-rho*y} dy."""
    return points_from_arrivals(sample_gamma_arrivals(n, rng), rho, beta=beta)


def atoms_from_arrivals(arrivals: ArrivalTimes, alpha) -> np.ndarray:
    """Map arrivals to the n largest atoms of PP(alpha s^{-alpha-1} ds)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1): atoms are summable iff alpha < 1")
    return arrivals.gammas ** (-1.0 / alpha)


def sample_pk_powerlaw(alpha, n, rng) -> np.ndarray:
    """Top n atoms eta_i = Gamma_i^{-1/alpha}, strictly decreasing."""
    return atoms_from_arrivals(sample_gamma_arrivals(n, rng), alpha)


def expected_atom_tail(alpha, gamma_last) -> float:
    """E[sum_{j>N} Gamma_j^{-1/alpha} | Gamma_N]: integral of t^{-1/alpha} beyond Gamma_N."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if gamma_last <= 0:
        raise ValueError("gamma_last must be positive")
    return alpha * gamma_last ** ((alpha - 1.0) / alpha) / (1.0 - alpha)


def normalize_to_mass_partition(atoms, alpha, gamma_last) -> MassPartition:
    """Normalize decreasing atoms to a mass-partition with expected-tail correction."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.size == 0:
        raise ValueError("atoms must be nonempty")
    tail = expected_atom_tail(alpha, gamma_last)
    total = atoms.sum() + tail
    return MassPartition(atoms / total, tail_mass=tail / total)


def sample_pd_poisson_kingman(alpha, n, rng) -> MassPartition:
    """PD(alpha, 0) sample via the normalized power-law Poisson process."""
    arrivals = sample_gamma_arrivals(n, rng)
    atoms = atoms_from_arrivals(arrivals, alpha)
    return normalize_to_mass_partition(atoms, alpha, arrivals.gammas[-1])


def sample_pd_stickbreaking(alpha, n, rng, max_sticks=200_000) -> MassPartition:
    """PD(alpha, 0) via residual allocation: V_i ~ Beta(1-alpha, i*alpha).

    Sticks are drawn in blocks until the unbroken remainder cannot displace
    the n-th largest product (then the returned top n is exact), or until
    ``max_sticks``.  The remainder and any discarded products are folded into
    tail_mass, so mass is conserved either way.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    products = []
    remainder = 1.0
    drawn = 0
    block = max(256, 4 * n)
    while drawn < max_sticks:
        idx = np.arange(drawn + 1, drawn + block + 1)
        v = rng.beta(1.0 - alpha, alpha * idx)
        sticks = remainder * v * np.cumprod(np.concatenate(([1.0], 1.0 - v[:-1])))
        products.append(sticks)
        remainder *= np.prod(1.0 - v)
        drawn += block
        if drawn >= n:
            kth = np.partition(np.concatenate(products), -n)[-n]
            if remainder < kth:
                break
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


def config_from_mass_partition(partition: MassPartition) -> PointConfiguration:
    """Points log(xi_i) with beta = 1; tail mass becomes the tail weight."""
    if np.any(partition.masses <= 0):
        raise ValueError("all masses must be positive")
    return PointConfiguration(
        np.log(partition.masses), beta=1.0, tail_weight_estimate=partition.tail_mass
    )
