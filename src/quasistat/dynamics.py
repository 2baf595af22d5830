"""Evolution maps for ranked configurations and mass-partitions.

Additive picture: every point gets an independent Gaussian increment h_i and
the configuration is re-ranked.  Multiplicative picture: every mass is
reweighted by the lognormal W_i = e^{beta*h_i} and renormalized.  Both advance
the untracked tail by its mean factor E[e^{beta*h}].
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .pointproc import MassPartition, PointConfiguration

__all__ = [
    "IncrementLaw",
    "evolve_additive",
    "evolve_multiplicative",
    "shift_tail",
]


@dataclass(frozen=True)
class IncrementLaw:
    """Gaussian increments h ~ N(mu, sigma^2), for which W = e^{beta*h} is
    lognormal, absolutely continuous and has every moment E[W^lam] finite.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, size, rng):
        return rng.normal(self.mu, self.sigma, size=size)

    def sample_sum(self, tau, size, rng):
        """``size`` independent draws of h_1 + ... + h_tau ~ N(tau mu, tau sigma^2)."""
        return rng.normal(tau * self.mu, self.sigma * np.sqrt(tau), size=size)

    def log_mgf(self, lam):
        """log E[e^{lam * h}], finite for every real lam."""
        return lam * self.mu + 0.5 * lam * lam * self.sigma * self.sigma

    def sum_tail_probability(self, y, tau):
        """P(h_1 + ... + h_tau >= y), vectorized in y."""
        y = np.asarray(y, dtype=float)
        if tau < 0:
            raise ValueError("tau must be >= 0")
        if tau == 0:
            return (y <= 0).astype(float)
        return ndtr((tau * self.mu - y) / (self.sigma * np.sqrt(tau)))


def evolve_additive(config: PointConfiguration, law: IncrementLaw, rng) -> PointConfiguration:
    """One step X_i -> X_i + h_i, re-ranked; tail advanced by E[e^{beta h}]."""
    h = law.sample(len(config), rng)
    if not np.all(np.isfinite(h)):
        raise ValueError("increment law produced non-finite draws")
    tail = config.tail_weight_estimate
    if tail:  # a zero tail stays zero, also where E[e^{beta h}] overflows
        tail *= np.exp(law.log_mgf(config.beta))
    return PointConfiguration(
        np.sort(config.points + h)[::-1], beta=config.beta, tail_weight_estimate=tail
    )


def evolve_multiplicative(
    partition: MassPartition, law: IncrementLaw, beta=1.0, rng=None
) -> MassPartition:
    """One reshuffle xi_i -> xi_i W_i / sum_j xi_j W_j with W_i = e^{beta h_i}.

    Computed in log space; the untracked tail advances by E[W].
    """
    h = law.sample(len(partition), rng)
    if not np.all(np.isfinite(h)):
        raise ValueError("increment law produced non-finite draws")
    logm = np.log(partition.masses) + beta * h
    m = logm.max()
    w = np.exp(logm - m)
    scaled_tail = partition.tail_mass * np.exp(law.log_mgf(beta) - m)
    total = w.sum() + scaled_tail
    if not (np.isfinite(total) and total > 0):
        raise FloatingPointError("all reshuffled weights underflowed; check law and beta")
    masses = np.sort(w / total)[::-1]
    masses = masses[masses > 0]
    return MassPartition(masses, tail_mass=scaled_tail / total)


def shift_tail(config: PointConfiguration) -> PointConfiguration:
    """Re-center so sum_i e^{beta X_i} plus rescaled tail equals 1."""
    logw = config.beta * config.points
    m = logw[0]
    log_total = m + np.log(np.exp(logw - m).sum() + config.tail_weight_estimate * np.exp(-m))
    return PointConfiguration(
        config.points - log_total / config.beta,
        beta=config.beta,
        tail_weight_estimate=config.tail_weight_estimate * np.exp(-log_total),
    )
