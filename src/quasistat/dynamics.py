"""Evolution maps for ranked configurations and mass-partitions.

Additive picture: every point gets an independent Gaussian increment h_i and
the configuration is re-ranked; ``experiments.top_points`` draws h_i for a head
of points and promotes the rest by thinning, with the law tilted by e^{rho h}
(``IncrementLaw.survival``).
Multiplicative picture: every mass is reweighted by the lognormal
W_i = e^{beta*h_i} and renormalized, and the untracked tail advances by its
mean factor E[e^{beta*h}] = e^{log_mgf(beta)}.  On log-masses this is the
additive step x_i + beta*h_i, normalized; ``experiments.top_masses`` takes it so.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "IncrementLaw",
    "NonFiniteIncrementError",
]


class NonFiniteIncrementError(ValueError):
    """The increment law drew a value beyond float64."""


@dataclass(frozen=True)
class IncrementLaw:
    """Gaussian increments h ~ N(mu, sigma^2), for which W = e^{beta*h} is
    lognormal, absolutely continuous and has every moment E[W^lam] finite.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and 0 < self.sigma < np.inf):
            raise ValueError(f"N(mu, sigma^2) needs a finite mu and a finite sigma > 0, "
                             f"got mu {self.mu:.6g} and sigma {self.sigma:.6g}")

    def sample(self, size, rng):
        return rng.normal(self.mu, self.sigma, size=size)

    def survival(self, c, tilt=0.0):
        """P(h >= c) elementwise, under the law tilted by e^{tilt h}: N(mu + tilt sigma^2,
        sigma^2), whose mean is formed as (mu - c) / sigma + tilt sigma, not tilt sigma^2."""
        z = (self.mu - c) / self.sigma
        return ndtr(z + tilt * self.sigma if tilt else z)

    def summed(self, tau):
        """The law N(tau mu, tau sigma^2) of h_1 + ... + h_tau, tau >= 1: as the
        increments are iid, tau steps are one step of this law (``summed(1)`` is
        this law, float for float).  Raises ValueError where it leaves float64."""
        # a float product overflows to inf without a warning, and __post_init__ rejects it
        return IncrementLaw(tau * self.mu, self.sigma * float(np.sqrt(tau)))

    def log_mgf(self, lam):
        """log E[e^{lam * h}], finite for every real lam."""
        spread = lam * self.sigma  # lam^2 alone can under- or overflow where (lam sigma)^2 does not
        return lam * self.mu + 0.5 * spread * spread
