"""Evolution maps for ranked configurations and mass-partitions.

Additive picture: every point gets an independent Gaussian increment h_i and
the configuration is re-ranked; ``experiments.top_points`` draws h_i only where
x_i + h_i can reach the top k, through ``IncrementLaw.survival`` and
``IncrementLaw.sample_above``.
Multiplicative picture: every mass is reweighted by the lognormal
W_i = e^{beta*h_i} and renormalized (``reshuffle_rows``), and the untracked
tail advances by its mean factor E[e^{beta*h}].
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "IncrementLaw",
    "NonFiniteIncrementError",
    "reshuffle_rows",
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
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, size, rng):
        return rng.normal(self.mu, self.sigma, size=size)

    def survival(self, c):
        """P(h >= c), elementwise."""
        return ndtr((self.mu - c) / self.sigma)

    def sample_above(self, c, rng):
        """One draw of h given h >= c per element of c, by inversion: (mu - h) / sigma
        is ndtri(U P(h >= c)), with U in (0, 1] so that no draw is infinite while
        U P(h >= c) > 0 (c below ~mu + 37 sigma); a draw rounded below c is c."""
        u = 1.0 - rng.random(np.shape(c))
        return np.maximum(self.mu - self.sigma * ndtri(u * self.survival(c)), c)

    def summed(self, tau):
        """The law N(tau mu, tau sigma^2) of h_1 + ... + h_tau, tau >= 1: as the
        increments are iid, tau steps are one step of this law (``summed(1)`` is
        this law, float for float)."""
        return IncrementLaw(tau * self.mu, self.sigma * np.sqrt(tau))

    def log_mgf(self, lam):
        """log E[e^{lam * h}], finite for every real lam."""
        return lam * self.mu + 0.5 * lam * lam * self.sigma * self.sigma


def _tail_sums(levels, points, law):
    """sum_i P(x_i + h >= y) for each level y, h one draw of ``law``, or the count
    #{i : x_i >= y} for ``law`` None: the one kernel behind the front profile
    F(y) = sum_i P(X_i + S_i(tau) >= y), with ``law`` the summed law
    ``IncrementLaw.summed(tau)`` of S_i(tau), or None at tau = 0.

    Works in place on one levels x points buffer, summed along each row.
    Private and free of numpy error state, so worker threads may call it.
    """
    buf = np.subtract.outer(levels, points)
    if law is None:
        np.less_equal(buf, 0.0, out=buf)
    else:
        np.subtract(law.mu, buf, out=buf)
        buf /= law.sigma
        ndtr(buf, out=buf)
    return buf.sum(axis=-1)


def reshuffle_rows(masses, tails, h, law, beta=1.0):
    """One reshuffle of each row: row i holds one replica's ranked masses, zeros
    beyond the ones it tracks, its tail mass ``tails[i]``, and one increment
    h per tracked mass.  Returns the reshuffled masses, ranked, with zeros
    wherever a mass underflowed, and the tail masses.

    Computed in log space; the untracked tail advances by E[W] = E[e^{beta h}],
    and a zero tail stays zero.  Raises FloatingPointError when that overflows,
    and NonFiniteIncrementError where an increment is not finite.
    """
    if not np.all(np.isfinite(h)):
        raise NonFiniteIncrementError("increment law produced non-finite draws")
    with np.errstate(divide="ignore"):  # log(0) = -inf: the zeros stay zero
        w = np.log(masses)
    w += beta * h
    m = w.max(axis=1)
    w -= m[:, None]
    np.exp(w, out=w)
    with np.errstate(over="ignore"):  # an overflow shows in the total below
        growth = np.exp(law.log_mgf(beta) - m)
    scaled_tail = tails * np.where(tails > 0, growth, 0.0)
    total = w.sum(axis=1)
    counts = np.count_nonzero(masses, axis=1)
    for i in np.flatnonzero(counts < masses.shape[1]):
        # summed over the tracked masses alone: trailing zeros change the pairwise sum's rounding
        total[i] = w[i, :counts[i]].sum()
    total += scaled_tail
    if not np.all(np.isfinite(total)):
        raise FloatingPointError(f"E[e^{{beta h}}] = e^{{{law.log_mgf(beta):.6g}}} overflows "
                                 f"the reshuffled tail")
    w /= total[:, None]
    w.sort(axis=1)
    # contiguous, as the next log must be: on a reversed view it can differ in the last bit
    return np.ascontiguousarray(w[:, ::-1]), scaled_tail / total
