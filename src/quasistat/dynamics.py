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
    "rerank_top",
    "reshuffle_rows",
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
    tail = config.tail_weight_estimate
    if tail:  # a zero tail stays zero, also where E[e^{beta h}] overflows
        tail *= np.exp(law.log_mgf(config.beta))
    points = config.points
    return PointConfiguration(rerank_top(lambda m: points[:m], h, len(points)),
                              beta=config.beta, tail_weight_estimate=tail)


# relative widening of the cut in ``rerank_top``: far above the rounding of the
# cut and of a count taken through another function (exp against log)
_CUT_MARGIN = 1e-9


def rerank_top(head, h, k, count_at_least=None):
    """The k largest of x_i + h_i, ranked: bit for bit ``np.sort(x + h)[::-1][:k]``
    for ranked points x_1 >= ... >= x_n and one increment h_i per point.

    ``head(m)`` returns x_1, ..., x_m.  Where k < n, only the points that can
    still reach the top k are formed and sorted, and ``count_at_least(c)``
    returns #{i : x_i >= c}, give or take points within rounding of c.

    Exact: t, the smallest of x_i + h_i over i <= k, is at most the k-th
    largest of all, and as rounding is monotone, fl(x_i + h_i) <= fl(x_i + max h).
    So no point with x_i < t - max h reaches the top k, and these points are a
    suffix.  The cut is widened by ``_CUT_MARGIN`` relative to its terms, which
    only adds candidates and absorbs the rounding of the cut and of the count.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("increment law produced non-finite draws")
    m = h.size
    if k < m:
        t = (head(k) + h[:k]).min()
        hmax = h.max()
        m = max(k, count_at_least(t - hmax - _CUT_MARGIN * (1.0 + abs(t) + abs(hmax))))
    top = np.sort(head(m) + h[:m])[::-1][:k]
    if not np.all(np.isfinite(top[[0, -1]])):
        raise ValueError("points must be finite")
    return top


def evolve_multiplicative(
    partition: MassPartition, law: IncrementLaw, beta=1.0, rng=None
) -> MassPartition:
    """One reshuffle xi_i -> xi_i W_i / sum_j xi_j W_j with W_i = e^{beta h_i};
    see ``reshuffle_rows``."""
    h = law.sample(len(partition), rng)
    masses, tails = reshuffle_rows(partition.masses[None],
                                   np.array([partition.tail_mass], dtype=float), h[None], law, beta)
    row = masses[0]
    return MassPartition(row[row > 0], tail_mass=tails[0])


def reshuffle_rows(masses, tails, h, law, beta=1.0):
    """One reshuffle of each row: row i holds one replica's ranked masses, zeros
    beyond the ones it tracks, its tail mass ``tails[i]``, and one increment
    h per tracked mass.  Returns the reshuffled masses, ranked, with zeros
    wherever a mass underflowed, and the tail masses.

    Computed in log space; the untracked tail advances by E[W] = E[e^{beta h}],
    and a zero tail stays zero.  Raises FloatingPointError when that overflows.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("increment law produced non-finite draws")
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


def shift_tail(config: PointConfiguration) -> PointConfiguration:
    """Re-center so sum_i e^{beta X_i} plus rescaled tail equals 1.  Raises
    OverflowError where the tail, scaled to the leading weight, leaves float64
    range (an underflowed tail times an overflowed e^{-beta X_1} is NaN)."""
    logw = config.beta * config.points
    m = logw[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scaled_tail = config.tail_weight_estimate * np.exp(-m)
    if not np.isfinite(scaled_tail):
        raise OverflowError(f"the tail estimate {config.tail_weight_estimate:.6g} times "
                            f"e^{{-beta X_1}} = e^{{{-m:.6g}}} leaves float64 range")
    log_total = m + np.log(np.exp(logw - m).sum() + scaled_tail)
    return PointConfiguration(
        config.points - log_total / config.beta,
        beta=config.beta,
        tail_weight_estimate=config.tail_weight_estimate * np.exp(-log_total),
    )
