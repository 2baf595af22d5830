"""Evolution maps for ranked configurations and mass-partitions.

Additive picture: every point gets an independent increment h_i and the
configuration is re-ranked.  Multiplicative picture: every mass is reweighted
by W_i = e^{beta*h_i} and renormalized.  Both advance the untracked tail by
its mean factor E[e^{beta*h}].
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr

from .pointproc import MassPartition, PointConfiguration

__all__ = [
    "IncrementLaw",
    "evolve_additive",
    "evolve_multiplicative",
    "shift_tail",
]


class _Kind(NamedTuple):
    """Formulas of one increment kind; ``p`` is the law's parameter tuple."""

    sample: Callable          # (p, size, rng) -> draws of h
    log_mgf: Callable         # (p, lam) -> log E[e^{lam h}] for lam != 0
    mean: Callable            # p -> E[h]
    sample_sum: Callable      # (p, tau, size, rng) -> draws of h_1 + ... + h_tau
    sum_tail: Callable = None  # (p, y, tau) -> P(h_1 + ... + h_tau >= y), if closed form
    degenerate: bool = False   # every increment equals the mean


def _uniform_log_mgf(p, lam):
    a, b = p
    # anchored at the dominating endpoint to avoid overflow
    hi, lo = (b, a) if lam > 0 else (a, b)
    return lam * hi + np.log1p(-np.exp(lam * (lo - hi))) - np.log(abs(lam) * (b - a))


_KINDS = {
    "gaussian": _Kind(
        sample=lambda p, size, rng: rng.normal(p[0], p[1], size=size),
        log_mgf=lambda p, lam: lam * p[0] + 0.5 * lam * lam * p[1] * p[1],
        mean=lambda p: p[0],
        sample_sum=lambda p, tau, size, rng: rng.normal(tau * p[0], p[1] * np.sqrt(tau), size=size),
        sum_tail=lambda p, y, tau: ndtr((tau * p[0] - y) / (p[1] * np.sqrt(tau))),
    ),
    "uniform": _Kind(
        sample=lambda p, size, rng: rng.uniform(p[0], p[1], size=size),
        log_mgf=_uniform_log_mgf,
        mean=lambda p: 0.5 * (p[0] + p[1]),
        sample_sum=lambda p, tau, size, rng: rng.uniform(p[0], p[1], size=(tau, size)).sum(axis=0),
    ),
    "constant": _Kind(
        sample=lambda p, size, rng: np.full(size, p[0]),
        log_mgf=lambda p, lam: lam * p[0],
        mean=lambda p: p[0],
        sample_sum=lambda p, tau, size, rng: np.full(size, tau * p[0]),
        sum_tail=lambda p, y, tau: (y <= tau * p[0]).astype(float),
        degenerate=True,
    ),
}


@dataclass(frozen=True)
class IncrementLaw:
    """Increment distribution with all exponential moments finite.

    Supported kinds: gaussian(mu, sigma), uniform(a, b) and constant(c); their
    formulas live in ``_KINDS``.  ``lognormal_weight`` builds the gaussian h
    for which W = e^{beta*h} is LogNormal(mu, sigma).
    """

    kind: str
    params: tuple

    @classmethod
    def gaussian(cls, mu, sigma):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls("gaussian", (float(mu), float(sigma)))

    @classmethod
    def uniform(cls, a, b):
        if not a < b:
            raise ValueError("uniform requires a < b")
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def constant(cls, c):
        return cls("constant", (float(c),))

    @classmethod
    def lognormal_weight(cls, mu, sigma, beta=1.0):
        return cls.gaussian(mu / beta, sigma / beta)

    @property
    def _formulas(self):
        try:
            return _KINDS[self.kind]
        except KeyError:
            raise ValueError(f"unknown increment kind {self.kind!r}") from None

    @property
    def closed_sum_tail(self):
        """True when P(h_1 + ... + h_tau >= y) has a closed form."""
        return self._formulas.sum_tail is not None

    @property
    def degenerate(self):
        """True when every increment equals the mean."""
        return self._formulas.degenerate

    def sample(self, size, rng):
        return self._formulas.sample(self.params, size, rng)

    def sample_sum(self, tau, size, rng):
        """``size`` independent draws of h_1 + ... + h_tau."""
        return self._formulas.sample_sum(self.params, tau, size, rng)

    def log_mgf(self, lam):
        """log E[e^{lam * h}], finite for every real lam."""
        lam = float(lam)
        return 0.0 if lam == 0.0 else self._formulas.log_mgf(self.params, lam)

    def mean(self):
        return self._formulas.mean(self.params)

    def sum_tail_probability(self, y, tau):
        """P(h_1 + ... + h_tau >= y), vectorized in y.

        Closed form for gaussian and constant kinds; other kinds have no
        implemented tau-fold tail.
        """
        y = np.asarray(y, dtype=float)
        if tau < 0:
            raise ValueError("tau must be >= 0")
        if tau == 0:
            return (y <= 0).astype(float)
        if not self.closed_sum_tail:
            raise ValueError(f"no closed-form tau-fold tail for kind {self.kind!r}")
        return self._formulas.sum_tail(self.params, y, tau)


def _sort_desc(values):
    # ties (probability zero for continuous laws) keep original index order
    order = np.argsort(-values, kind="stable")
    return values[order]


def evolve_additive(config: PointConfiguration, law: IncrementLaw, rng) -> PointConfiguration:
    """One step X_i -> X_i + h_i, re-ranked; tail advanced by E[e^{beta h}]."""
    h = law.sample(len(config), rng)
    if not np.all(np.isfinite(h)):
        raise ValueError("increment law produced non-finite draws")
    tail = config.tail_weight_estimate * np.exp(law.log_mgf(config.beta))
    return PointConfiguration(
        _sort_desc(config.points + h), beta=config.beta, tail_weight_estimate=tail
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
    masses = _sort_desc(w / total)
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
