"""Front profiles, generating functionals and bound checks.

The front profile of a configuration X over a horizon tau is
F(y) = sum_i P(S_i(tau) + X_i >= y) with S_i(tau) the tau-step increment sum;
its unit level set Z (where F(Z) = 1) is the expected leading-edge position.
For tail-normalized configurations both obey explicit exponential bounds
driven by v_beta = log E[e^{beta h}].
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import IncrementLaw
from .pointproc import MassPartition, PointConfiguration

__all__ = [
    "FrontProfile",
    "FrontRootError",
    "ShallowTruncationError",
    "front_profile",
    "front_position",
    "gen_functional_mc",
    "gen_functional_pp_exponential",
    "sum_squares",
    "jump_event_bound_check",
    "JumpBoundReport",
]


class FrontRootError(RuntimeError):
    """The front profile stays below 1 everywhere; no leading-edge position."""


class ShallowTruncationError(ValueError):
    """The configuration is too shallow for the test function's support."""


@dataclass
class FrontProfile:
    """Expected-count-above-level function for one configuration and horizon."""

    config: PointConfiguration
    law: IncrementLaw
    tau: int

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        grid = np.atleast_1d(y)
        # grid x points tail-probability matrix, summed over points
        vals = self.law.sum_tail_probability(
            grid[:, None] - self.config.points[None, :], self.tau
        ).sum(axis=1)
        return float(vals[0]) if scalar else vals


def front_profile(config: PointConfiguration, law: IncrementLaw, tau) -> FrontProfile:
    """Build F(y) = sum_i P(S_i(tau) >= y - X_i) over the tracked points."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return FrontProfile(config=config, law=law, tau=int(tau))


def front_position(profile: FrontProfile) -> float:
    """Root z of F(z) = 1, i.e. inf{y : F(y) < 1}.

    Profiles with F < 1 everywhere (a single tracked point) raise
    FrontRootError.
    """
    pts, law = profile.config.points, profile.law
    if profile.tau == 0:
        # step profile: F(y) = #{i : X_i >= y} crosses below 1 at the leader
        return float(pts[0])
    if len(pts) < 2:
        raise FrontRootError("fewer than one expected survivor at every level")
    lo = pts[0] - 10.0
    hi = pts[0] + (law.log_mgf(profile.config.beta) / profile.config.beta) * profile.tau + 10.0
    hi = max(hi, lo + 1.0)
    width = hi - lo
    while profile(lo) < 1.0:
        lo -= width
        width *= 2.0
    while profile(hi) >= 1.0:
        hi += width
        width *= 2.0
    # imported here: only this root finder needs scipy.optimize, and the CLI never calls it
    from scipy.optimize import brentq

    z = brentq(lambda y: profile(y) - 1.0, lo, hi, xtol=1e-13, rtol=1e-15)
    if abs(profile(z) - 1.0) > 1e-9:
        raise FrontRootError("bisection failed to pin F(z) = 1")
    return float(z)


def _check_step(a, d):
    if not (0 <= a < np.inf and 0 < d < np.inf):
        raise ValueError("the step a * 1_[0, d] needs finite a >= 0 and finite d > 0")


def gen_functional_mc(points, a, d):
    """Monte Carlo estimate of E[exp(-sum_i f(X_1 - X_i))] with standard error,
    for the step f = a * 1_[0, d].

    ``points`` holds one decreasing row of points per replica (a replica x n
    matrix).  The i = 1 term contributes e^{-a}.  Rows no deeper than d are
    rejected.
    """
    _check_step(a, d)
    spacings = points[:, :1] - points
    depth = spacings[:, -1]
    shallow = np.flatnonzero(depth <= d)
    if shallow.size:
        raise ShallowTruncationError(
            f"config depth {depth[shallow[0]]:.3g} does not exceed step width {d:.3g}"
        )
    # f(spacing) per point, written over the spacings to spare one matrix
    f_vals = np.multiply(spacings <= d, a, out=spacings)
    vals = np.exp(-f_vals.sum(axis=1))
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else np.inf
    return mean, se


def gen_functional_pp_exponential(rho, a, d, include_leader_term=False) -> float:
    """Closed-form generating functional of the step f = a * 1_[0, d] for
    PP(rho e^{-rho y} dy).

    Conditioning on the (Gumbel) maximum, the points below it form the same
    Poisson process, giving G = 1/(1 + c) with
    c = int_0^d (1 - e^{-a}) rho e^{rho u} du = (1 - e^{-a}) (e^{rho d} - 1).
    ``include_leader_term`` multiplies by e^{-f(0)} = e^{-a} to match the
    Monte Carlo convention that counts the maximum itself.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_step(a, d)
    c = -np.expm1(-a) * (np.exp(rho * d) - 1)
    g = 1.0 / (1.0 + c)
    if include_leader_term:
        g *= np.exp(-a)
    return g


def sum_squares(partition: MassPartition) -> float:
    """Sum of squared masses with bracketed tail adjustment (midpoint used).

    The untracked squares lie in [0, tail_mass * smallest tracked mass].
    """
    return float(np.dot(partition.masses, partition.masses)
                 + 0.5 * partition.tail_mass * partition.masses[-1])


@dataclass
class JumpBoundReport:
    """Observed frequency of the big-jump event against its analytic bound."""

    frequency: float
    bound: float
    n_replicas: int
    n_events: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.frequency <= self.bound + self.three_se)

    @property
    def three_se(self):
        p = self.bound
        return 3.0 * np.sqrt(max(p * (1.0 - p), 1.0 / self.n_replicas) / self.n_replicas)


def jump_event_bound_check(starts, law: IncrementLaw, tau, K, C, beta=1.0, rng=None) -> JumpBoundReport:
    """Frequency of {some i : S_i(tau) >= -X_i + (C+K)tau} vs e^{-tau((C+K)beta - v_beta)}.

    ``starts`` are tail-normalized PointConfigurations; the total jump of a point
    depends only on its origin and the summed increments, so S_i(tau) is drawn
    directly from the tau-fold Gaussian law.
    Passes when the empirical frequency is at most bound + 3 binomial SE.
    """
    v = law.log_mgf(beta)
    exponent = tau * ((C + K) * beta - v)
    if tau > 0 and exponent <= 0:
        raise ValueError("requires (C + K) * beta > v_beta")
    bound = np.exp(-exponent) if tau > 0 else 0.0
    threshold = (C + K) * tau
    hits = 0
    n = 0
    for cfg in starts:
        n += 1
        if tau == 0:
            continue
        if np.max(cfg.points + law.sample_sum(tau, len(cfg), rng)) >= threshold:
            hits += 1
    return JumpBoundReport(frequency=hits / n, bound=float(bound), n_replicas=n, n_events=hits)
