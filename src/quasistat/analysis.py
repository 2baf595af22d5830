"""Front profiles, generating functionals and bound checks.

The front profile of a configuration X over a horizon tau is
F(y) = sum_i P(S_i(tau) + X_i >= y) with S_i(tau) the tau-step increment sum;
its unit level set Z (where F(Z) = 1) is the expected leading-edge position.
For tail-normalized configurations both obey explicit exponential bounds
driven by v_beta = log E[e^{beta h}].
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .dynamics import IncrementLaw
from .pointproc import MassPartition, PointConfiguration

__all__ = [
    "FrontProfile",
    "StepTestFunction",
    "FrontRootError",
    "ShallowTruncationError",
    "front_profile",
    "front_position",
    "normalized_profile",
    "gen_functional_mc",
    "gen_functional_pp_exponential",
    "gap_vector",
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
    z: float = field(default=None, repr=False)

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
    if tau > 0 and not law.closed_sum_tail:
        raise ValueError(f"no closed-form tau-fold tail for {law!r}")
    return FrontProfile(config=config, law=law, tau=int(tau))


def front_position(profile: FrontProfile) -> float:
    """Root z of F(z) = 1, i.e. inf{y : F(y) < 1}; caches it on the profile.

    Degenerate profiles with F < 1 everywhere (a single tracked point under a
    diffuse law) raise FrontRootError.
    """
    pts, law = profile.config.points, profile.law
    if profile.tau == 0 or law.degenerate:
        # step profile: F(y) = #{i : X_i + tau*c >= y} crosses below 1 at the leader
        profile.z = float(pts[0] + profile.tau * law.mean())
        return profile.z
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
    z = brentq(lambda y: profile(y) - 1.0, lo, hi, xtol=1e-13, rtol=1e-15)
    if abs(profile(z) - 1.0) > 1e-9:
        raise FrontRootError("bisection failed to pin F(z) = 1")
    profile.z = float(z)
    return profile.z


def normalized_profile(profile: FrontProfile):
    """Re-centered profile y -> F(y + Z); its value at 0 is 1 by construction."""
    if profile.z is None:
        front_position(profile)
    z = profile.z
    return lambda y: profile(np.asarray(y, dtype=float) + z)


@dataclass(frozen=True)
class StepTestFunction:
    """Nonnegative finite sum of steps a_j * 1_{[0, d_j]}."""

    amplitudes: tuple
    widths: tuple

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float)
        d = np.asarray(self.widths, dtype=float)
        if a.shape != d.shape or a.ndim != 1:
            raise ValueError("amplitudes and widths must be 1-d and equal length")
        if np.any(a < 0) or np.any(d <= 0) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(d)):
            raise ValueError("steps require a >= 0 and finite d > 0")
        object.__setattr__(self, "amplitudes", tuple(a))
        object.__setattr__(self, "widths", tuple(d))

    @classmethod
    def single(cls, a, d):
        return cls((a,), (d,))

    @property
    def support_end(self):
        return max(self.widths)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        a = np.asarray(self.amplitudes)
        d = np.asarray(self.widths)
        vals = ((u[..., None] >= 0.0) & (u[..., None] <= d)) * a
        return vals.sum(axis=-1)


def gen_functional_mc(configs, f: StepTestFunction):
    """Monte Carlo estimate of E[exp(-sum_i f(X_1 - X_i))] with standard error.

    ``configs`` is a sequence of PointConfiguration or of decreasing point
    arrays (rows of a matrix work).  The i = 1 term contributes e^{-f(0)}.
    Configurations shallower than the support of f are rejected.
    """
    d_max = f.support_end
    vals = np.empty(len(configs))
    for k, cfg in enumerate(configs):
        pts = cfg.points if isinstance(cfg, PointConfiguration) else np.asarray(cfg, dtype=float)
        spacings = pts[0] - pts
        if spacings[-1] <= d_max:
            raise ShallowTruncationError(
                f"config depth {spacings[-1]:.3g} does not exceed support end {d_max:.3g}"
            )
        vals[k] = np.exp(-f(spacings).sum())
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else np.inf
    return mean, se


def gen_functional_pp_exponential(rho, f: StepTestFunction, include_leader_term=False) -> float:
    """Closed-form generating functional for PP(rho e^{-rho y} dy).

    Conditioning on the (Gumbel) maximum, the points below it form the same
    Poisson process, giving G = 1/(1 + c) with
    c = int_0^infty (1 - e^{-f(u)}) rho e^{rho u} du, evaluated exactly for
    step functions.  ``include_leader_term`` multiplies by e^{-f(0)} to match
    the Monte Carlo convention that counts the maximum itself.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    cuts = np.concatenate(([0.0], np.unique(f.widths)))
    # f is constant on each (cuts[k-1], cuts[k]); value = sum of steps reaching past it
    a = np.asarray(f.amplitudes)
    d = np.asarray(f.widths)
    c = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        level = a[d >= right].sum()
        c += -np.expm1(-level) * (np.exp(rho * right) - np.exp(rho * left))
    g = 1.0 / (1.0 + c)
    if include_leader_term:
        g *= np.exp(-float(f(0.0)))
    return g


def gap_vector(config: PointConfiguration, k) -> np.ndarray:
    """First k spacings (X_i - X_{i+1}, i = 1..k)."""
    if len(config) < k + 1:
        raise ValueError(f"need at least {k + 1} points for {k} gaps")
    return -np.diff(config.points[: k + 1])


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
    passed: bool

    @property
    def three_se(self):
        p = self.bound
        return 3.0 * np.sqrt(max(p * (1.0 - p), 1.0 / self.n_replicas) / self.n_replicas)


def jump_event_bound_check(starts, law: IncrementLaw, tau, K, C, beta=1.0, rng=None) -> JumpBoundReport:
    """Frequency of {some i : S_i(tau) >= -X_i + (C+K)tau} vs e^{-tau((C+K)beta - v_beta)}.

    ``starts`` are tail-normalized configurations; the total jump of a point
    depends only on its origin and the summed increments, so S_i(tau) is drawn
    directly from the tau-fold law (exact for gaussian and constant kinds).
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
        pts = cfg.points if isinstance(cfg, PointConfiguration) else np.asarray(cfg, dtype=float)
        n += 1
        if tau == 0:
            continue
        if np.max(pts + law.sample_sum(tau, pts.size, rng)) >= threshold:
            hits += 1
    freq = hits / n
    report = JumpBoundReport(frequency=freq, bound=float(bound), n_replicas=n,
                             n_events=hits, passed=False)
    report.passed = bool(freq <= bound + report.three_se)
    return report
