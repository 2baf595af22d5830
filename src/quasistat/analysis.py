"""Front profiles, generating functionals and bound checks.

The front profile of a configuration X over a horizon tau is
F(y) = sum_i P(S_i(tau) + X_i >= y) with S_i(tau) the tau-step increment sum;
its unit level set Z (where F(Z) = 1) is the expected leading-edge position.
For tail-normalized configurations both obey explicit exponential bounds
driven by v_beta = log E[e^{beta h}].
"""

import numpy as np

from .dynamics import IncrementLaw

__all__ = [
    "FrontRootError",
    "ShallowTruncationError",
    "front_position",
    "gen_functional_mc",
    "gen_functional_pp_exponential",
    "sum_squares_rows",
    "jump_event_bound_check",
]


class FrontRootError(RuntimeError):
    """The front profile stays below 1 everywhere; no leading-edge position."""


class ShallowTruncationError(ValueError):
    """The configuration is too shallow for the test function's support."""


def front_position(points, law: IncrementLaw, tau) -> float:
    """Root z of F(z) = 1, i.e. inf{y : F(y) < 1}, for the front profile
    F(y) = sum_i P(S_i(tau) >= y - X_i) of one row of ranked points.

    Profiles with F < 1 everywhere (a single tracked point) raise
    FrontRootError.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0:
        # step profile: F(y) = #{i : X_i >= y} crosses below 1 at the leader
        return float(points[0])
    if len(points) < 2:
        raise FrontRootError("fewer than one expected survivor at every level")

    def profile(y):
        return law._tail_sums(y, points, tau)

    lo = points[0] - 10.0
    hi = points[0] + law.log_mgf(1.0) * tau + 10.0
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


def gen_functional_pp_exponential(rho, a, d) -> float:
    """Closed-form generating functional of the step f = a * 1_[0, d] for
    PP(rho e^{-rho y} dy).

    Conditioning on the (Gumbel) maximum, the points below it form the same
    Poisson process, giving G = 1/(1 + c) with
    c = int_0^d (1 - e^{-a}) rho e^{rho u} du = (1 - e^{-a}) (e^{rho d} - 1).
    The Monte Carlo convention, which counts the maximum itself, is G e^{-f(0)}
    = G e^{-a}.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_step(a, d)
    c = -np.expm1(-a) * (np.exp(rho * d) - 1)
    return 1.0 / (1.0 + c)


def sum_squares_rows(masses, tails):
    """Sum of squared masses of each row, with bracketed tail adjustment
    (midpoint used).

    Row i holds one partition's ranked masses, zeros beyond the ones it tracks,
    and its tail mass ``tails[i]``.  The untracked squares lie in
    [0, tails[i] * smallest tracked mass].
    """
    counts = np.count_nonzero(masses, axis=1)
    # over the tracked masses alone: trailing zeros change the dot product's rounding
    return np.array([np.dot(row[:c], row[:c]) + 0.5 * tail * row[c - 1]
                     for row, tail, c in zip(masses, tails, counts)])


def jump_event_bound_check(starts, law: IncrementLaw, tau, ck, beta=1.0, *, rng):
    """Frequency of {some i : S_i(tau) >= -X_i + ck tau} vs e^{-tau(ck beta - v_beta)},
    where ck = C + K.

    ``starts`` yields matrices of tail-normalized points, one row per start;
    the total jump of a point depends only on its origin and the summed
    increments, so S_i(tau) is drawn directly from the tau-fold Gaussian law,
    for a whole matrix at once, in row order.  Returns the frequency, the bound,
    three binomial SE of the bound, the number of events, and whether the
    frequency is at most bound + 3 SE.
    """
    v = law.log_mgf(beta)
    exponent = tau * (ck * beta - v)
    if tau > 0 and not exponent > 0:
        raise ValueError(f"the bound needs (C + K) * beta > v_beta = log E[e^{{beta h}}], "
                         f"got {ck * beta:.6g} <= {v:.6g}")
    bound = float(np.exp(-exponent)) if tau > 0 else 0.0
    threshold = ck * tau
    hits = n = 0
    for points in starts:
        n += len(points)
        if tau > 0:
            jumps = law.sample_sum(tau, points.shape, rng)
            jumps += points
            hits += int(np.count_nonzero(jumps.max(axis=1) >= threshold))
    frequency = hits / n
    three_se = 3.0 * np.sqrt(max(bound * (1.0 - bound), 1.0 / n) / n)
    return {"frequency": frequency, "bound": bound, "three_se": float(three_se),
            "events": hits, "passed": bool(frequency <= bound + three_se)}
