"""Replica loops shared by the command line and the acceptance suite.

Every sampling function takes ``rngs``, an iterable with one numpy Generator
per replica; replica i draws everything it needs from the i-th generator, in a
fixed order.  The command line passes independent per-replica generators, the
acceptance suite one pinned generator repeated, and both get the same loop.
An ensemble evolves by at most one step: tau steps of iid increments are one
step of ``IncrementLaw.summed(tau)`` in law.  An evolved ``top_points`` replica
draws its first ``_HEAD`` points in full, and past them only the points that
can reach its top k.
Results are arrays and plain numbers; writing files and judging verdicts is
left to the caller.
"""

import itertools
import operator
import os
from typing import NamedTuple

import numpy as np

from . import analysis, dynamics, pointproc, stattest

# float64 elements per chunk of replica rows: bounds the chunk x N arrays the row
# kernels hold at once.  Chunks of 2**18 ran no faster and left the peak RSS of a
# 2000 x 500 ensemble 1-5 MB higher.
_CHUNK_ELEMS = 2 ** 16
# points of an evolved ``top_points`` replica drawn in full before its walk: at
# n <= _HEAD (the default --trunc-n 500, every golden pin) the rows keep their bits
_HEAD = 1024


def _chunks(rngs, n, elems):
    """The generators of ``rngs`` in lists, one per chunk of rows of n values:
    at most ``elems`` values, and at least one row."""
    rngs = iter(rngs)
    size = max(1, elems // n)
    while chunk := list(itertools.islice(rngs, size)):
        yield chunk


def _check_counts(counts, k, error, message):
    """Raise ``error(message.format(count, k))`` at the first count below k."""
    short = np.flatnonzero(counts < k)
    if short.size:
        raise error(message.format(counts[short[0]], k))


class PoissonKingman(NamedTuple):
    """PD(alpha, 0) starts of n masses; each replica first draws its alpha
    uniformly from ``alphas``, which takes no draw for a single alpha."""

    alphas: tuple
    n: int

    def draw(self, rng, row):
        """Write one replica's draws into ``row``; return its parameter and the
        number of masses it starts with."""
        # rng.integers(1) would leave the stream as it is, but costs ~2 us a replica
        alpha = self.alphas[rng.integers(len(self.alphas)) if len(self.alphas) > 1 else 0]
        row[:] = rng.exponential(size=self.n)
        return alpha, self.n

    def rows(self, draws, alphas):
        """Masses and tails of a chunk of drawn rows, one parameter per row."""
        return pointproc.poisson_kingman_rows(alphas, np.cumsum(draws, axis=1, out=draws))


class Partitions(NamedTuple):
    """Starts given per replica by ``sample(rng)``: a pair of at most n positive
    ranked masses, as a 1-d array, and the tail they leave."""

    sample: object
    n: int

    def draw(self, rng, row):
        masses, tail = self.sample(rng)
        row[:masses.size] = masses
        row[masses.size:] = 0.0
        return tail, masses.size

    def rows(self, draws, tails):
        return draws, tails


class PPExponential(NamedTuple):
    """The top n points X_i = -log(Gamma_i)/rho of PP(rho e^{-rho y} dy); as
    masses, e^{X_i} normalized with the tail, a PD(rho, 0) start."""

    rho: float
    n: int

    def draw(self, rng, row):
        row[:] = rng.exponential(size=self.n)
        return self.rho, self.n

    def points(self, draws, beta=1.0):
        """Points and tail estimates of sum e^{beta X_i} of a chunk of drawn rows."""
        return pointproc.pp_exponential_rows(self.rho, np.cumsum(draws, axis=1, out=draws), beta)

    def rows(self, draws, _):
        return pointproc.mass_partition_rows(*self.points(draws))


def _draw_rows(rngs, sampler, law=None):
    """One chunk's draws in loop order, each replica's start by ``sampler.draw``
    and, given ``law``, its increments right after: the chunk x n draws, each
    row's parameter and count of values, and the increments."""
    draws = np.empty((len(rngs), sampler.n))
    h = None if law is None else np.zeros_like(draws)
    params = np.empty(len(rngs))
    counts = np.empty(len(rngs), dtype=int)
    for i, rng in enumerate(rngs):
        params[i], counts[i] = sampler.draw(rng, draws[i])
        if h is not None:
            h[i, :counts[i]] = law.sample(counts[i], rng)
    return draws, params, counts, h


def _chunk_starts(rngs, sampler, k, law=None):
    """Masses, tails, counts of positive masses and increments of one checked
    chunk of ``_draw_rows``; OverflowError where fewer than k masses are > 0."""
    draws, params, counts, h = _draw_rows(rngs, sampler, law)
    masses, tails = sampler.rows(draws, params)
    del draws  # the reshuffles can reuse its memory
    _check_counts(counts, k, ValueError, "a replica tracks {} values; {} are needed")
    # a start's masses that underflowed are trailing zeros, dropped as a reshuffle drops them
    counts = np.count_nonzero(masses, axis=1)
    _check_counts(counts, k, OverflowError,
                  "a replica starts with {} positive masses, {} are needed: the rest underflowed")
    pointproc.check_partition_rows(masses, tails, counts)
    return masses, tails, counts, h


def top_masses(rngs, sampler, k, law=None, beta=1.0):
    """Top k masses per replica, from the starts ``sampler`` (a
    ``PoissonKingman`` or ``Partitions``) draws, after one multiplicative
    reshuffle by ``law`` if given.

    Replicas run in chunks of rows.  Each draws its start and its increments,
    back to back, from its generator, as a loop over replicas would; the
    arithmetic runs once per chunk.  Raises OverflowError where a start leaves
    float64 range, and FloatingPointError where the reshuffle does.
    """
    tops = [np.empty((0, k))]
    for chunk in _chunks(rngs, sampler.n, _CHUNK_ELEMS):
        tops.append(_chunk_top_masses(chunk, sampler, k, law, beta))
    return np.concatenate(tops)


def _chunk_top_masses(rngs, sampler, k, law, beta):
    """``top_masses`` of one chunk of replicas; its chunk-sized arrays go when it returns."""
    masses, tails, counts, h = _chunk_starts(rngs, sampler, k, law)
    if law is not None:
        masses, tails = dynamics.reshuffle_rows(masses, tails, h, law, beta)
        counts = np.count_nonzero(masses, axis=1)
        pointproc.check_partition_rows(masses, tails, counts)
        _check_counts(counts, k, FloatingPointError, "a replica keeps {} positive masses after "
                      "the reshuffle, {} are needed: the rest underflowed")
    return masses[:, :k].copy()  # a view would keep the whole chunk alive


def top_points(rngs, rho, n, k, law=None):
    """Top k of the n largest points of PP(rho e^{-rho y} dy) per replica,
    after one additive step by ``law`` if given.  Positions only, which track
    no tail.

    Unevolved, each replica draws its n arrival times.  Evolved, it draws its
    first m = min(n, max(k, _HEAD)) arrival times, then their m increments,
    and ranks x_i + h_i: where n <= m, these are the rows of a full sort, bit
    for bit.  Deeper points are walked in doubling blocks (a, b] of indices,
    exact in law by thinning (Lewis & Shedler, 1979), with t the k-th largest
    value so far: Gamma_b = Gamma_a + Gamma(b - a), point b takes an increment,
    and each interior point is proposed with probability
    pbar = P(h >= t - x_a) >= P(h >= t - x_i), kept with probability
    P(h >= t - x_i) / pbar, and then drawn h given h >= t - x_i.  Given Gamma_a
    and Gamma_b, the interior arrival times are uniform order statistics, so a
    uniform subset of them, the proposals, is iid uniform on (Gamma_a, Gamma_b).
    Raises NonFiniteIncrementError where one of the first m increments is not
    finite.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_counts(np.array([n]), k, ValueError, "a replica tracks {} values; {} are needed")

    def row(rng):
        g = pointproc.sample_gamma_arrivals(n if law is None else min(n, max(k, _HEAD)), rng)
        if not np.isfinite(g[-1]):  # a cumsum of nonnegative draws: its last is its largest
            raise ValueError("arrival times must be finite")
        # X_i = -log(Gamma_i)/rho, as pointproc.pp_exponential_rows forms them
        x = -np.log(g[:k] if law is None else g) / rho
        pointproc.check_point_rows(x[None])
        if law is None:
            return x
        h = law.sample(g.size, rng)
        if not np.all(np.isfinite(h)):
            raise dynamics.NonFiniteIncrementError("increment law produced non-finite draws")
        top = np.sort(x + h)[::-1][:k]
        a, g_a, x_a = g.size, g[-1], x[-1]
        while a < n:
            b, t = min(n, 2 * a), top[-1]
            g_b = g_a + rng.standard_gamma(b - a)
            pbar = law.survival(t - x_a)
            proposed = rng.binomial(b - a - 1, pbar)
            x_a = -np.log(g_b) / rho
            values = [top, x_a + law.sample(1, rng)]
            if proposed:  # as a rule none: calls on empty arrays draw nothing, at ~15 us a block
                u = rng.random((2, proposed))
                x = -np.log(g_a + (g_b - g_a) * u[0]) / rho
                keep = u[1] * pbar < law.survival(t - x)
                values.append(x[keep] + law.sample_above(t - x[keep], rng))
            top = np.sort(np.concatenate(values))[::-1][:k]
            a, g_a = b, g_b
        if not np.all(np.isfinite(top[[0, -1]])):
            raise ValueError("points must be finite")
        return top

    return np.fromiter(map(row, rngs), dtype=np.dtype((float, k)),
                       count=operator.length_hint(rngs, -1))


def top_gaps(rngs, rho, n, k, law=None):
    """First k gaps X_i - X_{i+1} of the points ``top_points`` draws."""
    return -np.diff(top_points(rngs, rho, n, k + 1, law=law), axis=1)


def oracle_masses(streams, alpha, n, k):
    """Top k masses of three independent PD(alpha, 0) samplers.

    ``streams`` holds one ``rngs`` iterable per sampler, in the order
    poisson_kingman, stick_breaking, exp_of_pp.  Returns name -> replica x k
    rows, and name -> mean and standard error of sum xi_i^2.  Each replica
    draws its start from its generator in loop order; the arithmetic runs once
    per chunk of rows.
    """
    sticks = max(k, 50)
    samplers = {
        "poisson_kingman": PoissonKingman((alpha,), n),
        "stick_breaking": Partitions(
            lambda rng: pointproc.sample_pd_stickbreaking(alpha, sticks, rng), sticks),
        "exp_of_pp": PPExponential(alpha, n),
    }
    tops, sumsq = {}, {}
    for (name, sampler), rngs in zip(samplers.items(), streams):
        rows, sums = [np.empty((0, k))], []
        for chunk in _chunks(rngs, sampler.n, _CHUNK_ELEMS):
            masses, tails, _, _ = _chunk_starts(chunk, sampler, k)
            rows.append(masses[:, :k].copy())
            sums.append(analysis.sum_squares_rows(masses, tails))
        tops[name] = np.concatenate(rows)
        ss = np.concatenate(sums)
        sumsq[name] = {"mean": float(ss.mean()), "se": float(ss.std(ddof=1) / np.sqrt(len(ss)))}
    return tops, sumsq


def pairwise_energy(tops, rngs, n_perm):
    """Energy-test p-value for every pair of ``tops`` (name -> rows), keyed
    "a|b"; ``rngs`` yields one permutation generator per pair, in order."""
    return {f"{a}|{b}": stattest.energy_distance_perm_test(tops[a], tops[b], n_perm=n_perm,
                                                           rng=rng)
            for (a, b), rng in zip(itertools.combinations(tops, 2), rngs)}


def gen_functional_check(points, rho, a, d):
    """Monte Carlo generating functional of one step a * 1_[0, d] against the
    PP(rho) closed form; passes within 3 SE and 2% relative."""
    mc, se = analysis.gen_functional_mc(points, a, d)
    no_leader = analysis.gen_functional_pp_exponential(rho, a, d)
    closed = no_leader * np.exp(-a)  # the Monte Carlo estimate counts the leader's e^{-a}
    deviation = abs(mc - closed)
    rel = deviation / closed if closed else 0.0
    return {
        "mc_estimate": mc,
        "mc_se": se,
        "closed_form": closed,
        "closed_form_no_leader": no_leader,
        "relative_deviation": rel,
        "passed": bool(deviation <= 3.0 * se and rel < 0.02),
    }


def tail_normalized_starts(rngs, rho, n, beta=1.0):
    """Lazily yield, per chunk of rows, a matrix of each replica's n largest
    points of PP(rho), shifted so that sum e^{beta X_i} plus the tail estimate
    is 1, and its tail column.  Each replica draws its arrival times from its
    generator in loop order; the arithmetic runs once per chunk."""
    sampler = PPExponential(rho, n)
    for chunk in _chunks(rngs, n, _CHUNK_ELEMS):
        # nothing holds a chunk's draws or points across the yield
        yield pointproc.shift_tail_rows(*sampler.points(_draw_rows(chunk, sampler)[0], beta), beta)


def front_bound_counts(starts, law, tau, beta=1.0, grid_points=100):
    """Pathwise checks of F(y) <= (1 + tail) e^{v tau - beta y} on a grid and of
    Z <= (v/beta) tau, with v = log E[e^{beta h}].

    ``starts`` yields chunks of tail-normalized starts, as
    ``tail_normalized_starts`` does: a points matrix with one row per start,
    and its tail column.  Returns the number of starts violating each bound
    and the largest ratio F / bound seen on the grid where the bound is
    positive.  ``starts`` is drained at once, on the calling thread: each chunk
    of starts is one task on a thread pool as wide as the CPUs this process may
    use, which sums ``IncrementLaw.survival`` of the summed law per start, for
    its F on the grid and at the level (v/beta) tau (ndtr releases the GIL),
    and returns the chunk's F and bound rows.  The bounds are checked a chunk
    at a time, in start order, so the counts are those of a serial loop over
    the starts, bit for bit.
    """
    # imported here: only this check needs a pool
    from concurrent.futures import ThreadPoolExecutor

    if tau < 0:
        raise ValueError("tau must be >= 0")
    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    levels = np.append(grid, speed)
    with np.errstate(over="ignore"):  # an inf bound holds (F <= #points), and F / inf = 0
        decay = np.exp(v * tau - beta * grid)
    summed = law.summed(tau) if tau > 0 else None

    def profiles(start):  # on a worker thread: it calls nothing perfbench's tracer patches
        points, tails = start
        gaps = (np.subtract.outer(levels, row) for row in points)
        # F at ``levels`` per start; at tau = 0, the count #{x_i >= y}
        fvals = [summed.survival(g).sum(axis=-1) if tau > 0 else (g <= 0).sum(axis=-1, dtype=float)
                 for g in gaps]
        return np.array(fvals), (1.0 + tails)[:, None] * decay

    markov_violations = z_violations = 0
    max_ratio = 0.0
    # the CPUs this process may run on; sched_getaffinity is not on every platform
    width = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    with ThreadPoolExecutor(width) as pool:
        for fvals, rhs in pool.map(profiles, starts):
            f_speed, fvals = fvals[:, -1], fvals[:, :-1]
            # F > 0 where the bound underflows to 0 is a violation, but has no ratio
            markov_violations += int(np.count_nonzero((fvals > rhs).any(axis=1)))
            ratio = np.divide(fvals, rhs, out=np.zeros_like(rhs), where=rhs > 0)
            max_ratio = max(max_ratio, float(ratio.max()))
            # F strictly decreasing, so F(speed) <= 1 pins Z <= (v/beta)*tau
            if tau > 0:
                z_violations += int(np.count_nonzero(f_speed > 1.0))
    return {"markov_violations": markov_violations, "z_violations": z_violations,
            "max_bound_ratio": max_ratio}
