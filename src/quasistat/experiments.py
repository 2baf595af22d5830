"""Replica loops shared by the command line and the acceptance suite.

Every sampling function takes ``rngs``, an iterable with one numpy Generator
per replica; replica i draws everything it needs from the i-th generator, in a
fixed order.  The command line passes independent per-replica generators, the
acceptance suite one pinned generator repeated, and both get the same loop.
Results are arrays and plain numbers; writing files and judging verdicts is
left to the caller.
"""

import itertools
import operator
from typing import NamedTuple

import numpy as np

from . import analysis, dynamics, pointproc, stattest

# float64 elements per chunk of replica rows in ``top_masses``: bounds the
# chunk x N arrays its row kernels hold at once.  Chunks of 2**18 ran no
# faster and left the peak RSS of a 2000 x 500 ensemble 1-5 MB higher.
_CHUNK_ELEMS = 2 ** 16


def _stack(rows, width, rngs):
    """Replica x width matrix from an iterable of rows, one row per generator."""
    count = operator.length_hint(rngs, -1)
    return np.fromiter(rows, dtype=np.dtype((float, width)), count=count)


def _top(values, k):
    if values.size < k:
        raise ValueError(f"a replica tracks {values.size} values; {k} are needed")
    return values[:k]


class PoissonKingman(NamedTuple):
    """PD(alpha, 0) starts of n masses; with ``mixture`` each replica first
    draws its alpha uniformly from ``alphas``."""

    alphas: tuple
    n: int
    mixture: bool = False

    def draw(self, rng, row):
        """Write one replica's draws into ``row``; return its parameter and the
        number of masses it starts with."""
        alpha = self.alphas[rng.integers(len(self.alphas))] if self.mixture else self.alphas[0]
        row[:] = rng.exponential(size=self.n)
        return alpha, self.n

    def rows(self, draws, alphas):
        """Masses and tails of a chunk of drawn rows, one parameter per row."""
        return pointproc.poisson_kingman_rows(alphas, np.cumsum(draws, axis=1, out=draws))


class Partitions(NamedTuple):
    """Starts given one MassPartition of at most n masses per replica, by
    ``sample(rng)``."""

    sample: object
    n: int

    def draw(self, rng, row):
        part = self.sample(rng)
        row[:len(part)] = part.masses
        row[len(part):] = 0.0
        return part.tail_mass, len(part)

    def rows(self, draws, tails):
        return draws, tails


def top_masses(rngs, sampler, k, law=None, beta=1.0, steps=0):
    """Top k masses per replica after ``steps`` multiplicative reshuffles,
    from the starts ``sampler`` (a ``PoissonKingman`` or ``Partitions``) draws.

    Replicas run in chunks of rows.  Each draws its start and its first step's
    increments, back to back, from its generator, as a loop over replicas
    would; the arithmetic runs once per chunk.  Raises OverflowError where a
    start leaves float64 range, and FloatingPointError where a reshuffle does.
    """
    rngs = iter(rngs)
    size = max(1, _CHUNK_ELEMS // sampler.n)
    tops = [np.empty((0, k))]
    while chunk := list(itertools.islice(rngs, size)):
        if steps > 1 and len(set(map(id, chunk))) < len(chunk):
            # later steps draw after the whole chunk's first step, so a shared
            # generator goes one replica at a time to keep its order
            tops += [_chunk_top_masses([rng], sampler, k, law, beta, steps) for rng in chunk]
        else:
            tops.append(_chunk_top_masses(chunk, sampler, k, law, beta, steps))
    return np.concatenate(tops)


def _chunk_top_masses(rngs, sampler, k, law, beta, steps):
    """``top_masses`` of one chunk of replicas, one generator per row."""
    draws = np.empty((len(rngs), sampler.n))
    h = np.zeros_like(draws)
    params = np.empty(len(rngs))
    counts = np.empty(len(rngs), dtype=int)
    for i, rng in enumerate(rngs):
        params[i], counts[i] = sampler.draw(rng, draws[i])
        if steps:
            h[i, :counts[i]] = law.sample(counts[i], rng)
    masses, tails = sampler.rows(draws, params)
    del draws  # the reshuffles can reuse its memory
    short = np.flatnonzero(counts < k)
    if short.size:
        raise ValueError(f"a replica tracks {counts[short[0]]} values; {k} are needed")
    # a start's masses that underflowed are trailing zeros, dropped as a reshuffle drops them
    counts = np.count_nonzero(masses, axis=1)
    short = np.flatnonzero(counts < k)
    if short.size:
        raise OverflowError(f"a replica starts with {counts[short[0]]} positive masses, "
                            f"{k} are needed: the rest underflowed")
    for step in range(steps):
        pointproc.check_partition_rows(masses, tails, counts)
        if step:
            h[:] = 0.0
            for i, rng in enumerate(rngs):
                h[i, :counts[i]] = law.sample(counts[i], rng)
        masses, tails = dynamics.reshuffle_rows(masses, tails, h, law, beta)
        counts = np.count_nonzero(masses, axis=1)
    pointproc.check_partition_rows(masses, tails, counts)
    short = np.flatnonzero(counts < k)
    if short.size:
        raise FloatingPointError(f"a replica keeps {counts[short[0]]} positive masses after "
                                 f"{steps} reshuffles, {k} are needed: the rest underflowed")
    return masses[:, :k]


def top_points(rngs, rho, n, k, law=None, steps=0):
    """Top k of the n largest points of PP(rho e^{-rho y} dy) per replica,
    after ``steps`` additive steps.  Positions only, which track no tail.

    Each replica draws its n arrival times and then n increments per step, as
    ``sample_pp_exponential`` and ``evolve_additive`` would, and its points are
    theirs bit for bit; but only the points that can still reach the top k
    are formed in the last step (``dynamics.rerank_top``).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")

    def row(rng):
        g = pointproc.sample_gamma_arrivals(n, rng)
        if not np.isfinite(g[-1]):  # a cumsum of nonnegative draws: its last is its largest
            raise ValueError("arrival times must be finite")

        def head(m):  # X_i = -log(Gamma_i)/rho, as sample_pp_exponential forms them
            x = -np.log(g[:m]) / rho
            # a NaN fails the diff, and ranked points with finite ends are all finite
            if not (np.all(np.diff(x) <= 0) and np.all(np.isfinite(x[[0, -1]]))):
                raise ValueError("points must be finite and non-increasing")
            return x

        def count(c):  # X_i >= c iff Gamma_i <= e^{-rho c}; an overflow to inf keeps every point
            with np.errstate(over="ignore"):
                return np.searchsorted(g, np.exp(-rho * c), side="right")

        if not steps:
            return _top(head(min(n, k)), k)
        for step in range(steps):
            x = dynamics.rerank_top(head, law.sample(n, rng), k if step == steps - 1 else n, count)
            # ranked points: those >= c are a prefix, found by bisection
            head = lambda m, x=x: x[:m]
            count = lambda c, x=x: x.size - np.searchsorted(x[::-1], c)
        return _top(x, k)

    return _stack(map(row, rngs), k, rngs)


def top_gaps(rngs, rho, n, k, law=None, steps=0):
    """First k gaps X_i - X_{i+1} of the points ``top_points`` draws."""
    return -np.diff(top_points(rngs, rho, n, k + 1, law=law, steps=steps), axis=1)


def oracle_masses(streams, alpha, n, k):
    """Top k masses of three independent PD(alpha, 0) samplers.

    ``streams`` holds one ``rngs`` iterable per sampler, in the order
    poisson_kingman, stick_breaking, exp_of_pp.  Returns name -> replica x k
    rows, and name -> mean and standard error of sum xi_i^2.
    """
    samplers = {
        "poisson_kingman": lambda rng: pointproc.sample_pd_poisson_kingman(alpha, n, rng),
        "stick_breaking": lambda rng: pointproc.sample_pd_stickbreaking(alpha, max(k, 50), rng),
        "exp_of_pp": lambda rng: pointproc.mass_partition_from_config(
            pointproc.sample_pp_exponential(alpha, n, rng, beta=1.0)),
    }
    tops, sumsq = {}, {}
    for (name, sample), rngs in zip(samplers.items(), streams):
        sums = []

        def row(rng):
            part = sample(rng)
            sums.append(analysis.sum_squares(part))
            return _top(part.masses, k)

        tops[name] = _stack(map(row, rngs), k, rngs)
        ss = np.asarray(sums)
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
    closed = analysis.gen_functional_pp_exponential(rho, a, d, include_leader_term=True)
    deviation = abs(mc - closed)
    rel = deviation / closed if closed else 0.0
    return {
        "mc_estimate": mc,
        "mc_se": se,
        "closed_form": closed,
        "closed_form_no_leader": analysis.gen_functional_pp_exponential(rho, a, d),
        "relative_deviation": rel,
        "passed": bool(deviation <= 3.0 * se and rel < 0.02),
    }


def tail_normalized_starts(rngs, rho, n, beta=1.0):
    """Lazily yield the n largest points of PP(rho), shifted so that
    sum e^{beta X_i} plus the tail estimate is 1."""
    for rng in rngs:
        yield dynamics.shift_tail(pointproc.sample_pp_exponential(rho, n, rng, beta=beta))


def front_bound_counts(starts, law, tau, beta=1.0, grid_points=100):
    """Pathwise checks of F(y) <= (1 + tail) e^{v tau - beta y} on a grid and of
    Z <= (v/beta) tau, with v = log E[e^{beta h}].

    Returns the number of starts violating each bound and the largest ratio
    F / bound seen on the grid.
    """
    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    markov_violations = z_violations = 0
    max_ratio = 0.0
    for config in starts:
        profile = analysis.front_profile(config, law, tau)
        fvals = profile(grid)
        rhs = (1.0 + config.tail_weight_estimate) * np.exp(v * tau - beta * grid)
        markov_violations += int(np.any(fvals > rhs))
        max_ratio = max(max_ratio, float(np.max(fvals / rhs)))
        # F strictly decreasing, so F(speed) <= 1 pins Z <= (v/beta)*tau
        if tau > 0 and profile(speed) > 1.0:
            z_violations += 1
    return {"markov_violations": markov_violations, "z_violations": z_violations,
            "max_bound_ratio": max_ratio}
