"""Replica loops shared by the command line and the acceptance suite.

Every sampling function takes ``rngs``, an iterable with one numpy Generator
per replica; replica i draws everything it needs from the i-th generator, in a
fixed order.  The command line passes independent per-replica generators, the
acceptance suite one pinned generator repeated, and both get the same loop.
Results are arrays and plain numbers; writing files and judging verdicts is
left to the caller.
"""

import collections
import itertools
import operator
import os
from typing import NamedTuple

import numpy as np

from . import analysis, dynamics, pointproc, stattest

# float64 elements per chunk of replica rows in ``top_masses`` and ``oracle_masses``:
# bounds the chunk x N arrays their row kernels hold at once.  Chunks of 2**18 ran
# no faster and left the peak RSS of a 2000 x 500 ensemble 1-5 MB higher.
_CHUNK_ELEMS = 2 ** 16
# and in ``tail_normalized_starts``, whose chunks verify-lemma keeps: at 2**14 (128 KB)
# verify-lemma's peak RSS at 1000 x 500 is that of one array per start; chunks of
# 2**16 left it ~1 MB higher, and 2**18 ~4 MB, with no faster run.
_START_CHUNK_ELEMS = 2 ** 14


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
    and, given ``law``, its first step's increments right after: the chunk x n
    draws, each row's parameter and count of values, and the increments."""
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


def top_masses(rngs, sampler, k, law=None, beta=1.0, steps=0):
    """Top k masses per replica after ``steps`` multiplicative reshuffles,
    from the starts ``sampler`` (a ``PoissonKingman`` or ``Partitions``) draws.

    Replicas run in chunks of rows.  Each draws its start and its first step's
    increments, back to back, from its generator, as a loop over replicas
    would; the arithmetic runs once per chunk.  Raises OverflowError where a
    start leaves float64 range, and FloatingPointError where a reshuffle does.
    """
    tops = [np.empty((0, k))]
    for chunk in _chunks(rngs, sampler.n, _CHUNK_ELEMS):
        if steps > 1 and len(set(map(id, chunk))) < len(chunk):
            # later steps draw after the whole chunk's first step, so a shared
            # generator goes one replica at a time to keep its order
            tops += [_chunk_top_masses([rng], sampler, k, law, beta, steps) for rng in chunk]
        else:
            tops.append(_chunk_top_masses(chunk, sampler, k, law, beta, steps))
    return np.concatenate(tops)


def _chunk_top_masses(rngs, sampler, k, law, beta, steps):
    """``top_masses`` of one chunk of replicas, one generator per row."""
    masses, tails, counts, h = _chunk_starts(rngs, sampler, k, law if steps else None)
    for step in range(steps):
        if step:
            h[:] = 0.0
            for i, rng in enumerate(rngs):
                h[i, :counts[i]] = law.sample(counts[i], rng)
        masses, tails = dynamics.reshuffle_rows(masses, tails, h, law, beta)
        counts = np.count_nonzero(masses, axis=1)
        pointproc.check_partition_rows(masses, tails, counts)
    _check_counts(counts, k, FloatingPointError, f"a replica keeps {{}} positive masses after "
                  f"{steps} reshuffles, {{}} are needed: the rest underflowed")
    return masses[:, :k]


def top_points(rngs, rho, n, k, law=None, steps=0):
    """Top k of the n largest points of PP(rho e^{-rho y} dy) per replica,
    after ``steps`` additive steps.  Positions only, which track no tail.

    Each replica draws its n arrival times and then n increments per step, and
    its points are those of a full sort after each step, bit for bit; but only
    the points that can still reach the top k are formed in the last step
    (``dynamics.rerank_top``).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_counts(np.array([n]), k, ValueError, "a replica tracks {} values; {} are needed")

    def row(rng):
        g = pointproc.sample_gamma_arrivals(n, rng)
        if not np.isfinite(g[-1]):  # a cumsum of nonnegative draws: its last is its largest
            raise ValueError("arrival times must be finite")

        def head(m):  # X_i = -log(Gamma_i)/rho, as pointproc.pp_exponential_rows forms them
            x = -np.log(g[:m]) / rho
            pointproc.check_point_rows(x[None])
            return x

        def count(c):  # X_i >= c iff Gamma_i <= e^{-rho c}; an overflow to inf keeps every point
            with np.errstate(over="ignore"):
                return np.searchsorted(g, np.exp(-rho * c), side="right")

        if not steps:
            return head(k)
        for step in range(steps):
            x = dynamics.rerank_top(head, law.sample(n, rng), k if step == steps - 1 else n, count)
            # ranked points: those >= c are a prefix, found by bisection
            head = lambda m, x=x: x[:m]
            count = lambda c, x=x: x.size - np.searchsorted(x[::-1], c)
        return x

    return np.fromiter(map(row, rngs), dtype=np.dtype((float, k)),
                       count=operator.length_hint(rngs, -1))


def top_gaps(rngs, rho, n, k, law=None, steps=0):
    """First k gaps X_i - X_{i+1} of the points ``top_points`` draws."""
    return -np.diff(top_points(rngs, rho, n, k + 1, law=law, steps=steps), axis=1)


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
            rows.append(masses[:, :k])
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
    for chunk in _chunks(rngs, n, _START_CHUNK_ELEMS):
        # nothing holds a chunk's draws or points across the yield
        yield pointproc.shift_tail_rows(*sampler.points(_draw_rows(chunk, sampler)[0], beta), beta)


def _in_order(pool, fn, items, ahead):
    """``map(fn, items)`` on ``pool`` with at most ``ahead`` tasks in flight, so a
    lazy ``items`` is drawn on the calling thread as the results are taken."""
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def front_bound_counts(starts, law, tau, beta=1.0, grid_points=100):
    """Pathwise checks of F(y) <= (1 + tail) e^{v tau - beta y} on a grid and of
    Z <= (v/beta) tau, with v = log E[e^{beta h}].

    ``starts`` yields chunks of tail-normalized starts, as
    ``tail_normalized_starts`` does: a points matrix with one row per start,
    and its tail column.  Returns the number of starts violating each bound
    and the largest ratio F / bound seen on the grid where the bound is
    positive.  Each start's F, on the grid and at the level (v/beta) tau, is
    one call of the front-profile kernel on a thread pool as wide as the CPUs
    this process may use (ndtr releases the GIL).  Results are taken in start
    order, so the counts are those of a serial loop over the starts, bit for
    bit.
    """
    # imported here, as front_position imports brentq: only this check needs a pool
    from concurrent.futures import ThreadPoolExecutor

    if tau < 0:
        raise ValueError("tau must be >= 0")
    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    levels = np.append(grid, speed)
    with np.errstate(over="ignore"):  # an inf bound holds (F <= #points), and F / inf = 0
        decay = np.exp(v * tau - beta * grid)

    def profile(start):  # on a worker thread: perfbench's one-stack tracer patches public names
        tail, points = start
        return tail, law._tail_sums(levels, points, tau)

    rows = (start for points, tails in starts for start in zip(tails, points))

    markov_violations = z_violations = 0
    max_ratio = 0.0
    # the CPUs this process may run on; sched_getaffinity is not on every platform
    width = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    with ThreadPoolExecutor(width) as pool:
        for tail, fvals in _in_order(pool, profile, rows, ahead=2 * width):
            rhs = (1.0 + tail) * decay
            f_speed, fvals = fvals[-1], fvals[:-1]
            # F > 0 where the bound underflows to 0 is a violation, but has no ratio
            markov_violations += int(np.any(fvals > rhs))
            ratio = np.divide(fvals, rhs, out=np.zeros_like(rhs), where=rhs > 0)
            max_ratio = max(max_ratio, float(np.max(ratio)))
            # F strictly decreasing, so F(speed) <= 1 pins Z <= (v/beta)*tau
            if tau > 0 and f_speed > 1.0:
                z_violations += 1
    return {"markov_violations": markov_violations, "z_violations": z_violations,
            "max_bound_ratio": max_ratio}
