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

import numpy as np

from . import analysis, dynamics, pointproc, stattest


def _stack(rows, width, rngs):
    """Replica x width matrix from an iterable of rows, one row per generator."""
    count = operator.length_hint(rngs, -1)
    return np.fromiter(rows, dtype=np.dtype((float, width)), count=count)


def _top(values, k):
    if values.size < k:
        raise ValueError(f"a replica tracks {values.size} values; {k} are needed")
    return values[:k]


def top_masses(rngs, sample, k, law=None, beta=1.0, steps=0):
    """Top k masses per replica after ``steps`` multiplicative reshuffles.

    ``sample(rng)`` returns the replica's starting MassPartition.
    """
    def row(rng):
        part = sample(rng)
        for _ in range(steps):
            part = dynamics.evolve_multiplicative(part, law, beta=beta, rng=rng)
        return _top(part.masses, k)

    return _stack(map(row, rngs), k, rngs)


def top_points(rngs, rho, n, k, beta=1.0, law=None, steps=0):
    """Top k of the n largest points of PP(rho e^{-rho y} dy) per replica,
    after ``steps`` additive steps."""
    def row(rng):
        config = pointproc.sample_pp_exponential(rho, n, rng, beta=beta)
        for _ in range(steps):
            config = dynamics.evolve_additive(config, law, rng)
        return _top(config.points, k)

    return _stack(map(row, rngs), k, rngs)


def top_gaps(rngs, rho, n, k, beta=1.0, law=None, steps=0):
    """First k gaps X_i - X_{i+1} of the points ``top_points`` draws."""
    return -np.diff(top_points(rngs, rho, n, k + 1, beta=beta, law=law, steps=steps), axis=1)


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
    f = analysis.StepTestFunction.single(a, d)
    mc, se = analysis.gen_functional_mc(points, f)
    closed = analysis.gen_functional_pp_exponential(rho, f, include_leader_term=True)
    deviation = abs(mc - closed)
    rel = deviation / closed if closed else 0.0
    return {
        "mc_estimate": mc,
        "mc_se": se,
        "closed_form": closed,
        "closed_form_no_leader": analysis.gen_functional_pp_exponential(rho, f),
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
