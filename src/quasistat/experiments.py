"""Replica loops shared by the command line and the acceptance suite.

Every sampling function takes ``rngs``, an iterable with one numpy Generator
per replica: the command line passes independent per-replica generators, the
acceptance suite one pinned generator repeated.  Replicas run in chunks of
rows, each drawing from its generator in loop order, and the arithmetic runs
once per chunk.  An ensemble evolves by at most one step: tau steps of iid
increments are one step of ``IncrementLaw.summed(tau)`` in law.  A reshuffle
of masses is the additive step on their log-points, normalized.  An evolved
``top_points`` replica draws at most ``_HEAD`` points, and the points below them
enter its top k by one top-down promotion walk, exact in law.  Results are arrays
and plain numbers; writing files and judging verdicts is left to the caller.

The front profile of a configuration X over a horizon tau is
F(y) = sum_i P(X_i + S_i(tau) >= y) with S_i(tau) the tau-step increment sum,
one draw of ``IncrementLaw.summed(tau)``; its unit level set Z (where F(Z) = 1)
is the expected leading-edge position.  For tail-normalized configurations
both obey explicit exponential bounds driven by v_beta = log E[e^{beta h}]:
``front_bound_counts`` checks them pathwise, and ``jump_event_bound_check``
the big-jump event behind them.
"""

import itertools
from typing import NamedTuple

import numpy as np

from . import dynamics, pointproc

# float64 elements per chunk of replica rows: bounds the chunk x N arrays the row
# kernels hold at once.  Chunks of 2**18 ran no faster and left the peak RSS of a
# 2000 x 500 ensemble 1-5 MB higher.
_CHUNK_ELEMS = 2 ** 16
# points of an evolved ``top_points`` replica drawn one by one, before its walk: at
# n <= _HEAD (the default --trunc-n 500, every golden pin) a row keeps its head draws
_HEAD = 512
# (exponential, uniform) pairs an evolved ``top_points`` replica draws right after its
# increments, and again each time its walk passes them: about k are walked
_WALK_BATCH = 32
# leading points of a start that ``front_bound_counts`` screens one by one; deeper
# points enter by doubling blocks, so at n = 500 a level takes 16 + 5 terms, not 500
_SCREEN_HEAD = 16
# float64 elements per block of levels that ``front_bound_counts`` sums exactly at once
_LEVEL_ELEMS = 2 ** 12
# the screen's table of terms: at most _TABLE_LEN gaps k * step (256 KB), with step a
# power of two from _GAP_STEP to 1; a level or point past _INDEX_MAX steps takes 1
_GAP_STEP = 2.0 ** -9
_TABLE_LEN = 2 ** 15
_INDEX_MAX = 2.0 ** 60


def _chunks(rngs, n):
    """The generators of ``rngs`` in lists, one per chunk of rows of n values:
    at most ``_CHUNK_ELEMS`` values, and at least one row."""
    rngs = iter(rngs)
    size = max(1, _CHUNK_ELEMS // n)
    while chunk := list(itertools.islice(rngs, size)):
        yield chunk


def _check_counts(counts, k, error, message):
    """Raise ``error(message.format(count, k))`` at the first count below k."""
    short = np.flatnonzero(counts < k)
    if short.size:
        raise error(message.format(counts[short[0]], k))


class PoissonKingman(NamedTuple):
    """PD(alpha, 0) starts of n masses: the top n points X_i = -log(Gamma_i)/alpha
    of PP(alpha e^{-alpha y} dy), whose masses are e^{X_i} normalized with their
    tail.  Each replica first draws its alpha uniformly from ``alphas``, which
    takes no draw for a single alpha."""

    alphas: tuple
    n: int

    def draw(self, rng, row):
        """Write one replica's draws into ``row``; return its parameter and the
        number of masses it starts with."""
        # rng.integers(1) would leave the stream as it is, but costs ~2 us a replica
        alpha = self.alphas[rng.integers(len(self.alphas)) if len(self.alphas) > 1 else 0]
        rng.standard_exponential(out=row)
        return alpha, self.n

    def starts(self, draws, alphas):
        """A chunk of drawn rows, one parameter per row, as log-points with the tail
        estimates of their sums of e^{X_i} relative to e^{X_1}.  The arrival times
        are summed in place."""
        return pointproc.pp_exponential_rows(alphas, np.cumsum(draws, axis=1, out=draws))


class Partitions(NamedTuple):
    """Starts given per replica by ``sample(rng)``: a pair of at most n positive
    ranked masses, as a 1-d array, and the tail they leave, carried as their logs
    and the tail relative to the leading mass."""

    sample: object
    n: int

    def draw(self, rng, row):
        masses, tail = self.sample(rng)
        row[:masses.size] = masses
        row[masses.size:] = 0.0
        return tail, masses.size

    def starts(self, draws, tails):
        with np.errstate(divide="ignore"):  # log(0) = -inf past each row's count
            return np.log(draws), tails / draws[:, 0]


def _draw_rows(rngs, sampler, law=None, uniforms=None):
    """One chunk's draws in loop order, each replica's start by ``sampler.draw``
    and, given ``law``, its increments right after, then, given ``uniforms``, its
    row of them: the chunk x n draws, each row's parameter and count of values,
    and the increments.  Raises NonFiniteIncrementError where an increment is not
    finite."""
    draws = np.empty((len(rngs), sampler.n))
    h = None if law is None else np.zeros_like(draws)
    params = np.empty(len(rngs))
    counts = np.empty(len(rngs), dtype=int)
    for i, rng in enumerate(rngs):
        params[i], counts[i] = sampler.draw(rng, draws[i])
        if h is not None:
            h[i, :counts[i]] = law.sample(counts[i], rng)
        if uniforms is not None:
            rng.random(out=uniforms[i])
    if h is not None and not np.all(np.isfinite(h)):
        raise dynamics.NonFiniteIncrementError("increment law produced non-finite draws")
    return draws, params, counts, h


def top_masses(rngs, sampler, k, law=None, beta=1.0):
    """Top k masses per replica, from the starts ``sampler`` (a
    ``PoissonKingman`` or ``Partitions``) draws, after one multiplicative
    reshuffle by ``law`` if given.

    Replicas run in chunks of rows.  Each draws its start and its increments,
    back to back, from its generator, as a loop over replicas would; the
    arithmetic runs once per chunk.  The reshuffle xi_i W_i / sum_j xi_j W_j,
    W_i = e^{beta h_i}, is the additive step w = x + beta h on the log-points x of
    ``sampler.starts``, ranked, with their tail estimate times E[W]: normalizing
    does not depend on scale, so a chunk is normalized once, after the step.
    Raises OverflowError where a start's points leave float64 or its masses
    underflow, and FloatingPointError where the reshuffle's tail overflows or its
    masses underflow.
    """
    tops = [np.empty((0, k))]
    for chunk in _chunks(rngs, sampler.n):
        masses, _ = _chunk_masses(chunk, sampler, k, law, beta)
        tops.append(masses[:, :k].copy())  # a view would keep the whole chunk alive
    return np.concatenate(tops)


def _chunk_masses(rngs, sampler, k, law=None, beta=1.0):
    """Checked masses and tail masses of one chunk of ``_draw_rows``: the log-points
    of ``sampler.starts``, after one reshuffle by ``law`` if given, normalized."""
    draws, params, counts, h = _draw_rows(rngs, sampler, law)
    start = x, tails = sampler.starts(draws, params)
    del draws  # the reshuffle can reuse its memory
    _check_counts(counts, k, ValueError, "a replica tracks {} values; {} are needed")
    w = x
    if law is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            w = np.add(x, np.multiply(h, beta, out=h), out=h)
        w.sort(axis=1)
        w = w[:, ::-1]
        # a sort ranks NaN above inf; below the leader, -inf is a mass that underflows to 0
        if not np.all(np.isfinite(w[:, 0])):
            raise FloatingPointError("beta h takes a leading log-mass x + beta h beyond float64")
        # a positive tail, relative to e^{x_1}, times E[W] = e^v and relative to e^{w_1};
        # a zero tail stays zero under any E[W], without forming e^{x_1 + v - w_1}
        v = law.log_mgf(beta)
        with np.errstate(over="ignore"):  # checked below
            tails = tails * np.exp(np.where(tails > 0, x[:, 0] + v - w[:, 0], 0.0))
        if not np.all(np.isfinite(tails)):
            raise FloatingPointError(f"E[e^{{beta h}}] = e^{{{v:.6g}}} overflows "
                                     f"the reshuffled tail")
    masses, tails, _ = pointproc.mass_partition_rows(w, tails)
    counts = np.count_nonzero(masses, axis=1)
    error, message = OverflowError, ("a replica starts with {} positive masses, {} are needed: "
                                     "the rest underflowed")
    if law is not None and np.any(counts < k):
        # only here is an evolved start normalized: one that underflows names its own flags
        _check_counts(np.count_nonzero(pointproc.mass_partition_rows(*start)[0], axis=1), k,
                      error, message)
        error, message = FloatingPointError, ("a replica keeps {} positive masses after the "
                                              "reshuffle, {} are needed: the rest underflowed")
    _check_counts(counts, k, error, message)
    pointproc.check_partition_rows(masses, tails, counts)
    return masses, tails


def top_points(rngs, rho, n, k, law=None):
    """Top k points of PP(rho e^{-rho y} dy) per replica, after one additive step
    by ``law`` if given: of its n largest points unevolved, of the whole infinite
    configuration evolved.  Positions only, which track no tail.

    Replicas run in chunks of rows, ranked once per chunk.  Unevolved, each replica
    draws its n arrival times.  Evolved, it draws its first m = min(n, max(k, _HEAD))
    arrival times, their increments and ``_WALK_BATCH`` pairs of uniforms, and ranks
    x_i + h_i.  Given this head, the points below c = x_m evolve into a PPP of
    intensity rho e^{-rho y} E[e^{rho h}] P(h' >= y - c), h' ~ N(mu + rho sigma^2,
    sigma^2) the law tilted by e^{rho h} (Kingman, 1993: marking and mapping).  The
    pairs walk the process that dominates it, PP(rho) shifted by mu + rho sigma^2 / 2,
    from the top down, keep each point y with probability P(h' >= y - c) (Lewis &
    Shedler, 1979), merge it into the top k, and stop at a point at or below the k-th
    value; a replica whose pairs run out first draws more after its chunk.  So
    per-replica generators keep their head draws, and a shared one keeps the law.
    Raises NonFiniteIncrementError where an increment is not finite, OverflowError
    where a point of PP(rho) leaves float64, and FloatingPointError where the head's
    top k or the shift does.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    _check_counts(np.array([n]), k, ValueError, "a replica tracks {} values; {} are needed")
    m = n if law is None else min(n, max(k, _HEAD))
    tops = [np.empty((0, k))]
    for chunk in _chunks(rngs, m):
        tops.append(_chunk_top_points(chunk, rho, m, k, law))
    return np.concatenate(tops)


def _chunk_top_points(rngs, rho, m, k, law):
    """``top_points`` of one chunk of replicas, each drawing its first m points."""
    pairs = None if law is None else np.empty((len(rngs), 2, _WALK_BATCH))
    draws, _, _, h = _draw_rows(rngs, PoissonKingman((rho,), m), law, pairs)
    g = np.cumsum(draws, axis=1, out=draws)
    if not np.all(np.isfinite(g[:, -1])):  # a cumsum of nonnegative draws: its last is its largest
        raise ValueError("arrival times must be finite")
    x = pointproc.pp_points(rho, g[:, :k] if law is None else g)  # ranked: g increases
    if law is None:
        return x
    h += x
    h.partition(m - k, axis=1)  # each row's top k of x_i + h_i, in its last k columns
    tops = np.sort(h[:, m - k:], axis=1)  # ascending: tops[:, 0] is the k-th value
    shift = law.mu + 0.5 * (rho * law.sigma) * law.sigma  # in Python floats: no warning
    if not (np.isfinite(shift) and np.all(np.isfinite(tops[:, [0, -1]]))):
        raise FloatingPointError(f"a top point x + h, or the shift mu + rho sigma^2 / 2 = "
                                 f"{shift:.6g} of the points below them, leaves float64")
    c, arrivals, walking = x[:, -1], np.zeros(len(rngs)), np.arange(len(rngs))
    # y - c and (mu - y + c) / sigma may overflow, where ndtr is exact: once a chunk
    with np.errstate(over="ignore"):
        while walking.size:
            g = arrivals[walking, None] + np.cumsum(-np.log1p(-pairs[walking, 0]), axis=1)
            y = shift + pointproc.pp_points(rho, g)
            kept = pairs[walking, 1] < law.survival(y - c[walking, None], tilt=rho)
            merged = np.concatenate((tops[walking], np.where(kept, y, -np.inf)), axis=1)
            tops[walking] = np.sort(merged, axis=1)[:, -k:]
            arrivals[walking] = g[:, -1]
            walking = walking[y[:, -1] > tops[walking, 0]]  # not >=: y may round to the shift
            for i in walking:
                rngs[i].random(out=pairs[i])
    return tops[:, ::-1].copy()


def top_gaps(rngs, rho, n, k, law=None):
    """First k gaps X_i - X_{i+1} of the points ``top_points`` draws."""
    return -np.diff(top_points(rngs, rho, n, k + 1, law=law), axis=1)


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


def oracle_masses(streams, alpha, n, k):
    """Top k masses of two independent PD(alpha, 0) samplers.

    ``streams`` holds one ``rngs`` iterable per sampler, in the order
    poisson_kingman, stick_breaking.  Returns name -> replica x k
    rows, and name -> mean and standard error of sum xi_i^2.  Each replica
    draws its start from its generator in loop order; the arithmetic runs once
    per chunk of rows.
    """
    sticks = max(k, 50)
    samplers = {
        "poisson_kingman": PoissonKingman((alpha,), n),
        "stick_breaking": Partitions(
            lambda rng: pointproc.sample_pd_stickbreaking(alpha, sticks, rng), sticks),
    }
    tops, sumsq = {}, {}
    for (name, sampler), rngs in zip(samplers.items(), streams):
        rows, sums = [np.empty((0, k))], []
        for chunk in _chunks(rngs, sampler.n):
            masses, tails = _chunk_masses(chunk, sampler, k)
            rows.append(masses[:, :k].copy())
            sums.append(sum_squares_rows(masses, tails))
        tops[name] = np.concatenate(rows)
        ss = np.concatenate(sums)
        sumsq[name] = {"mean": float(ss.mean()), "se": float(ss.std(ddof=1) / np.sqrt(len(ss)))}
    return tops, sumsq


class ShallowTruncationError(ValueError):
    """The configuration is too shallow for the test function's support."""


def gen_functional_check(points, rho, a, d):
    """Monte Carlo generating functional E[exp(-sum_i f(X_1 - X_i))] of the step
    f = a * 1_[0, d] against the PP(rho e^{-rho y} dy) closed form; passes
    within 3 SE and 2% relative.

    ``points`` holds one decreasing row of points per replica (a replica x n
    matrix); rows no deeper than d are rejected.  Conditioning on the (Gumbel)
    maximum, the points below it form the same Poisson process, giving the
    closed form G = 1/(1 + c) with
    c = int_0^d (1 - e^{-a}) rho e^{rho u} du = (1 - e^{-a}) (e^{rho d} - 1).
    The Monte Carlo estimate counts the maximum itself, whose own step is
    e^{-f(0)} = e^{-a}, so it is compared with G e^{-a}.
    """
    if not (0 <= a < np.inf and 0 < d < np.inf):
        raise ValueError("the step a * 1_[0, d] needs finite a >= 0 and finite d > 0")
    spacings = points[:, :1] - points
    depth = spacings[:, -1]
    shallow = np.flatnonzero(depth <= d)
    if shallow.size:
        raise ShallowTruncationError(f"config depth {depth[shallow[0]]:.3g} does not exceed "
                                     f"step width {d:.3g}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    # f(spacing) per point, written over the spacings to spare one matrix
    f_vals = np.multiply(spacings <= d, a, out=spacings)
    vals = np.exp(-f_vals.sum(axis=1))
    mc = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else np.inf
    c = -np.expm1(-a) * (np.exp(rho * d) - 1)
    no_leader = 1.0 / (1.0 + c)
    closed = no_leader * np.exp(-a)
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
    sampler = PoissonKingman((rho,), n)
    for chunk in _chunks(rngs, n):
        # a chunk's draws and arrival times go before its points are normalized
        points, tails = pointproc.pp_exponential_rows(
            rho, np.cumsum(_draw_rows(chunk, sampler)[0], axis=1), beta)
        _, tails, shift = pointproc.mass_partition_rows(points, tails, beta)
        points -= shift[:, None]
        pointproc.check_point_rows(points, tails)
        yield points, tails


def _gap_table(terms, law, levels, points):
    """``terms`` at the gaps k * step from k = first on, as (step, first, values), with
    values[0] = 1, a bound on every term.  The gaps span those of ``points`` at
    ``levels`` where a term of ``law`` (None: 1{gap <= 0}) is neither 1 nor < 1e-300."""
    mean, sd = (law.mu, law.sigma) if law is not None else (0.0, 0.0)
    span = [max(levels.min() - points[:, 0].max(), mean - 9.0 * sd),
            min(levels.max() - points[:, -1].min(), mean + 38.0 * sd)]
    lo, hi = np.clip(np.nan_to_num(span), -2.0 ** 42, 2.0 ** 42)  # so each k * step is exact
    step = _GAP_STEP
    while hi - lo > (_TABLE_LEN - 4) * step and step < 1.0:
        step *= 2.0
    first = int(np.floor(lo / step)) - 1
    stop = min(max(int(np.ceil(hi / step)), first) + 2, first + _TABLE_LEN)
    values = terms(np.arange(first, stop) * step)
    values[0] = 1.0
    return step, first, values


def _upper_bounds(table, levels, points):
    """U >= F(y) = sum_i term(y - x_i) per row of ranked ``points`` and level y: the
    terms of the leading ``_SCREEN_HEAD`` points and of the first point of each deeper
    doubling block [K 2^b, K 2^{b+1}) times its size, times 1 + 1e-9.  A term is the
    ``_gap_table`` entry at (floor(y / step) - ceil(x / step)) * step <= fl(y - x):
    terms do not grow with their gaps, and a gap off the table takes its nearer end."""
    step, first, values = table
    n = points.shape[1]
    head = min(n, _SCREEN_HEAD)
    firsts = head * 2 ** np.arange(((n - 1) // head).bit_length())
    cols = np.concatenate((np.arange(head), firsts))
    sizes = np.concatenate((np.ones(head), np.minimum(n, 2 * firsts) - firsts))
    # as int64: past _INDEX_MAX steps a level moves down, or a point up, to a smaller gap;
    # past twice that the other way, or at NaN, a gap lands below the table, on 1
    ly = np.fmin(np.fmax(np.floor(levels / step), -2 * _INDEX_MAX), _INDEX_MAX)
    kx = np.fmax(np.fmin(np.ceil(points[:, cols] / step), 2 * _INDEX_MAX), -_INDEX_MAX)
    ly = ly.astype(np.int64) - first
    return (1.0 + 1e-9) * np.array([values.take(np.subtract.outer(ly, k), mode="clip") @ sizes
                                    for k in kx.astype(np.int64)])


def front_bound_counts(starts, law, tau, beta=1.0, grid_points=100):
    """Pathwise checks of F(y) <= (1 + tail) e^{v tau - beta y} on a grid and of
    Z <= (v/beta) tau, with v = log E[e^{beta h}].

    ``starts`` yields chunks of tail-normalized starts, as
    ``tail_normalized_starts`` does: a points matrix with one row per start,
    and its tail column.  Returns the number of starts violating each bound
    and the largest ratio F / bound seen on the grid where the bound is
    positive, from one pass over the chunks on the calling thread.

    F at the grid and at the level (v/beta) tau sums a term per point of a
    start: P(x_i + S(tau) >= y), by ``IncrementLaw.survival`` of the summed
    law, or at tau = 0 the indicator 1{x_i >= y}.  Each start is first bounded,
    F <= U, by ``_upper_bounds`` on one ``_gap_table`` of the first chunk's gaps.
    Its margin covers the rounding of both sums, each of nonnegative terms and
    off its exact value by ~1e-14 relative (numpy's sum is pairwise), and the
    few ulps by which ndtr may stray from monotone.  F is summed exactly, with
    the serial loop's expression, a block of levels at a time: at every level
    for the starts whose U can break a bound (U / bound >= 1 at some level,
    U > 0 where the bound underflows to 0, or U > 1 at (v/beta) tau); then, in
    descending order of their largest U / bound and until that is at most the
    largest exact ratio so far, for the other starts, only at the levels where
    U / bound exceeds that ratio.  Elsewhere F <= U < bound and
    F / bound <= U / bound <= that ratio in floats, which moves neither count
    nor the max: the counts and ``max_bound_ratio`` are a serial loop's, bit
    for bit.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    levels = np.append(grid, speed)
    with np.errstate(over="ignore"):  # an inf bound holds (F <= #points), and F / inf = 0
        decay = np.exp(v * tau - beta * grid)
    summed = law.summed(tau) if tau > 0 else None

    def terms(gaps):  # of the levels y minus the points x_i
        return summed.survival(gaps) if tau > 0 else (gaps <= 0).astype(float)

    def ratios(fvals, rhs):  # F / bound where the bound is positive, 0 elsewhere
        return np.divide(fvals, rhs, out=np.zeros_like(rhs), where=rhs > 0)

    markov_violations = z_violations = 0
    max_ratio = 0.0
    table = None
    for points, tails in starts:
        # at a tiny sigma, (mu - c) / sigma overflows to +-inf, where ndtr is exact; not
        # around the loop, so that drawing the next chunk of starts still warns
        with np.errstate(over="ignore"):
            rhs = (1.0 + tails)[:, None] * decay
            if table is None:  # once per call
                table = _gap_table(terms, summed, levels, points)
            upper = _upper_bounds(table, levels, points)
            level_ratios = ratios(upper[:, :-1], rhs)
            bound = level_ratios.max(axis=1)
            # a NaN fails every comparison, so its start is summed at every level
            safe = ((bound < 1.0) & (upper[:, -1] <= 1.0)
                    & np.all((rhs > 0) | (upper[:, :-1] == 0), axis=1))
            step = max(1, _LEVEL_ELEMS // points.shape[1])
            for i in np.lexsort((-bound, safe)):  # the unsafe starts first
                if safe[i] and bound[i] <= max_ratio:
                    break
                fvals = np.zeros(len(levels))
                # a safe start can raise the max only where its U / bound exceeds it
                live = np.flatnonzero(np.append(level_ratios[i] > max_ratio, False) | ~safe[i])
                for at in np.split(live, range(step, len(live), step)):
                    fvals[at] = terms(np.subtract.outer(levels[at], points[i])).sum(axis=-1)
                # F > 0 where the bound underflows to 0 is a violation, but has no ratio;
                # F strictly decreasing, so F(speed) <= 1 pins Z <= (v/beta)*tau
                markov_violations += bool(np.any(fvals[:-1] > rhs[i]))
                z_violations += bool(tau > 0 and fvals[-1] > 1.0)
                # max skips a NaN ratio (a NaN grid), as the serial loop's does
                max_ratio = max(max_ratio, float(ratios(fvals[:-1], rhs[i]).max()))
    return {"markov_violations": markov_violations, "z_violations": z_violations,
            "max_bound_ratio": max_ratio}


def jump_event_bound_check(starts, law, tau, ck, beta=1.0, *, rng):
    """Frequency of {some i : S_i(tau) >= -X_i + ck tau} vs e^{-tau(ck beta - v_beta)},
    where ck = C + K.

    ``starts`` yields matrices of tail-normalized points, one row per start;
    the total jump of a point depends only on its origin and the summed
    increments, so S_i(tau) is one draw of ``law.summed(tau)``, for a whole
    matrix at once, in row order.  Returns the frequency, the bound,
    three binomial SE of the bound, the number of events, and whether the
    frequency is at most bound + 3 SE.
    """
    v = law.log_mgf(beta)
    exponent = tau * (ck * beta - v)
    if not (np.isfinite(v) and (tau == 0 or exponent > 0)):  # v = inf: a NaN grid at tau = 0
        raise ValueError(f"the bound needs a finite v_beta = log E[e^{{beta h}}] < (C + K) * beta, "
                         f"got {v:.6g} and {ck * beta:.6g}")
    bound = float(np.exp(-exponent)) if tau > 0 else 0.0
    threshold = ck * tau
    summed = law.summed(tau) if tau > 0 else None
    hits = n = 0
    for points in starts:
        n += len(points)
        if summed is not None:
            jumps = summed.sample(points.shape, rng)
            jumps += points
            hits += int(np.count_nonzero(jumps.max(axis=1) >= threshold))
    frequency = hits / n
    three_se = 3.0 * np.sqrt(max(bound * (1.0 - bound), 1.0 / n) / n)
    return {"frequency": frequency, "bound": bound, "three_se": float(three_se),
            "events": hits, "passed": bool(frequency <= bound + three_se)}
