from collections import Counter
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import cli, experiments
from quasistat.dynamics import IncrementLaw
from quasistat.pointproc import (
    check_partition_rows,
    mass_partition_rows,
    pp_exponential_rows,
)
from quasistat.stattest import invariance_verdict, ks_two_sample

from helpers import front_counts_loop, gap_law_p, sample_gamma_arrivals


class _FixedDraws:
    """Stands in for an IncrementLaw with scripted increments.  Its mu and sigma
    are the law of ``top_points``' promotion walk, whose points, near mu = -1e9,
    rank below every scripted one: the walk promotes none of them."""

    mu, sigma = -1e9, 1.0

    def __init__(self, draws, mean_weight=1.0):
        self.draws = np.asarray(draws, dtype=float)
        self.mean_weight = mean_weight

    def sample(self, size, rng):
        assert size == self.draws.size
        return self.draws.copy()

    def log_mgf(self, lam):
        return np.log(self.mean_weight)

    def survival(self, c, tilt=None):
        return IncrementLaw(self.mu, self.sigma).survival(c, tilt)


def test_increment_law_validation():
    for sigma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            IncrementLaw(0.0, sigma)


def test_log_mgf_values():
    assert IncrementLaw(0, 1).log_mgf(1.0) == pytest.approx(0.5)
    assert IncrementLaw(2, 3).log_mgf(0.0) == 0.0
    assert IncrementLaw(0.5, 2.0).log_mgf(-1.5) == pytest.approx(-0.75 + 4.5)


def test_summed_law_bits():
    law = IncrementLaw(0.3, 0.7)
    assert law.summed(1) == law  # float for float, so one step keeps its streams
    summed = law.summed(3)
    assert (summed.mu, summed.sigma) == (3 * 0.3, 0.7 * np.sqrt(3))
    assert summed.log_mgf(1.5) == pytest.approx(3 * law.log_mgf(1.5))
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(summed.sample(7, rng), ref_rng.normal(3 * 0.3, 0.7 * np.sqrt(3), size=7))
    # both generators end in the same state: nothing extra was drawn
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("mu", [0.0, -1.3, 0.2])
@pytest.mark.parametrize("sigma", [0.1, 0.8, 3.0, 30.0])
def test_tail_sums_on_the_summed_law_keep_their_bits(mu, sigma):
    # the front checks sum IncrementLaw.survival per start; the reference works in place
    # on one buffer.  At beta = 150 the bound underflows at the top of the grid, and at
    # sigma = 30 (or tau = 0) it overflows at the bottom.
    law = IncrementLaw(mu, sigma)
    for beta in (1.5, 150.0):
        rng = np.random.default_rng(5)
        starts = list(experiments.tail_normalized_starts(repeat(rng, 12), 0.5, 60, beta=beta))
        rows = [start for points, tails in starts for start in zip(points, tails)]
        for tau in (0, 1, 10):
            counts = experiments.front_bound_counts(starts, law, tau, beta=beta, grid_points=30)
            assert repr(counts) == repr(front_counts_loop(rows, law, tau, beta, 30))


def _points(n, seed=0):
    """The top n points of PP(1) that ``top_points`` draws from generator ``seed``."""
    return experiments.top_points([np.random.default_rng(seed)], 1.0, n, n)[0]


def _rerank(h, seed=0):
    """Those points after one additive step by the scripted increments h, ranked
    in full by ``top_points``."""
    h = np.asarray(h, dtype=float)
    return experiments.top_points([np.random.default_rng(seed)], 1.0, h.size, h.size,
                                  law=_FixedDraws(h))[0]


def _reshuffled(sampler, law, beta=1.0, rng=None):
    """One replica's start drawn by ``sampler`` from ``rng`` and reshuffled by
    ``law`` through ``experiments.top_masses``: its whole row of masses and its
    tail mass, as the partition check after the reshuffle sees them."""
    checked = []

    def check(masses, tails, counts=None):
        checked.append((masses, tails))
        check_partition_rows(masses, tails, counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments.pointproc, "check_partition_rows", check)
        experiments.top_masses([rng], sampler, 1, law=law, beta=beta)
    masses, tails = checked[-1]
    return masses[0], tails[0]


def _reshuffle(masses, tail, law, beta=1.0, rng=None):
    """One reshuffle of a single partition: its positive masses and its tail mass."""
    start = np.asarray(masses, dtype=float), tail
    out, tail = _reshuffled(experiments.Partitions(lambda rng: start, start[0].size), law, beta,
                            rng)
    return out[out > 0], tail


def test_additive_common_shift_preserves_gaps():
    x = _points(2)
    out = _rerank([2.5, 2.5])
    np.testing.assert_allclose(out, x + 2.5)
    np.testing.assert_allclose(np.diff(out), np.diff(x))


def test_additive_resorts_after_order_swap():
    x = _points(2)
    lift = x[0] - x[1] + 1.0
    np.testing.assert_allclose(_rerank([-lift, 0.0]), [x[1], x[0] - lift])


# targets on a coarse grid collide exactly after the step
_GRID_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_GRID_VALUES, st.floats(-1e6, 1e6)), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
def test_additive_rerank_matches_stable_argsort(targets, seed):
    # each increment takes its point to about its target; "+ 0.0" turns -0.0 into
    # +0.0, as the relative order of the two zeros is the one thing a value sort
    # may change, and it has probability zero
    x = _points(len(targets), seed)
    h = np.array(targets) - x + 0.0
    out = _rerank(h, seed)
    v = x + h
    reference = v[np.argsort(-v, kind="stable")]
    assert out.tobytes() == reference.tobytes()


def test_additive_rejects_non_finite_draws():
    with pytest.raises(ValueError):
        _rerank([np.nan, 0.0])


def test_multiplicative_constant_weight_is_identity():
    masses = [0.5, 0.3, 0.2]
    out, tail = _reshuffle(masses, 0.0, _FixedDraws([0.7, 0.7, 0.7], np.exp(1.3 * 0.7)),
                           beta=1.3)
    np.testing.assert_allclose(out, masses, atol=1e-12)
    assert tail == pytest.approx(0.0, abs=1e-12)


def test_multiplicative_reweights_and_reorders():
    out, _ = _reshuffle([0.8, 0.2], 0.0, _FixedDraws([0.0, np.log(8.0)]))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def test_multiplicative_drops_underflowed_masses():
    # e^{-800} underflows to exactly 0 and trails the row
    sampler = experiments.Partitions(lambda rng: (np.array([0.6, 0.4]), 0.0), 2)
    masses, tail = _reshuffled(sampler, _FixedDraws([0.0, -800.0]))
    assert masses.tolist() == [1.0, 0.0]
    assert masses.sum() + tail == 1.0


def test_multiplicative_mass_conservation():
    rng = np.random.default_rng(3)
    law = IncrementLaw(0.0, 1.5)
    masses, tail = np.full(10, 0.09), 0.1
    for _ in range(20):  # each step starts from the last one's output
        masses, tail = _reshuffle(masses, tail, law, rng=rng)
        assert abs(masses.sum() + tail - 1.0) <= 1e-10


def test_additive_multiplicative_commutation():
    # coupled draws: masses of the evolved configuration equal the reshuffled masses of
    # the same start, given as a partition (a PD start walks below its head instead)
    x, tails = pp_exponential_rows(0.5, sample_gamma_arrivals(60, np.random.default_rng(8))[None])
    law = IncrementLaw(0.1, 0.9)
    h = law.sample(60, np.random.default_rng(21))
    # the additive step advances the tail estimate by E[e^{beta h}], as the reshuffle does,
    # and the tail stays relative to the leading weight
    stepped = experiments.top_points([np.random.default_rng(8)], 0.5, 60, 60, law=_FixedDraws(h))
    advance = np.exp(x[:, 0] + law.log_mgf(1.0) - stepped[:, 0])
    (via_points,), (via_points_tail,), _ = mass_partition_rows(stepped, tails * advance)
    (masses,), (tail,), _ = mass_partition_rows(x, tails)
    via_masses, via_masses_tail = _reshuffle(masses, tail, _FixedDraws(h, np.exp(law.log_mgf(1.0))))
    np.testing.assert_allclose(via_points, via_masses, atol=1e-10)
    np.testing.assert_allclose(via_points_tail, via_masses_tail, atol=1e-10)


def _shifted(points, tails, beta=1.0):
    """Rows tail-normalized by the shift of ``mass_partition_rows``, and their tails."""
    _, tails, shift = mass_partition_rows(points, tails, beta)
    return points - shift[:, None], tails


def test_shift_tail_normalizes_weights():
    out, tails = _shifted(np.zeros((1, 2)), np.zeros(1))
    np.testing.assert_allclose(out, [[-np.log(2), -np.log(2)]])
    assert tails.tolist() == [0.0]
    rng = np.random.default_rng(17)
    points, tails = pp_exponential_rows(0.5, rng.exponential(size=(3, 100)).cumsum(axis=1))
    out, out_tails = _shifted(points, tails)
    totals = np.exp(out).sum(axis=1) + out_tails
    assert np.all(np.abs(totals - 1.0) <= 1e-10)
    np.testing.assert_allclose(np.diff(out), np.diff(points), atol=1e-12)
    twice, _ = _shifted(out, out_tails * np.exp(-out[:, 0]))
    np.testing.assert_allclose(twice, out, atol=1e-12)
    # at beta = 2 the weights are e^{2 X}
    out, out_tails = _shifted(points, tails, beta=2.0)
    assert np.all(np.abs(np.exp(2.0 * out).sum(axis=1) + out_tails - 1.0) <= 1e-10)


def test_shift_tail_matches_mass_normalization_at_beta_one():
    points, tails = pp_exponential_rows(0.5, sample_gamma_arrivals(50, np.random.default_rng(29))[None])
    via_shift, _ = _shifted(points, tails)
    via_masses = np.log(mass_partition_rows(points, tails)[0])
    np.testing.assert_allclose(via_shift, via_masses, atol=1e-12)


def test_pp_gap_law_invariant_under_evolution():
    # quasi-stationarity of PP(rho e^{-rho y}): evolved gap law equals initial gap law
    from quasistat.stattest import invariance_verdict

    law = IncrementLaw(0.0, 1.0)
    n_rep, k = 500, 5
    before = np.empty((n_rep, k))
    after = np.empty((n_rep, k))
    rng = np.random.default_rng(55)
    for r in range(n_rep):
        before[r] = -np.diff(-np.log(sample_gamma_arrivals(k + 1, rng)))
        x = -np.log(sample_gamma_arrivals(3000, rng))
        after[r] = -np.diff(np.sort(x + law.sample(x.size, rng))[::-1][: k + 1])
    report = invariance_verdict(before, after, level=0.01, n_perm=199,
                                rng=np.random.default_rng(56))
    assert report["verdict"] == "consistent"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 2.0))
def test_reshuffle_output_is_valid_partition(seed, sigma):
    rng = np.random.default_rng(seed)
    masses = np.sort(rng.dirichlet(np.ones(8) * 0.5) * 0.9)[::-1]
    masses = masses[masses > 0]
    out, tail = _reshuffle(masses, 1.0 - masses.sum(), IncrementLaw(0.0, sigma), rng=rng)
    check_partition_rows(out[None], np.array([tail]))  # positive, ranked, and summing to 1
    assert np.all(np.diff(out) <= 0)
    assert abs(out.sum() + tail - 1.0) <= 1e-10


def test_multiplicative_zero_tail_stays_zero():
    # E[W] = e^{800} overflows, but a zero tail has nothing to advance
    law = _FixedDraws([0.0, 0.0])
    law.log_mgf = lambda lam: 800.0
    out, tail = _reshuffle([0.6, 0.4], 0.0, law)
    assert tail == 0.0
    assert out.tolist() == [0.6, 0.4]
    with pytest.raises(FloatingPointError, match="overflows"):
        _reshuffle([0.6, 0.3], 0.1, law)
    # nor does e^{-max w} = e^{800} overflow it where every weight is about e^{-800}
    out, tail = _reshuffle([0.6, 0.4], 0.0, _FixedDraws([-800.0, -800.0]))
    assert tail == 0.0
    np.testing.assert_allclose(out, [0.6, 0.4], rtol=1e-12)


def test_top_masses_refuses_rows_that_underflow_below_k():
    # e^{-800} underflows: one mass is left where two are needed
    sampler = experiments.Partitions(lambda rng: (np.array([0.6, 0.4]), 0.0), 2)
    with pytest.raises(FloatingPointError, match="keeps 1 positive masses after the reshuffle, "
                                                 "2 are needed"):
        experiments.top_masses([None], sampler, 2, law=_FixedDraws([0.0, -800.0]))
    with pytest.raises(ValueError, match="a replica tracks 2 values; 3 are needed"):
        experiments.top_masses([None], sampler, 3)


@pytest.mark.parametrize("sampler", [experiments.PoissonKingman((0.5,), 40),
                                     experiments.Partitions(lambda rng: _geometric(40), 40)])
def test_evolved_chunk_normalizes_and_checks_once(monkeypatch, sampler):
    # a start stays log-points through the step: only the reshuffled rows are normalized
    calls = Counter()
    for name in ("mass_partition_rows", "check_partition_rows"):
        def counted(*args, _call=getattr(experiments.pointproc, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(experiments.pointproc, name, counted)
    rngs = [np.random.default_rng([9, i]) for i in range(10)]  # one chunk
    experiments.top_masses(rngs, sampler, 5, law=IncrementLaw(0.0, 1.0))
    assert calls == {"mass_partition_rows": 1, "check_partition_rows": 1}


# Per-replica loops that the row kernels replace, kept as references: the
# log-point arithmetic of ``experiments.top_masses``, which its chunks must match
# bit for bit, and the reshuffle of the masses themselves, which it must match in law.

def _pk_points(alphas, n, rng):
    """A PD(alpha, 0) start as ``PoissonKingman`` forms it: the PP(alpha) points
    X_i = -log(Gamma_i)/alpha, and the tail estimate of sum e^{X_i} relative to e^{X_1}."""
    alpha = alphas[rng.integers(len(alphas))] if len(alphas) > 1 else alphas[0]
    g = np.cumsum(rng.exponential(size=n))
    x = np.log(g) / -alpha
    return x, g[-1] / (1.0 / alpha - 1.0) * np.exp(x[-1] - x[0])


def _normalized(x, tail):
    """The masses e^{x_i} of ranked points x and the tail mass, normalized by
    their sum with the tail estimate relative to e^{x_1}."""
    weights = np.exp(x - x[0])
    total = weights.sum() + tail
    return weights / total, tail / total


def _pk_start(alphas, n):
    """A start's log-points and tail estimate, and its masses and tail mass."""
    def start(rng):
        points = _pk_points(alphas, n, rng)
        return points, _normalized(*points)
    return start


def _partition_start(sample, n):
    def start(rng):
        masses, tail = sample(rng)
        x = np.full(n, -np.inf)
        x[:masses.size] = np.log(masses)
        return (x, tail / masses[0]), (masses, tail)
    return start


def _log_point_loop(rngs, start, k, law, beta, steps):
    """``top_masses`` of each replica, after ``steps`` <= 1 reshuffles: its
    log-points x, or after the step x + beta h, ranked, with a positive tail
    advanced by E[W] e^{x_1 - w_1}, normalized with their tail."""
    rows = []
    for rng in rngs:
        (x, tail), _ = start(rng)
        if steps:
            count = np.count_nonzero(x > -np.inf)
            h = np.zeros(x.size)
            h[:count] = law.sample(count, rng)
            w = -np.sort(-(x + beta * h))
            if tail > 0:
                tail = tail * np.exp(x[0] + law.log_mgf(beta) - w[0])
            x = w
        rows.append(_normalized(x, tail)[0][:k])
    return np.array(rows)


def _reshuffle_loop(masses, tail, law, beta, rng):
    h = law.sample(masses.size, rng)
    logm = np.log(masses) + beta * h
    m = logm.max()
    w = np.exp(logm - m)
    scaled_tail = tail * np.exp(law.log_mgf(beta) - m)
    total = w.sum() + scaled_tail
    masses = np.sort(w / total)[::-1]
    return masses[masses > 0], scaled_tail / total


def _top_masses_loop(rngs, start, k, law, beta, steps):
    rows, fewest = [], np.inf
    for rng in rngs:
        _, (masses, tail) = start(rng)
        for _ in range(steps):
            masses, tail = _reshuffle_loop(masses, tail, law, beta, rng)
            fewest = min(fewest, masses.size)
        rows.append(masses[:k])
    return np.array(rows), fewest


def _geometric(n):
    masses = 0.5 ** np.arange(1, n + 1)
    return masses, 0.5 ** n


def _uneven(rng):
    # like custom-from-file rows: comparable masses, a different count in each row
    masses = np.sort(rng.dirichlet(np.ones(150 + rng.integers(51))))[::-1] * 0.9
    return masses, 1.0 - masses.sum()


# name -> (sampler, reference start, trunc-n, sigma)
_LOOP_CASES = {
    **{f"pd-{a}": (experiments.PoissonKingman((a,), 40), _pk_start((a,), 40), 40, 1.0)
       for a in (0.3, 0.5, 0.7)},
    "mixture-of-pd": (experiments.PoissonKingman((0.3, 0.7), 40), _pk_start((0.3, 0.7), 40),
                      40, 1.0),
    "geometric": (experiments.Partitions(lambda rng: _geometric(40), 40),
                  _partition_start(lambda rng: _geometric(40), 40), 40, 1.0),
    "uneven-rows": (experiments.Partitions(_uneven, 200), _partition_start(_uneven, 200), 200,
                    1.0),
    # 0.5**1074 is the smallest subnormal: most of the tail masses underflow and drop
    "geometric-underflow": (experiments.Partitions(lambda rng: _geometric(1074), 1074),
                            _partition_start(lambda rng: _geometric(1074), 1074), 1074, 10.0),
}


@pytest.mark.parametrize("chunk_rows", [None, 5])
@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_top_masses_matches_replica_loop(monkeypatch, case, chunk_rows):
    sampler, start, n, sigma = _LOOP_CASES[case]
    if chunk_rows:  # 23 replicas in chunks of 5, 5, 5, 5 and 3
        monkeypatch.setattr(experiments, "_CHUNK_ELEMS", chunk_rows * n + 3)
    law, beta, k, replicas = IncrementLaw(0.1, sigma), 0.8, 5, 23

    def independent():
        return [np.random.default_rng([7, i]) for i in range(replicas)]

    def shared():  # as the acceptance suite passes its pinned generator
        return repeat(np.random.default_rng(7), replicas)

    for rngs, steps in [(independent, 0), (independent, 1), (shared, 0), (shared, 1)]:
        if steps and isinstance(sampler, experiments.PoissonKingman):
            # walked below its first k points: each replica's row is its own, whatever the
            # chunk, and the rows keep the law of the unevolved start, not the loop's bits
            rows, _ = experiments.top_masses(rngs(), sampler, k, law=law, beta=beta)
            if rngs is independent:
                alone = [experiments.top_masses([rng], sampler, k, law=law, beta=beta)[0]
                         for rng in rngs()]
                assert rows.tobytes() == np.concatenate(alone).tobytes()
            _assert_walk_keeps_the_law(sampler.alphas, law, beta, rngs is shared, 40 + steps)
            continue
        reference = _log_point_loop(rngs(), start, k, law, beta, steps)
        rows, _ = experiments.top_masses(rngs(), sampler, k, law=law if steps else None,
                                         beta=beta)
        assert rows.shape == reference.shape
        assert rows.tobytes() == reference.tobytes(), (rngs, steps)
        law_reference, fewest = _top_masses_loop(rngs(), start, k, law, beta, steps)
        np.testing.assert_allclose(rows, law_reference, rtol=1e-13, atol=0)
        if case == "geometric-underflow" and steps:
            assert fewest < n


def _assert_walk_keeps_the_law(alphas, law, beta, shared, seed, replicas=2000, k=6, cases=1):
    """The evolved top k masses of PD(alpha, 0) starts, walked below their first k
    points, against the law of the unevolved top k (PD(alpha, 0) is invariant): the
    two-sample KS of each coordinate against an unevolved ensemble of 2000-point
    starts, and the closed-form law of the log-mass gaps (``gap_law_p``), each at
    level 0.01 shared, Bonferroni, over ``cases`` calls; and the walk's counters."""
    def rngs(half):
        if shared:
            return repeat(np.random.default_rng([seed, half]), replicas)
        return [np.random.default_rng([seed, half, i]) for i in range(replicas)]

    reference, _ = experiments.top_masses(rngs(0), experiments.PoissonKingman(alphas, 2000), k)
    rows, cut = experiments.top_masses(rngs(1), experiments.PoissonKingman(alphas, 500), k,
                                       law=law, beta=beta)
    level = 0.01 / (2 * cases)
    ks = [ks_two_sample(reference[:, j], rows[:, j])[1] for j in range(k)]
    assert min(ks) >= level / k, ks
    assert gap_law_p(np.log(rows), alphas) >= level
    # a row walks at least its batch, and on until R's SD bound is at most 1% of its T: a
    # first batch already takes it to ~3% at most, which no law test of this size can see
    walked, _, remainder, spread = cut
    assert np.all(walked >= experiments._WALK_BATCH) and np.all(spread <= 0.01)
    assert np.all((remainder > 0) & (remainder < 1))


# name -> (alphas, mu, sigma, tau, beta, shared generator): beta sigma from 1 to 3 per
# step, at tau 1 and 10, with mu != 0 and beta != 1
_WALK_CASES = {
    "0.1-1": ((0.1,), 0.0, 1.0, 1, 1.0, False),
    "0.1-3-shared": ((0.1,), 0.5, 2.0, 1, 1.5, True),
    "0.5-1": ((0.5,), -1.0, 2.0, 1, 0.5, False),
    "0.5-3-tau-10": ((0.5,), 0.2, 3.0, 10, 1.0, False),
    "0.9-1-shared": ((0.9,), 0.0, 1.0, 1, 1.0, True),
    "0.9-3": ((0.9,), 2.0, 1.5, 1, 2.0, False),
    "mixture-3": ((0.3, 0.7), 0.0, 3.0, 1, 1.0, False),
    "mixture-1-tau-10-shared": ((0.3, 0.7), -0.3, 1.25, 10, 0.8, True),
}


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_pd_walk_keeps_the_law(case):
    # every reshuffle leaves PD(alpha, 0) invariant: the walk's top k must keep its law,
    # where the mean-factor tail and a 500-point start lost the promotions at beta sigma 3
    alphas, mu, sigma, tau, beta, shared = _WALK_CASES[case]
    _assert_walk_keeps_the_law(alphas, IncrementLaw(mu, sigma).summed(tau), beta, shared,
                               seed=70 + sorted(_WALK_CASES).index(case), cases=len(_WALK_CASES))


# The per-replica loop that ``experiments.top_points`` replaces, kept as the
# reference: every point sampled, and every step re-ranks all of them.

def _top_points_loop(rngs, rho, n, k, law, steps):
    rows = []
    for rng in rngs:
        points = -np.log(np.cumsum(rng.exponential(size=n))) / rho
        for _ in range(steps):
            points = np.sort(points + law.sample(n, rng))[::-1]
        rows.append(points[:k])
    return np.array(rows)


@pytest.mark.parametrize("sigma", [0.05, 1.0, 50.0])
@pytest.mark.parametrize("rho", [1e-3, 0.3, 1.0, 10.0])
def test_top_points_matches_evolve_loop(rho, sigma):
    law, k = IncrementLaw(-0.4, sigma), 6
    promoted = 0
    for n, replicas in [(k, 5), (k + 1, 5), (300, 5), (512, 5), (513, 5), (100_000, 2)]:
        for steps in (0, 1):
            evolve = law if steps else None
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            rows = experiments.top_points(independent, rho, n, k, law=evolve)
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            if steps:
                # a replica's head is the full draw of its first m points; where the walk
                # promotes a point below them, the head's top values that stay keep their order
                m = min(n, max(k, experiments._HEAD))
                heads = _top_points_loop(independent, rho, m, m, law, steps)
                for row, head in zip(rows, heads):
                    kept = row[np.isin(row, head)]
                    assert kept.tobytes() == head[:kept.size].tobytes(), n
                    promoted += kept.size < k
                continue  # a shared generator keeps the law (test_top_points_walk_keeps_the_law)
            reference = _top_points_loop(independent, rho, n, k, law, steps)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            # one generator for every replica, as the acceptance suite passes it
            ref_rng, rng = np.random.default_rng([n, steps]), np.random.default_rng([n, steps])
            reference = _top_points_loop(repeat(ref_rng, replicas), rho, n, k, law, steps)
            rows = experiments.top_points(repeat(rng, replicas), rho, n, k, law=evolve)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            assert rng.random() == ref_rng.random()  # nothing more or less was drawn
    # the walk is live: where the increments spread the points, it promotes some
    assert promoted > 0 or rho * sigma < 0.05


@pytest.mark.parametrize("tau,sigma,n,shared", [
    pytest.param(1, 1.0, 100_000, False, id="1-1.0-100000"),
    pytest.param(10, 1.0, 100_000, False, id="10-1.0-100000"),
    pytest.param(1, 50.0, 5000, False, id="1-50.0-5000"),
    pytest.param(1, 1.0, 100_000, True, id="1-1.0-100000-shared"),
])
def test_top_points_walk_keeps_the_law(tau, sigma, n, shared):
    # the evolved configuration is PP(rho) shifted by mu + rho sigma^2 / 2 of the summed
    # law, whatever --trunc-n: its top points and gaps must keep the law of that closed
    # form, drawn unevolved and shifted.  A walk that stops at the head reads "rejected"
    # at tau = 10 and at sigma = 50, where the shift is 1250.  One generator shared by
    # every replica, as the acceptance suite passes it, draws a chunk's heads before the
    # walks that pass their batch, so it keeps only the law too.
    law, k, replicas = IncrementLaw(0.0, sigma).summed(tau), 6, 400

    def rngs(seed):
        if shared:
            return repeat(np.random.default_rng([1, seed]), replicas)
        return [np.random.default_rng([1, seed, i]) for i in range(replicas)]

    reference = experiments.top_points(rngs(1), 1.0, k, k) + law.log_mgf(1.0)
    rows = experiments.top_points(rngs(2), 1.0, n, k, law=law)
    for key, (a, b) in enumerate([(reference, rows), (-np.diff(reference), -np.diff(rows))]):
        report = invariance_verdict(a, b, level=0.01, n_perm=199,
                                    rng=np.random.default_rng([1, 3 + key]))
        assert report["verdict"] == "consistent", ("positions", "gaps")[key]


@pytest.mark.parametrize("n", [8, 50, 500])
def test_evolved_pp_gap_law_does_not_depend_on_the_head(n):
    # T = sum_{i<=k} i (x_i - x_{i+1}) of the evolved top points is Gamma(k, rate rho)
    # at every --trunc-n: at tau = 10 a head of n points, from k + 1 = 8 to 500, must
    # not show.  3 seeds fixed in advance, Bonferroni over the 9 cases at level 0.01.
    law, k = IncrementLaw(0.0, 1.0).summed(10), 7
    for seed in (31, 32, 33):
        rows = experiments.top_points(cli._generators(seed, 1, range(2000)), 1.0, n, k + 1,
                                      law=law)
        p = gap_law_p(rows, 1.0)
        assert p >= 0.01 / 9, (seed, p)


@pytest.mark.parametrize("alphas,sigma", [((0.7,), 3.0), ((0.5,), 5.0), ((0.3, 0.7), 3.0)])
def test_evolved_pd_gap_law_at_strong_reshuffles(alphas, sigma):
    # the log-mass gaps of PD(alpha, 0) keep their closed-form law under every reshuffle;
    # with the atoms below --trunc-n 500 left out of the top k, the first two corners read
    # p = 0.004, 1.5e-4 and 1.5e-4 (alpha 0.7), and at most 3e-12 (alpha 0.5), at seeds 1-3
    law, k = IncrementLaw(0.0, sigma), 5
    for seed in (1, 2, 3):
        rows, _ = experiments.top_masses(cli._generators(seed, 1, range(2000)),
                                         experiments.PoissonKingman(alphas, 500), k + 1, law=law)
        assert gap_law_p(np.log(rows), alphas) >= 0.01, seed


class _CountingRng:
    """Forwards every call to a numpy Generator and counts the calls by name."""

    def __init__(self, rng):
        self._rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("tau", [1, 10])
def test_top_points_walk_draws_about_k_points(tau):
    # each replica draws one batch of _WALK_BATCH pairs with its head, and another only
    # where its walk passes them: at the shape of the benchmark's deep pp gaps (n = 10^5,
    # k = 11) about k points are walked, whatever n or tau
    rngs = [_CountingRng(np.random.default_rng([5, tau, i])) for i in range(200)]
    experiments.top_points(rngs, 1.0, 100_000, 11, law=IncrementLaw(0.0, 1.0).summed(tau))
    batches = np.array([rng.calls["random"] for rng in rngs])
    assert batches.min() == 1 and batches.max() <= 2 and np.mean(batches > 1) <= 0.05
    assert all(set(rng.calls) == {"standard_exponential", "normal", "random"} for rng in rngs)


def test_top_points_cut_reaches_a_lifted_last_point():
    # the head's last point, lifted to first place by its increment, leads: the head
    # is ranked in full, however deep the walk below it goes
    n, k, head = 100_000, 3, experiments._HEAD
    law = _FixedDraws(np.r_[np.zeros(head - 1), 1e3])
    reference = _top_points_loop([np.random.default_rng(3)], 1.0, head, k, law, 1)
    rows = experiments.top_points([np.random.default_rng(3)], 1.0, n, k, law=law)
    assert rows.tobytes() == reference.tobytes()
    assert rows[0, 0] > 900.0


# tau steps of iid increments are one step of their summed law: the ensembles
# take that one step, and the reference loops above step tau times.

@pytest.mark.parametrize("case", ["pd-0.5", "geometric", "pp"])
def test_summed_law_evolves_as_tau_steps(case):
    law, beta, k, tau, replicas = IncrementLaw(0.1, 1.0), 0.8, 5, 3, 2000

    def rngs(seed):
        return [np.random.default_rng([seed, i]) for i in range(replicas)]

    if case == "pp":
        reference = _top_points_loop(rngs(1), 1.0, 300, k, law, tau)

        def ensemble(law):
            return experiments.top_points(rngs(2), 1.0, 300, k, law=law)
    else:
        sampler, start, _, _ = _LOOP_CASES[case]
        reference, _ = _top_masses_loop(rngs(1), start, k, law, beta, tau)

        def ensemble(law):
            return experiments.top_masses(rngs(2), sampler, k, law=law, beta=beta)[0]

    def verdict(rows):
        return invariance_verdict(reference, rows, level=0.01, n_perm=199,
                                  rng=np.random.default_rng(3))["verdict"]

    assert verdict(ensemble(law.summed(tau))) == "consistent"
    if case != "pd-0.5":  # PD(alpha, 0) is invariant; these laws move with each step
        assert verdict(ensemble(law)) == "rejected"
