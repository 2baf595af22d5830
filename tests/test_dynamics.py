from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from quasistat import experiments
from quasistat.dynamics import IncrementLaw, reshuffle_rows
from quasistat.pointproc import (
    check_partition_rows,
    mass_partition_rows,
    pp_exponential_rows,
    sample_gamma_arrivals,
    shift_tail_rows,
)
from quasistat.stattest import invariance_verdict

from helpers import front_counts_loop


class _FixedDraws:
    """Stands in for an IncrementLaw with scripted increments."""

    def __init__(self, draws, mean_weight=1.0):
        self.draws = np.asarray(draws, dtype=float)
        self.mean_weight = mean_weight

    def sample(self, size, rng):
        assert size == self.draws.size
        return self.draws.copy()

    def log_mgf(self, lam):
        return np.log(self.mean_weight)


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


def _reshuffle(masses, tail, h, law, beta=1.0):
    """One reshuffle of a single partition: its positive masses and its tail mass."""
    out, tails = reshuffle_rows(np.array([masses], dtype=float), np.array([tail], dtype=float),
                                np.array([h], dtype=float), law, beta)
    return out[0][out[0] > 0], tails[0]


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
    out, tail = _reshuffle(masses, 0.0, [0.7, 0.7, 0.7],
                           _FixedDraws([], mean_weight=np.exp(1.3 * 0.7)), beta=1.3)
    np.testing.assert_allclose(out, masses, atol=1e-12)
    assert tail == pytest.approx(0.0, abs=1e-12)


def test_multiplicative_reweights_and_reorders():
    out, _ = _reshuffle([0.8, 0.2], 0.0, [0.0, np.log(8.0)], _FixedDraws([]))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def test_multiplicative_drops_underflowed_masses():
    # e^{-800} underflows to exactly 0 and trails the row
    masses, tails = reshuffle_rows(np.array([[0.6, 0.4]]), np.zeros(1), np.array([[0.0, -800.0]]),
                                   _FixedDraws([]))
    assert masses.tolist() == [[1.0, 0.0]]
    assert masses.sum() + tails[0] == 1.0


def test_multiplicative_mass_conservation():
    rng = np.random.default_rng(3)
    law = IncrementLaw(0.0, 1.5)
    masses, tails = np.full((1, 10), 0.09), np.array([0.1])
    for _ in range(20):
        masses, tails = reshuffle_rows(masses, tails, law.sample((1, 10), rng), law)
        assert abs(masses.sum() + tails[0] - 1.0) <= 1e-10


def test_additive_multiplicative_commutation():
    # coupled draws: masses of the evolved configuration equal the reshuffled masses
    points, tails = pp_exponential_rows(0.5, sample_gamma_arrivals(60, np.random.default_rng(8))[None])
    law = IncrementLaw(0.1, 0.9)
    h = law.sample(60, np.random.default_rng(21))
    # the additive step advances the tail estimate by E[e^{beta h}], as the reshuffle does
    stepped = experiments.top_points([np.random.default_rng(8)], 0.5, 60, 60, law=_FixedDraws(h))
    via_points, via_points_tail = mass_partition_rows(stepped, tails * np.exp(law.log_mgf(1.0)))
    via_masses, via_masses_tail = reshuffle_rows(*mass_partition_rows(points, tails), h[None], law)
    np.testing.assert_allclose(via_points, via_masses, atol=1e-10)
    np.testing.assert_allclose(via_points_tail, via_masses_tail, atol=1e-10)


def test_shift_tail_normalizes_weights():
    out, tails = shift_tail_rows(np.zeros((1, 2)), np.zeros(1))
    np.testing.assert_allclose(out, [[-np.log(2), -np.log(2)]])
    assert tails.tolist() == [0.0]
    rng = np.random.default_rng(17)
    points, tails = pp_exponential_rows(0.5, rng.exponential(size=(3, 100)).cumsum(axis=1))
    out, out_tails = shift_tail_rows(points, tails)
    totals = np.exp(out).sum(axis=1) + out_tails
    assert np.all(np.abs(totals - 1.0) <= 1e-10)
    np.testing.assert_allclose(np.diff(out), np.diff(points), atol=1e-12)
    twice, _ = shift_tail_rows(out, out_tails)
    np.testing.assert_allclose(twice, out, atol=1e-12)
    # at beta = 2 the weights are e^{2 X}
    out, out_tails = shift_tail_rows(points, tails, beta=2.0)
    assert np.all(np.abs(np.exp(2.0 * out).sum(axis=1) + out_tails - 1.0) <= 1e-10)


def test_shift_tail_matches_mass_normalization_at_beta_one():
    points, tails = pp_exponential_rows(0.5, sample_gamma_arrivals(50, np.random.default_rng(29))[None])
    via_shift, _ = shift_tail_rows(points, tails)
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
    law = IncrementLaw(0.0, sigma)
    out, tail = _reshuffle(masses, 1.0 - masses.sum(), law.sample(masses.size, rng), law)
    check_partition_rows(out[None], np.array([tail]))  # positive, ranked, and summing to 1
    assert np.all(np.diff(out) <= 0)
    assert abs(out.sum() + tail - 1.0) <= 1e-10


def test_multiplicative_zero_tail_stays_zero():
    # E[W] = e^{800} overflows, but a zero tail has nothing to advance
    law = _FixedDraws([])
    law.log_mgf = lambda lam: 800.0
    out, tail = _reshuffle([0.6, 0.4], 0.0, [0.0, 0.0], law)
    assert tail == 0.0
    assert out.tolist() == [0.6, 0.4]
    with pytest.raises(FloatingPointError, match="overflows"):
        _reshuffle([0.6, 0.3], 0.1, [0.0, 0.0], law)


def test_top_masses_refuses_rows_that_underflow_below_k():
    # e^{-800} underflows: one mass is left where two are needed
    sampler = experiments.Partitions(lambda rng: (np.array([0.6, 0.4]), 0.0), 2)
    with pytest.raises(FloatingPointError, match="keeps 1 positive masses after the reshuffle, "
                                                 "2 are needed"):
        experiments.top_masses([None], sampler, 2, law=_FixedDraws([0.0, -800.0]))
    with pytest.raises(ValueError, match="a replica tracks 2 values; 3 are needed"):
        experiments.top_masses([None], sampler, 3)


# The per-replica loop and arithmetic that the row kernels replace, kept as the reference.

def _pk_loop(alpha, n, rng):
    g = np.cumsum(rng.exponential(size=n))
    atoms = g ** (-1.0 / alpha)
    tail = alpha * g[-1] ** ((alpha - 1.0) / alpha) / (1.0 - alpha)
    total = atoms.sum() + tail
    return atoms / total, tail / total


def _reshuffle_loop(masses, tail, law, beta, rng):
    h = law.sample(masses.size, rng)
    logm = np.log(masses) + beta * h
    m = logm.max()
    w = np.exp(logm - m)
    scaled_tail = tail * np.exp(law.log_mgf(beta) - m)
    total = w.sum() + scaled_tail
    masses = np.sort(w / total)[::-1]
    return masses[masses > 0], scaled_tail / total


def _top_masses_loop(rngs, sample, k, law, beta, steps):
    rows, fewest = [], np.inf
    for rng in rngs:
        masses, tail = sample(rng)
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
    **{f"pd-{a}": (experiments.PoissonKingman((a,), 40), lambda rng, a=a: _pk_loop(a, 40, rng),
                   40, 1.0) for a in (0.3, 0.5, 0.7)},
    "mixture-of-pd": (experiments.PoissonKingman((0.3, 0.7), 40),
                      lambda rng: _pk_loop((0.3, 0.7)[rng.integers(2)], 40, rng), 40, 1.0),
    "geometric": (experiments.Partitions(lambda rng: _geometric(40), 40),
                  lambda rng: _geometric(40), 40, 1.0),
    "uneven-rows": (experiments.Partitions(_uneven, 200), _uneven, 200, 1.0),
    # 0.5**1074 is the smallest subnormal: most of the tail masses underflow and drop
    "geometric-underflow": (experiments.Partitions(lambda rng: _geometric(1074), 1074),
                            lambda rng: _geometric(1074), 1074, 10.0),
}


@pytest.mark.parametrize("chunk_rows", [None, 5])
@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_top_masses_matches_replica_loop(monkeypatch, case, chunk_rows):
    sampler, sample, n, sigma = _LOOP_CASES[case]
    if chunk_rows:  # 23 replicas in chunks of 5, 5, 5, 5 and 3
        monkeypatch.setattr(experiments, "_CHUNK_ELEMS", chunk_rows * n + 3)
    law, beta, k, replicas = IncrementLaw(0.1, sigma), 0.8, 5, 23

    def independent():
        return [np.random.default_rng([7, i]) for i in range(replicas)]

    def shared():  # as the acceptance suite passes its pinned generator
        return repeat(np.random.default_rng(7), replicas)

    for rngs, steps in [(independent, 0), (independent, 1), (shared, 0), (shared, 1)]:
        reference, fewest = _top_masses_loop(rngs(), sample, k, law, beta, steps)
        rows = experiments.top_masses(rngs(), sampler, k, law=law if steps else None, beta=beta)
        assert rows.shape == reference.shape
        assert rows.tobytes() == reference.tobytes(), (rngs, steps)
        if case == "geometric-underflow" and steps:
            assert fewest < n


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
    for n, replicas in [(k, 5), (k + 1, 5), (300, 5), (1024, 5), (1025, 5), (100_000, 2)]:
        for steps in (0, 1):
            evolve = law if steps else None
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            rows = experiments.top_points(independent, rho, n, k, law=evolve)
            if steps and n > experiments._HEAD:
                if n == experiments._HEAD + 1:
                    # the head is the full draw of its first _HEAD points, and the one
                    # point past it enters the top k or not
                    independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
                    head = _top_points_loop(independent, rho, n - 1, k, law, steps)
                    for row, ref in zip(rows, head):
                        kept = row[np.isin(row, ref)]
                        assert kept.size >= k - 1 and kept.tobytes() == ref[:kept.size].tobytes()
                continue  # deeper, the walk keeps the law (test_top_points_walk_keeps_the_law)
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            reference = _top_points_loop(independent, rho, n, k, law, steps)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            # one generator for every replica, as the acceptance suite passes it
            ref_rng, rng = np.random.default_rng([n, steps]), np.random.default_rng([n, steps])
            reference = _top_points_loop(repeat(ref_rng, replicas), rho, n, k, law, steps)
            rows = experiments.top_points(repeat(rng, replicas), rho, n, k, law=evolve)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            assert rng.random() == ref_rng.random()  # nothing more or less was drawn


@pytest.mark.parametrize("tau,sigma,n", [(1, 1.0, 100_000), (10, 1.0, 100_000), (1, 50.0, 5000)])
def test_top_points_walk_keeps_the_law(tau, sigma, n):
    # past _HEAD points the walk draws only the points that can reach the top k;
    # its top points and gaps must keep the law of the full draw.  A walk that
    # stops at the head reads "rejected" at tau = 10 and at sigma = 50.
    law, k, replicas = IncrementLaw(0.0, sigma).summed(tau), 6, 400
    reference = _top_points_loop([np.random.default_rng([1, 1, i]) for i in range(replicas)],
                                 1.0, n, k, law, 1)
    rows = experiments.top_points([np.random.default_rng([1, 2, i]) for i in range(replicas)],
                                  1.0, n, k, law=law)
    for key, (a, b) in enumerate([(reference, rows), (-np.diff(reference), -np.diff(rows))]):
        report = invariance_verdict(a, b, level=0.01, n_perm=199,
                                    rng=np.random.default_rng([1, 3 + key]))
        assert report["verdict"] == "consistent", ("positions", "gaps")[key]


def test_sample_above_is_the_conditional_law():
    law, rng = IncrementLaw(0.3, 2.0), np.random.default_rng(14)
    for z in (-30.0, -2.0, 0.0, 2.0, 10.0, 30.0):
        c = np.full(10_000, law.mu + z * law.sigma)
        h = law.sample_above(c, rng)
        assert np.all(np.isfinite(h)) and np.all(h >= c), z
    # the mean of N(mu, sigma^2) truncated to [mu + 2 sigma, inf)
    h = law.sample_above(np.full(100_000, law.mu + 2.0 * law.sigma), rng)
    expected = law.mu + law.sigma * np.exp(-2.0) / np.sqrt(2 * np.pi) / ndtr(-2.0)
    assert abs(h.mean() - expected) <= 4 * h.std() / np.sqrt(h.size)
    for z in (-30.0, 30.0):
        assert law.survival(law.mu + z * law.sigma) == pytest.approx(ndtr(-z), rel=1e-12)


def test_top_points_cut_reaches_a_lifted_last_point():
    # the last point's increment lifts it to first place, so no point may be cut
    n, k = 500, 3
    law = _FixedDraws(np.r_[np.zeros(n - 1), 1e3])
    reference = _top_points_loop([np.random.default_rng(3)], 1.0, n, k, law, 1)
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
        sampler, sample, _, _ = _LOOP_CASES[case]
        reference, _ = _top_masses_loop(rngs(1), sample, k, law, beta, tau)

        def ensemble(law):
            return experiments.top_masses(rngs(2), sampler, k, law=law, beta=beta)

    def verdict(rows):
        return invariance_verdict(reference, rows, level=0.01, n_perm=199,
                                  rng=np.random.default_rng(3))["verdict"]

    assert verdict(ensemble(law.summed(tau))) == "consistent"
    if case != "pd-0.5":  # PD(alpha, 0) is invariant; these laws move with each step
        assert verdict(ensemble(law)) == "rejected"
