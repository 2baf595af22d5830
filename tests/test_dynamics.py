from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import experiments
from quasistat.dynamics import IncrementLaw, rerank_top, reshuffle_rows
from quasistat.pointproc import (
    MassPartition,
    mass_partition_rows,
    pp_exponential_rows,
    sample_gamma_arrivals,
    shift_tail_rows,
)


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


def test_sample_sum_draws():
    law = IncrementLaw(0.5, 2.0)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(law.sample_sum(3, 7, rng), ref_rng.normal(1.5, 2.0 * np.sqrt(3), size=7))
    # both generators end in the same state: nothing extra was drawn
    assert rng.random() == ref_rng.random()


def _rerank(x, h):
    """One additive step of the ranked points x, re-ranked in full."""
    x, h = np.asarray(x, dtype=float), np.asarray(h, dtype=float)
    return rerank_top(lambda m: x[:m], h, x.size)


def _reshuffle(masses, tail, h, law, beta=1.0):
    """One reshuffle of a single partition: its positive masses and its tail mass."""
    out, tails = reshuffle_rows(np.array([masses], dtype=float), np.array([tail], dtype=float),
                                np.array([h], dtype=float), law, beta)
    return out[0][out[0] > 0], tails[0]


def test_additive_common_shift_preserves_gaps():
    out = _rerank([1.0, 0.0], [2.5, 2.5])
    np.testing.assert_allclose(out, [3.5, 2.5])
    np.testing.assert_allclose(np.diff(out), [-1.0])


def test_additive_resorts_after_order_swap():
    np.testing.assert_allclose(_rerank([0.0, -3.0], [-2.0, 0.0]), [-2.0, -3.0])


# points and draws on a coarse grid collide exactly after the step
_GRID_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(_GRID_VALUES, st.floats(-1e6, 1e6)),
                          st.one_of(_GRID_VALUES, st.floats(-1e6, 1e6))),
                min_size=1, max_size=40))
def test_additive_rerank_matches_stable_argsort(pairs):
    # "+ 0.0" turns -0.0 into +0.0; the relative order of the two zeros is the
    # one thing a value sort may change, and it has probability zero
    x = np.sort(np.array([p for p, _ in pairs]) + 0.0)[::-1]
    h = np.array([q for _, q in pairs]) + 0.0
    out = _rerank(x, h)
    v = x + h
    reference = v[np.argsort(-v, kind="stable")]
    assert out.tobytes() == reference.tobytes()


def test_additive_rejects_non_finite_draws():
    with pytest.raises(ValueError):
        _rerank([0.0, -1.0], [np.nan, 0.0])


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
    via_points, via_points_tail = mass_partition_rows(_rerank(points[0], h)[None],
                                                      tails * np.exp(law.log_mgf(1.0)))
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
        after[r] = -np.diff(_rerank(x, law.sample(x.size, rng))[: k + 1])
    report = invariance_verdict(before, after, level=0.01, n_perm=199,
                                rng=np.random.default_rng(56))
    assert report.verdict == "consistent"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 2.0))
def test_reshuffle_output_is_valid_partition(seed, sigma):
    rng = np.random.default_rng(seed)
    masses = np.sort(rng.dirichlet(np.ones(8) * 0.5) * 0.9)[::-1]
    masses = masses[masses > 0]
    law = IncrementLaw(0.0, sigma)
    out, tail = _reshuffle(masses, 1.0 - masses.sum(), law.sample(masses.size, rng), law)
    MassPartition(out, tail_mass=tail)  # positive, ranked, and summing to 1
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


def test_reshuffled_rows_are_contiguous():
    # the next reshuffle takes their log, which on a reversed view can differ in the last bit
    masses, _ = reshuffle_rows(np.array([[0.5, 0.3, 0.2]]), np.array([0.0]), np.zeros((1, 3)),
                               IncrementLaw(0.0, 1.0))
    assert masses.flags.c_contiguous


def test_top_masses_refuses_rows_that_underflow_below_k():
    # e^{-800} underflows: one mass is left where two are needed
    sampler = experiments.Partitions(lambda rng: MassPartition([0.6, 0.4]), 2)
    with pytest.raises(FloatingPointError, match="keeps 1 positive masses after 1 reshuffles, "
                                                 "2 are needed"):
        experiments.top_masses([None], sampler, 2, law=_FixedDraws([0.0, -800.0]), steps=1)
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
    "geometric": (experiments.Partitions(lambda rng: MassPartition(*_geometric(40)), 40),
                  lambda rng: _geometric(40), 40, 1.0),
    "uneven-rows": (experiments.Partitions(lambda rng: MassPartition(*_uneven(rng)), 200),
                    _uneven, 200, 1.0),
    # 0.5**1074 is the smallest subnormal: most of the tail masses underflow and drop
    "geometric-underflow": (experiments.Partitions(lambda rng: MassPartition(*_geometric(1074)),
                                                   1074),
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

    for rngs, steps in [(independent, 0), (independent, 1), (independent, 2),
                        (shared, 0), (shared, 1), (shared, 2)]:
        reference, fewest = _top_masses_loop(rngs(), sample, k, law, beta, steps)
        rows = experiments.top_masses(rngs(), sampler, k, law=law, beta=beta, steps=steps)
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
    for n, replicas in [(k, 5), (k + 1, 5), (300, 5), (100_000, 2)]:
        for steps in (0, 1, 2, 3):
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            reference = _top_points_loop(independent, rho, n, k, law, steps)
            independent = [np.random.default_rng([n, steps, i]) for i in range(replicas)]
            rows = experiments.top_points(independent, rho, n, k, law=law, steps=steps)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            # one generator for every replica, as the acceptance suite passes it
            ref_rng, rng = np.random.default_rng([n, steps]), np.random.default_rng([n, steps])
            reference = _top_points_loop(repeat(ref_rng, replicas), rho, n, k, law, steps)
            rows = experiments.top_points(repeat(rng, replicas), rho, n, k, law=law, steps=steps)
            assert rows.tobytes() == reference.tobytes(), (n, steps)
            assert rng.random() == ref_rng.random()  # nothing more or less was drawn


@pytest.mark.parametrize("steps", [1, 2])
def test_top_points_cut_reaches_a_lifted_last_point(steps):
    # the last point's increment lifts it to first place, so no point may be cut
    n, k = 500, 3
    law = _FixedDraws(np.r_[np.zeros(n - 1), 1e3])
    reference = _top_points_loop([np.random.default_rng(3)], 1.0, n, k, law, steps)
    rows = experiments.top_points([np.random.default_rng(3)], 1.0, n, k, law=law, steps=steps)
    assert rows.tobytes() == reference.tobytes()


def test_rerank_top_forms_only_the_points_that_can_reach_the_top():
    rng = np.random.default_rng(12)
    x = np.sort(rng.exponential(size=100_000))[::-1]
    h = rng.normal(size=x.size)
    formed = []

    def head(m):
        formed.append(m)
        return x[:m]

    def count(c):
        return x.size - np.searchsorted(x[::-1], c)

    top = rerank_top(head, h, 11, count)
    assert top.tobytes() == np.sort(x + h)[::-1][:11].tobytes()
    assert formed[-1] < x.size // 10
    h[-1] = x[0] - x[-1] + 1.0  # lifts the last point to first place
    top = rerank_top(head, h, 11, count)
    assert formed[-1] == x.size and top[0] == x[-1] + h[-1]
