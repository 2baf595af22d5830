from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import experiments
from quasistat.dynamics import (
    IncrementLaw,
    evolve_additive,
    evolve_multiplicative,
    rerank_top,
    reshuffle_rows,
    shift_tail,
)
from quasistat.pointproc import (
    MassPartition,
    PointConfiguration,
    mass_partition_from_config,
    sample_pp_exponential,
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


def test_additive_common_shift_preserves_gaps():
    cfg = PointConfiguration([1.0, 0.0])
    out = evolve_additive(cfg, _FixedDraws([2.5, 2.5]), None)
    np.testing.assert_allclose(out.points, [3.5, 2.5])
    np.testing.assert_allclose(np.diff(out.points), np.diff(cfg.points))


def test_additive_resorts_after_order_swap():
    cfg = PointConfiguration([0.0, -3.0])
    out = evolve_additive(cfg, _FixedDraws([-2.0, 0.0]), None)
    np.testing.assert_allclose(out.points, [-2.0, -3.0])


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
    out = evolve_additive(PointConfiguration(x), _FixedDraws(h), None)
    v = x + h
    reference = v[np.argsort(-v, kind="stable")]
    assert out.points.tobytes() == reference.tobytes()


def test_additive_rejects_non_finite_draws():
    cfg = PointConfiguration([0.0, -1.0])
    with pytest.raises(ValueError):
        evolve_additive(cfg, _FixedDraws([np.nan, 0.0]), None)


def test_multiplicative_constant_weight_is_identity():
    part = MassPartition([0.5, 0.3, 0.2])
    out = evolve_multiplicative(part, _FixedDraws([0.7, 0.7, 0.7], mean_weight=np.exp(1.3 * 0.7)),
                                beta=1.3, rng=None)
    np.testing.assert_allclose(out.masses, part.masses, atol=1e-12)
    assert out.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_multiplicative_reweights_and_reorders():
    part = MassPartition([0.8, 0.2])
    out = evolve_multiplicative(part, _FixedDraws([0.0, np.log(8.0)]), beta=1.0, rng=None)
    np.testing.assert_allclose(out.masses, [2 / 3, 1 / 3], atol=1e-12)


def test_multiplicative_drops_underflowed_masses():
    # e^{-800} underflows to exactly 0 and must not reach the partition
    out = evolve_multiplicative(MassPartition([0.6, 0.4]), _FixedDraws([0.0, -800.0]),
                                beta=1.0, rng=None)
    assert len(out) == 1
    assert np.all(out.masses > 0)
    assert out.masses.sum() + out.tail_mass == 1.0


def test_multiplicative_mass_conservation():
    rng = np.random.default_rng(3)
    law = IncrementLaw(0.0, 1.5)
    part = MassPartition(np.full(10, 0.09), tail_mass=0.1)
    for _ in range(20):
        part = evolve_multiplicative(part, law, beta=1.0, rng=rng)
        assert abs(part.masses.sum() + part.tail_mass - 1.0) <= 1e-10


def test_additive_multiplicative_commutation():
    # coupled draws: masses of the evolved configuration equal the reshuffled masses
    cfg = sample_pp_exponential(0.5, 60, np.random.default_rng(8), beta=1.0)
    law = IncrementLaw(0.1, 0.9)
    evolved_cfg = evolve_additive(cfg, law, np.random.default_rng(21))
    via_points = mass_partition_from_config(evolved_cfg)
    via_masses = evolve_multiplicative(
        mass_partition_from_config(cfg), law, beta=1.0, rng=np.random.default_rng(21)
    )
    np.testing.assert_allclose(via_points.masses, via_masses.masses, atol=1e-10)
    assert via_points.tail_mass == pytest.approx(via_masses.tail_mass, abs=1e-10)


def test_shift_tail_normalizes_weights():
    cfg = PointConfiguration([0.0, 0.0])
    out = shift_tail(cfg)
    np.testing.assert_allclose(out.points, [-np.log(2), -np.log(2)])
    rng = np.random.default_rng(17)
    cfg = sample_pp_exponential(0.5, 100, rng, beta=1.0)
    out = shift_tail(cfg)
    total = np.exp(out.beta * out.points).sum() + out.tail_weight_estimate
    assert abs(total - 1.0) <= 1e-10
    np.testing.assert_allclose(np.diff(out.points), np.diff(cfg.points), atol=1e-12)
    twice = shift_tail(out)
    np.testing.assert_allclose(twice.points, out.points, atol=1e-12)


def test_shift_tail_matches_mass_normalization_at_beta_one():
    cfg = sample_pp_exponential(0.5, 50, np.random.default_rng(29), beta=1.0)
    via_shift = shift_tail(cfg)
    via_masses = np.log(mass_partition_from_config(cfg).masses)
    np.testing.assert_allclose(via_shift.points, via_masses, atol=1e-12)


def test_pp_gap_law_invariant_under_evolution():
    # quasi-stationarity of PP(rho e^{-rho y}): evolved gap law equals initial gap law
    from quasistat.stattest import invariance_verdict

    law = IncrementLaw(0.0, 1.0)
    n_rep, k = 500, 5
    before = np.empty((n_rep, k))
    after = np.empty((n_rep, k))
    rng = np.random.default_rng(55)
    for r in range(n_rep):
        before[r] = -np.diff(sample_pp_exponential(1.0, k + 1, rng).points)
        cfg = sample_pp_exponential(1.0, 3000, rng)
        after[r] = -np.diff(evolve_additive(cfg, law, rng).points[: k + 1])
    report = invariance_verdict(before, after, level=0.01, n_perm=199,
                                rng=np.random.default_rng(56))
    assert report.verdict == "consistent"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 2.0))
def test_reshuffle_output_is_valid_partition(seed, sigma):
    rng = np.random.default_rng(seed)
    masses = np.sort(rng.dirichlet(np.ones(8) * 0.5) * 0.9)[::-1]
    masses = masses[masses > 0]
    part = MassPartition(masses, tail_mass=1.0 - masses.sum())
    out = evolve_multiplicative(part, IncrementLaw(0.0, sigma), beta=1.0, rng=rng)
    assert np.all(np.diff(out.masses) <= 0)
    assert abs(out.masses.sum() + out.tail_mass - 1.0) <= 1e-10


def test_multiplicative_zero_tail_stays_zero():
    # E[W] = e^{800} overflows, but a zero tail has nothing to advance
    law = _FixedDraws([0.0, 0.0])
    law.log_mgf = lambda lam: 800.0
    out = evolve_multiplicative(MassPartition([0.6, 0.4]), law, beta=1.0, rng=None)
    assert out.tail_mass == 0.0
    assert out.masses.tolist() == [0.6, 0.4]
    with pytest.raises(FloatingPointError, match="overflows"):
        evolve_multiplicative(MassPartition([0.6, 0.3], tail_mass=0.1), law, beta=1.0, rng=None)


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
    "mixture-of-pd": (experiments.PoissonKingman((0.3, 0.7), 40, mixture=True),
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
        points = sample_pp_exponential(rho, n, rng, beta=rho).points
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
