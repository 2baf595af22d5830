import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat.dynamics import (
    IncrementLaw,
    evolve_additive,
    evolve_multiplicative,
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
