import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat.dynamics import (
    IncrementLaw,
    evolve_additive,
    evolve_multiplicative,
    run_trajectory,
    shift_leader,
    shift_tail,
)
from quasistat.pointproc import (
    MassPartition,
    PointConfiguration,
    mass_partition_from_config,
    config_from_mass_partition,
    sample_pp_exponential,
)


class _FixedDraws:
    """Stands in for an IncrementLaw with scripted increments."""

    kind = "scripted"

    def __init__(self, draws, mean_weight=1.0):
        self.draws = np.asarray(draws, dtype=float)
        self.mean_weight = mean_weight

    def sample(self, size, rng):
        assert size == self.draws.size
        return self.draws.copy()

    def log_mgf(self, lam):
        return np.log(self.mean_weight)


def test_increment_law_validation():
    with pytest.raises(ValueError):
        IncrementLaw.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        IncrementLaw.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        IncrementLaw("cauchy", ()).sample(3, np.random.default_rng(0))


def test_log_mgf_values():
    assert IncrementLaw.gaussian(0, 1).log_mgf(1.0) == pytest.approx(0.5)
    assert IncrementLaw.gaussian(2, 3).log_mgf(0.0) == 0.0
    assert IncrementLaw.uniform(0, 1).log_mgf(1.0) == pytest.approx(np.log(np.e - 1))
    assert IncrementLaw.uniform(-2, 5).log_mgf(-1.5) == pytest.approx(
        np.log((np.exp(3.0) - np.exp(-7.5)) / (1.5 * 7.0))
    )
    assert IncrementLaw.constant(2.0).log_mgf(3.0) == pytest.approx(6.0)


@pytest.mark.parametrize("law,reference", [
    (IncrementLaw.gaussian(0.5, 2.0), lambda rng: rng.normal(1.5, 2.0 * np.sqrt(3), size=7)),
    (IncrementLaw.uniform(-1, 2), lambda rng: rng.uniform(-1, 2, size=(3, 7)).sum(axis=0)),
    (IncrementLaw.constant(0.25), lambda rng: np.full(7, 0.75)),
])
def test_sample_sum_draws(law, reference):
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(law.sample_sum(3, 7, rng), reference(ref_rng))
    # both generators end in the same state: nothing extra was drawn
    assert rng.random() == ref_rng.random()


def test_lognormal_weight_is_gaussian_increment():
    law = IncrementLaw.lognormal_weight(0.3, 1.2, beta=2.0)
    assert law.kind == "gaussian"
    assert law.params == (0.15, 0.6)


def test_additive_common_shift_preserves_gaps():
    cfg = PointConfiguration([1.0, 0.0])
    out = evolve_additive(cfg, IncrementLaw.constant(2.5), None)
    np.testing.assert_allclose(out.points, [3.5, 2.5])
    np.testing.assert_allclose(np.diff(out.points), np.diff(cfg.points))


def test_additive_resorts_after_order_swap():
    cfg = PointConfiguration([0.0, -3.0])
    out = evolve_additive(cfg, _FixedDraws([-2.0, 0.0]), None)
    np.testing.assert_allclose(out.points, [-2.0, -3.0])


def test_additive_rejects_non_finite_draws():
    cfg = PointConfiguration([0.0, -1.0])
    with pytest.raises(ValueError):
        evolve_additive(cfg, _FixedDraws([np.nan, 0.0]), None)


def test_multiplicative_constant_weight_is_identity():
    part = MassPartition([0.5, 0.3, 0.2])
    out = evolve_multiplicative(part, IncrementLaw.constant(0.7), beta=1.3, rng=None)
    np.testing.assert_allclose(out.masses, part.masses, atol=1e-12)
    assert out.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_multiplicative_reweights_and_reorders():
    part = MassPartition([0.8, 0.2])
    out = evolve_multiplicative(part, _FixedDraws([0.0, np.log(8.0)]), beta=1.0, rng=None)
    np.testing.assert_allclose(out.masses, [2 / 3, 1 / 3], atol=1e-12)


def test_multiplicative_mass_conservation():
    rng = np.random.default_rng(3)
    law = IncrementLaw.gaussian(0.0, 1.5)
    part = MassPartition(np.full(10, 0.09), tail_mass=0.1)
    for _ in range(20):
        part = evolve_multiplicative(part, law, beta=1.0, rng=rng)
        assert abs(part.masses.sum() + part.tail_mass - 1.0) <= 1e-10


def test_additive_multiplicative_commutation():
    # coupled draws: masses of the evolved configuration equal the reshuffled masses
    cfg = sample_pp_exponential(0.5, 60, np.random.default_rng(8), beta=1.0)
    law = IncrementLaw.gaussian(0.1, 0.9)
    evolved_cfg = evolve_additive(cfg, law, np.random.default_rng(21))
    via_points = mass_partition_from_config(evolved_cfg)
    via_masses = evolve_multiplicative(
        mass_partition_from_config(cfg), law, beta=1.0, rng=np.random.default_rng(21)
    )
    np.testing.assert_allclose(via_points.masses, via_masses.masses, atol=1e-10)
    assert via_points.tail_mass == pytest.approx(via_masses.tail_mass, abs=1e-10)


def test_shift_leader():
    cfg = PointConfiguration([3.0, 1.0, 0.0])
    out = shift_leader(cfg)
    np.testing.assert_allclose(out.points, [0.0, -2.0, -3.0])
    np.testing.assert_allclose(np.diff(out.points), np.diff(cfg.points))
    again = shift_leader(out)
    np.testing.assert_allclose(again.points, out.points)


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
    via_masses = config_from_mass_partition(mass_partition_from_config(cfg))
    np.testing.assert_allclose(via_shift.points, via_masses.points, atol=1e-12)


def test_trajectory_basics():
    cfg = PointConfiguration([1.0, 0.0])
    traj = run_trajectory(cfg, IncrementLaw.constant(0.0), tau=0)
    assert traj.tau == 0 and traj.snapshots == [cfg]
    traj = run_trajectory(cfg, IncrementLaw.constant(0.0), tau=4, shift_policy="none")
    assert traj.tau == 4
    for snap in traj.snapshots:
        np.testing.assert_allclose(snap.points, cfg.points)
    with pytest.raises(ValueError):
        run_trajectory(cfg, IncrementLaw.constant(0.0), tau=-1)
    with pytest.raises(ValueError):
        run_trajectory(cfg, IncrementLaw.constant(0.0), tau=1, shift_policy="sideways")
    part = MassPartition([1.0])
    with pytest.raises(ValueError):
        run_trajectory(part, IncrementLaw.constant(0.0), tau=1, shift_policy="leader")


def test_trajectory_shift_policies_keep_invariants():
    rng = np.random.default_rng(31)
    cfg = sample_pp_exponential(0.5, 40, rng, beta=1.0)
    law = IncrementLaw.gaussian(0.0, 1.0)
    traj = run_trajectory(cfg, law, tau=3, shift_policy="leader", rng=rng)
    for snap in traj.snapshots[1:]:
        assert snap.points[0] == pytest.approx(0.0)
    traj = run_trajectory(cfg, law, tau=3, shift_policy="tail", rng=rng)
    for snap in traj.snapshots[1:]:
        total = np.exp(snap.points).sum() + snap.tail_weight_estimate
        assert abs(total - 1.0) <= 1e-10


def test_pp_gap_law_invariant_under_evolution():
    # quasi-stationarity of PP(rho e^{-rho y}): evolved gap law equals initial gap law
    from quasistat.analysis import gap_vector
    from quasistat.stattest import invariance_verdict

    law = IncrementLaw.gaussian(0.0, 1.0)
    n_rep, k = 500, 5
    before = np.empty((n_rep, k))
    after = np.empty((n_rep, k))
    rng = np.random.default_rng(55)
    for r in range(n_rep):
        before[r] = gap_vector(sample_pp_exponential(1.0, k + 1, rng), k)
        cfg = sample_pp_exponential(1.0, 3000, rng)
        after[r] = gap_vector(evolve_additive(cfg, law, rng), k)
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
    out = evolve_multiplicative(part, IncrementLaw.gaussian(0.0, sigma), beta=1.0, rng=rng)
    assert np.all(np.diff(out.masses) <= 0)
    assert abs(out.masses.sum() + out.tail_mass - 1.0) <= 1e-10
