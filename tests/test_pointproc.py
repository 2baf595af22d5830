import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import experiments
from quasistat.pointproc import (
    ArrivalTimes,
    MassPartition,
    PointConfiguration,
    atoms_from_arrivals,
    config_from_mass_partition,
    expected_atom_tail,
    mass_partition_from_config,
    normalize_to_mass_partition,
    points_from_arrivals,
    sample_gamma_arrivals,
    sample_pd_poisson_kingman,
    sample_pd_stickbreaking,
    sample_pk_powerlaw,
    sample_pp_exponential,
)
from quasistat.stattest import energy_distance_perm_test, marginal_law_test


class _FixedExponentials:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def exponential(self, size):
        assert size == self.values.size
        return self.values.copy()


def test_arrivals_are_cumulative_sums():
    arr = sample_gamma_arrivals(3, _FixedExponentials([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(arr.gammas, [1.0, 2.0, 3.0])


def test_single_arrival_is_the_draw():
    arr = sample_gamma_arrivals(1, _FixedExponentials([np.e]))
    np.testing.assert_allclose(arr.gammas, [np.e])


def test_arrival_means_match_indices():
    # law of large numbers: E[Gamma_k] = k, Var = k
    rng = np.random.default_rng(11)
    g = rng.exponential(size=(10_000, 5)).cumsum(axis=1)
    for k in range(1, 6):
        se = np.sqrt(k / 10_000)
        assert abs(g[:, k - 1].mean() - k) < 3 * se


def test_pp_exponential_transform():
    cfg = points_from_arrivals(ArrivalTimes([1.0, 2.0, 3.0]), rho=1.0)
    np.testing.assert_allclose(cfg.points, [0.0, -np.log(2), -np.log(3)])
    assert cfg.beta == 1.0


def test_pp_exponential_count_is_poisson():
    # #{X_i >= y} ~ Poisson(e^{-rho y}); chi-square GOF at three levels
    from scipy.stats import chisquare, poisson

    rng = np.random.default_rng(5)
    n_rep = 3000
    counts = np.empty((n_rep, 3), dtype=int)
    levels = np.array([0.0, 0.5, 1.0])
    for r in range(n_rep):
        pts = sample_pp_exponential(1.0, 40, rng).points
        counts[r] = (pts[None, :] >= levels[:, None]).sum(axis=1)
    for j, y in enumerate(levels):
        lam = np.exp(-y)
        kmax = 6
        obs = np.bincount(np.minimum(counts[:, j], kmax), minlength=kmax + 1)
        exp_p = poisson.pmf(np.arange(kmax), lam)
        exp = np.append(exp_p, 1.0 - exp_p.sum()) * n_rep
        _, p = chisquare(obs, exp)
        assert p > 1e-3


def test_pp_exponential_gaps_are_exponential():
    # beta-ratio property: X_i - X_{i+1} ~ Exp(i * rho)
    rng = np.random.default_rng(7)
    gaps = experiments.top_gaps(itertools.repeat(rng, 1500), 1.0, 4, 3)
    for i in (1, 2, 3):
        _, p = marginal_law_test(gaps[:, i - 1], lambda x, i=i: 1.0 - np.exp(-i * x))
        assert p > 1e-3


def test_pk_powerlaw_transform():
    np.testing.assert_allclose(
        atoms_from_arrivals(ArrivalTimes([1.0, 2.0]), alpha=0.5), [1.0, 0.25]
    )
    np.testing.assert_allclose(
        atoms_from_arrivals(ArrivalTimes([1.0, 8.0]), alpha=1 / 3), [1.0, 0.001953125]
    )


def test_pk_powerlaw_rejects_bad_alpha():
    rng = np.random.default_rng(0)
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            sample_pk_powerlaw(alpha, 5, rng)


def test_pk_atom_count_is_poisson():
    # #{eta_i >= s} ~ Poisson(s^{-alpha})
    from scipy.stats import chisquare, poisson

    rng = np.random.default_rng(13)
    alpha = 0.5
    n_rep = 3000
    counts = np.empty(n_rep, dtype=int)
    for r in range(n_rep):
        atoms = sample_pk_powerlaw(alpha, 40, rng)
        counts[r] = int((atoms >= 1.0).sum())
    kmax = 6
    obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    exp_p = poisson.pmf(np.arange(kmax), 1.0)
    exp = np.append(exp_p, 1.0 - exp_p.sum()) * n_rep
    _, p = chisquare(obs, exp)
    assert p > 1e-3


def test_normalization_arithmetic():
    atoms = np.array([1.0, 0.25])
    # zero-tail normalization is plain division
    np.testing.assert_allclose(atoms / atoms.sum(), [0.8, 0.2])
    assert expected_atom_tail(0.5, 100.0) == pytest.approx(0.01)
    part = normalize_to_mass_partition(atoms, 0.5, 100.0)
    np.testing.assert_allclose(part.masses, atoms / 1.26)
    assert part.tail_mass == pytest.approx(0.01 / 1.26)


def test_pk_matches_stickbreaking_oracle():
    rng = np.random.default_rng(23)
    n = 700
    pk = np.array([sample_pd_poisson_kingman(0.5, 500, rng).masses[:5] for _ in range(n)])
    sb = np.array([sample_pd_stickbreaking(0.5, 5, rng).masses for _ in range(n)])
    p = energy_distance_perm_test(pk, sb, n_perm=199, rng=np.random.default_rng(1))
    assert p >= 0.01


def test_stickbreaking_degenerate_first_stick():
    class _OneBeta:
        def beta(self, a, b):
            return np.ones(np.broadcast(a, b).shape)

    part = sample_pd_stickbreaking(0.5, 1, _OneBeta())
    np.testing.assert_allclose(part.masses, [1.0])
    assert part.tail_mass == 0.0


def test_sum_of_squared_masses_identity():
    # E[sum xi_i^2] = 1 - alpha for PD(alpha, 0), for both samplers
    from quasistat.analysis import sum_squares

    rng = np.random.default_rng(31)
    for sampler in (
        lambda: sample_pd_poisson_kingman(0.4, 400, rng),
        lambda: sample_pd_stickbreaking(0.4, 40, rng),
    ):
        vals = np.array([sum_squares(sampler()) for _ in range(800)])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 0.6) < 4 * se


def test_mass_partition_from_config_examples():
    part = mass_partition_from_config(PointConfiguration([0.0, -np.log(2)], beta=1.0))
    np.testing.assert_allclose(part.masses, [2 / 3, 1 / 3])
    for a in (-3.0, 0.0, 40.0):
        part = mass_partition_from_config(PointConfiguration([a, a], beta=1.0))
        np.testing.assert_allclose(part.masses, [0.5, 0.5])


def test_pp_to_masses_matches_pd_oracle():
    # exp of PP(rho) normalized at beta=1 is PD(rho, 0) for rho < 1
    rng = np.random.default_rng(37)
    n = 600
    via_pp = np.array(
        [
            mass_partition_from_config(sample_pp_exponential(0.5, 500, rng, beta=1.0)).masses[:5]
            for _ in range(n)
        ]
    )
    sb = np.array([sample_pd_stickbreaking(0.5, 5, rng).masses for _ in range(n)])
    p = energy_distance_perm_test(via_pp, sb, n_perm=199, rng=np.random.default_rng(2))
    assert p >= 0.01


def test_config_from_mass_partition_examples():
    cfg = config_from_mass_partition(MassPartition([0.5, 0.5]))
    np.testing.assert_allclose(cfg.points, [-np.log(2), -np.log(2)])
    cfg = config_from_mass_partition(MassPartition([0.8, 0.2]))
    np.testing.assert_allclose(cfg.points, [np.log(0.8), np.log(0.2)])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
def test_mass_partition_round_trip(raw):
    masses = np.sort(np.asarray(raw))[::-1]
    masses = masses / masses.sum()
    part = MassPartition(masses, tail_mass=max(0.0, 1.0 - masses.sum()))
    back = mass_partition_from_config(config_from_mass_partition(part))
    np.testing.assert_allclose(back.masses, part.masses, atol=1e-12)
    assert abs(back.tail_mass - part.tail_mass) < 1e-12


def test_exact_top_n_prefix_property():
    # budget m and budget n < m agree pathwise under a shared stream
    big = sample_pp_exponential(1.0, 50, np.random.default_rng(99))
    small = sample_pp_exponential(1.0, 10, np.random.default_rng(99))
    np.testing.assert_array_equal(big.points[:10], small.points)
    big_atoms = sample_pk_powerlaw(0.5, 50, np.random.default_rng(99))
    small_atoms = sample_pk_powerlaw(0.5, 10, np.random.default_rng(99))
    np.testing.assert_array_equal(big_atoms[:10], small_atoms)


def test_sampler_outputs_satisfy_mass_invariant():
    rng = np.random.default_rng(41)
    for _ in range(20):
        part = sample_pd_poisson_kingman(0.7, 200, rng)
        assert abs(part.masses.sum() + part.tail_mass - 1.0) <= 1e-12
        part = sample_pd_stickbreaking(0.3, 20, rng)
        assert abs(part.masses.sum() + part.tail_mass - 1.0) <= 1e-12


def test_type_validation():
    with pytest.raises(ValueError):
        PointConfiguration([0.0, 1.0])  # increasing
    with pytest.raises(ValueError):
        PointConfiguration([np.inf, 0.0])
    with pytest.raises(ValueError):
        MassPartition([0.5, 0.0], tail_mass=0.5)  # zero mass entry
    with pytest.raises(ValueError):
        MassPartition([0.5, 0.3], tail_mass=0.0)  # mass deficit
    with pytest.raises(ValueError):
        ArrivalTimes([2.0, 1.0])
    with pytest.raises(ValueError):
        normalize_to_mass_partition(np.array([]), 0.5, 1.0)
    with pytest.raises(ValueError):
        sample_gamma_arrivals(0, np.random.default_rng(0))
