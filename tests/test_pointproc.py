import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import experiments
from quasistat.pointproc import (
    check_partition_rows,
    check_point_rows,
    mass_partition_rows,
    pp_exponential_rows,
    sample_pd_stickbreaking,
)
from quasistat.stattest import energy_distance_perm_test

from helpers import marginal_law_test, poisson_kingman_rows, sample_gamma_arrivals


class _FixedExponentials:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def exponential(self, size):
        assert size == self.values.size
        return self.values.copy()


def test_arrivals_are_cumulative_sums():
    arr = sample_gamma_arrivals(3, _FixedExponentials([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(arr, [1.0, 2.0, 3.0])


def test_single_arrival_is_the_draw():
    arr = sample_gamma_arrivals(1, _FixedExponentials([np.e]))
    np.testing.assert_allclose(arr, [np.e])


def test_arrival_means_match_indices():
    # law of large numbers: E[Gamma_k] = k, Var = k
    rng = np.random.default_rng(11)
    g = rng.exponential(size=(10_000, 5)).cumsum(axis=1)
    for k in range(1, 6):
        se = np.sqrt(k / 10_000)
        assert abs(g[:, k - 1].mean() - k) < 3 * se


def _pk_rows(alpha, arrivals):
    return poisson_kingman_rows(np.array([alpha]), np.array([arrivals], dtype=float))


def _pd_rows(alpha, n, replicas, rng):
    """PD(alpha, 0) masses and tails of ``replicas`` rows, as ``experiments`` draws them."""
    alphas = np.full(replicas, alpha)
    draws = rng.exponential(size=(replicas, n))
    return mass_partition_rows(*experiments.PoissonKingman((alpha,), n).starts(draws, alphas))[:2]


def test_pp_exponential_transform():
    # Gamma = [1, 2, 3]
    points, _ = pp_exponential_rows(1.0, np.array([[1.0, 2.0, 3.0]]), beta=2.0)
    np.testing.assert_allclose(points, [[0.0, -np.log(2), -np.log(3)]])
    # beta <= rho: sum e^{beta X_i} diverges, so there is no tail to record
    with pytest.raises(ValueError, match="diverges unless beta > rho"):
        pp_exponential_rows(1.0, np.array([[1.0, 2.0, 3.0]]))
    # beta = 2 rho: E[sum_{i>3} e^{2 X_i} | Gamma_3] = 1 / Gamma_3, relative to e^{2 X_1} = 1
    _, tails = pp_exponential_rows(1.0, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]]), beta=2.0)
    np.testing.assert_allclose(tails, [1.0 / 3.0, 1.0 / 4.0])


def test_pp_exponential_count_is_poisson():
    # #{X_i >= y} ~ Poisson(e^{-rho y}); chi-square GOF at three levels
    from scipy.stats import chisquare, poisson

    rng = np.random.default_rng(5)
    n_rep = 3000
    levels = np.array([0.0, 0.5, 1.0])
    points, _ = pp_exponential_rows(1.0, rng.exponential(size=(n_rep, 40)).cumsum(axis=1),
                                    beta=2.0)
    counts = (points[:, None, :] >= levels[:, None]).sum(axis=2)
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
    with pytest.raises(ValueError, match="4 are needed"):
        experiments.top_gaps(itertools.repeat(rng, 2), 1.0, 3, 3)


def test_pk_powerlaw_transform():
    # masses are proportional to the atoms Gamma_i^{-1/alpha}
    masses, _ = _pk_rows(0.5, [1.0, 2.0])
    assert masses[0, 1] / masses[0, 0] == pytest.approx(0.25)
    masses, _ = _pk_rows(1 / 3, [1.0, 8.0])
    assert masses[0, 1] / masses[0, 0] == pytest.approx(0.001953125)


def test_pk_drops_underflowed_masses_and_refuses_overflowed_atoms():
    # Gamma = [1e-4, 1.0001, 1001.0001]: at alpha = 0.02 the masses are about
    # [1, 1e-200, 1e-350], and the last underflows to 0
    masses, _ = _pk_rows(0.02, np.cumsum([1e-4, 1.0, 1000.0]))
    assert np.all(masses[0, :2] > 0) and masses[0, 2] == 0.0
    # (1e-7)^{-50} = 1e350 overflows
    with pytest.raises(OverflowError, match="leaves float64 range"):
        _pk_rows(0.02, np.cumsum([1e-7, 1.0]))


def test_pp_tail_is_relative_to_the_leading_weight():
    # Gamma_n^{1-r} Gamma_1^r / (r - 1), r = beta/rho, on the log scale; at r = 300 the
    # power Gamma_n^{1-r} overflows in the first row and underflows in the last
    arrivals = np.array([[0.002, 0.005, 0.01], [1.0, 2.0, 3.0], [600.0, 800.0, 1000.0]])
    logs = np.log(arrivals)
    for rho in (1e-3, 0.01, 0.1, 0.5):
        for r in (1.001, 2.0, 300.0):
            _, tails = pp_exponential_rows(rho, arrivals, beta=r * rho)
            expected = np.exp((1.0 - r) * logs[:, -1] + r * logs[:, 0] - np.log(r - 1.0))
            np.testing.assert_allclose(tails, expected, rtol=1e-12, atol=0)


def test_pk_powerlaw_rejects_bad_alpha():
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            _pk_rows(alpha, np.arange(1.0, 6.0))


def test_pk_atom_count_is_poisson():
    # #{eta_i >= 1} = #{Gamma_i <= 1} ~ Poisson(1) for the atoms eta_i = Gamma_i^{-1/alpha}
    from scipy.stats import chisquare, poisson

    rng = np.random.default_rng(13)
    n_rep = 3000
    counts = np.empty(n_rep, dtype=int)
    for r in range(n_rep):
        counts[r] = int((sample_gamma_arrivals(40, rng) <= 1.0).sum())
    kmax = 6
    obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    exp_p = poisson.pmf(np.arange(kmax), 1.0)
    exp = np.append(exp_p, 1.0 - exp_p.sum()) * n_rep
    _, p = chisquare(obs, exp)
    assert p > 1e-3


def test_normalization_arithmetic():
    # draws [1, 99] give Gamma = [1, 100], weights e^{X_i} = Gamma^{-2} = [1, 1e-4] and
    # tail estimate Gamma_2^{1 - 1/alpha} / (1/alpha - 1) = 0.01 at alpha = 1/2
    start = experiments.PoissonKingman((0.5,), 2).starts(np.array([[1.0, 99.0]]), np.array([0.5]))
    masses, tails = mass_partition_rows(*start)[:2]
    np.testing.assert_allclose(masses, [np.array([1.0, 1e-4]) / 1.0101])
    assert tails[0] == pytest.approx(0.01 / 1.0101)


@pytest.mark.parametrize("alphas", [(0.05,), (0.5,), (0.95,), (0.3, 0.7)])
def test_pd_starts_match_the_power_reference(alphas):
    # e^{X_i} of X_i = -log(Gamma_i)/alpha, normalized, are the atoms Gamma_i^{-1/alpha}
    # normalized, and the tail estimates agree (the mapping theorem)
    draws = np.random.default_rng(43).exponential(size=(100, 500))
    params = np.resize(alphas, 100)  # one chunk; (0.3, 0.7) alternate row by row
    expected = poisson_kingman_rows(params, draws.cumsum(axis=1))
    starts = mass_partition_rows(*experiments.PoissonKingman(alphas, 500).starts(draws, params))[:2]
    for got, want in zip(starts, expected):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_pk_matches_stickbreaking_oracle():
    # the PoissonKingman starts, as experiments draws them, against stick-breaking
    rng = np.random.default_rng(23)
    n = 700
    pk = _pd_rows(0.5, 500, n, rng)[0][:, :5]
    sb = np.array([sample_pd_stickbreaking(0.5, 5, rng)[0] for _ in range(n)])
    p = energy_distance_perm_test(pk, sb, n_perm=199, rng=np.random.default_rng(1))
    assert p >= 0.01


def test_stickbreaking_degenerate_first_stick():
    class _OneBeta:
        def beta(self, a, b):
            return np.ones(np.broadcast(a, b).shape)

    masses, tail = sample_pd_stickbreaking(0.5, 1, _OneBeta())
    np.testing.assert_allclose(masses, [1.0])
    assert tail == 0.0


def test_stickbreaking_cap_raises():
    # at alpha = 0.7 the remainder stays above the 50th product past the stick cap
    with pytest.raises(ValueError, match="not exact"):
        sample_pd_stickbreaking(0.7, 50, np.random.default_rng(0))


def test_stickbreaking_stops_when_the_remainder_underflows():
    # at alpha = 0.01 a V_i ~ Beta(0.99, 0.01 i) rounds to 1 within the first sticks,
    # which leaves the remainder, and every later stick, 0
    class _Counting:
        def __init__(self, rng):
            self.rng, self.drawn = rng, 0

        def beta(self, a, b):
            self.drawn += np.size(b)
            return self.rng.beta(a, b)

    rng = _Counting(np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"remainder underflowed to 0 after \d+ sticks, "
                                         r"with fewer than 50 positive masses"):
        sample_pd_stickbreaking(0.01, 50, rng)
    assert 0 < rng.drawn < 200_000


def test_sum_of_squared_masses_identity():
    # E[sum xi_i^2] = 1 - alpha for PD(alpha, 0), for both samplers
    rng = np.random.default_rng(31)
    parts = [sample_pd_stickbreaking(0.4, 40, rng) for _ in range(800)]
    for masses, tails in (_pd_rows(0.4, 400, 800, rng), map(np.array, zip(*parts))):
        vals = experiments.sum_squares_rows(masses, tails)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 0.6) < 4 * se


def test_mass_partition_from_config_examples():
    masses, tails, _ = mass_partition_rows(np.array([[0.0, -np.log(2)], [-3.0, -3.0], [0.0, 0.0],
                                                     [40.0, 40.0]]), np.zeros(4))
    np.testing.assert_allclose(masses, [[2 / 3, 1 / 3]] + [[0.5, 0.5]] * 3)
    assert tails.tolist() == [0.0] * 4
    # weights 4 and 1 with a tail estimate of 1, or 1/4 of the leading weight:
    # masses 4/6, 1/6 and tail 1/6
    masses, tails, _ = mass_partition_rows(np.array([[np.log(4), 0.0]]), np.array([0.25]))
    np.testing.assert_allclose(masses, [[4 / 6, 1 / 6]])
    np.testing.assert_allclose(tails, [1 / 6])


def test_pp_to_masses_matches_pd_oracle():
    # exp of PP(rho) normalized at beta=1 is PD(rho, 0) for rho < 1
    rng = np.random.default_rng(37)
    n = 600
    arrivals = rng.exponential(size=(n, 500)).cumsum(axis=1)
    via_pp = mass_partition_rows(*pp_exponential_rows(0.5, arrivals))[0][:, :5]
    sb = np.array([sample_pd_stickbreaking(0.5, 5, rng)[0] for _ in range(n)])
    p = energy_distance_perm_test(via_pp, sb, n_perm=199, rng=np.random.default_rng(2))
    assert p >= 0.01


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
def test_mass_partition_round_trip(raw):
    masses = np.sort(np.asarray(raw))[::-1]
    masses = masses / masses.sum()
    tail = max(0.0, 1.0 - masses.sum())
    check_partition_rows(masses[None], np.array([tail]))
    back, tails, _ = mass_partition_rows(np.log(masses)[None], np.array([tail / masses[0]]))
    np.testing.assert_allclose(back[0], masses, atol=1e-12)
    assert abs(tails[0] - tail) < 1e-12


def test_exact_top_n_prefix_property():
    # budget m and budget n < m agree pathwise under a shared stream
    big, _ = pp_exponential_rows(1.0, sample_gamma_arrivals(50, np.random.default_rng(99))[None],
                                 beta=2.0)
    small, _ = pp_exponential_rows(1.0, sample_gamma_arrivals(10, np.random.default_rng(99))[None],
                                   beta=2.0)
    np.testing.assert_array_equal(big[:, :10], small)


def test_sampler_outputs_satisfy_mass_invariant():
    rng = np.random.default_rng(41)
    masses, tails = _pd_rows(0.7, 200, 20, rng)
    assert np.all(np.abs(masses.sum(axis=1) + tails - 1.0) <= 1e-12)
    for _ in range(20):
        masses, tail = sample_pd_stickbreaking(0.3, 20, rng)
        assert abs(masses.sum() + tail - 1.0) <= 1e-12


def test_type_validation():
    for points, tail in (([0.0, 1.0], 0.0),  # increasing
                         ([np.inf, 0.0], 0.0), ([0.0, np.nan], 0.0),
                         ([0.0, -1.0], -1.0), ([0.0, -1.0], np.inf)):
        with pytest.raises(ValueError):
            check_point_rows(np.array([[0.0, -1.0], points]), np.array([0.0, tail]))
    with pytest.raises(ValueError):
        check_partition_rows(np.array([[0.5, 0.0]]), np.array([0.5]))  # zero mass entry
    with pytest.raises(ValueError):
        check_partition_rows(np.array([[0.5, 0.3]]), np.array([0.0]))  # mass deficit
    with pytest.raises(ValueError):
        sample_gamma_arrivals(0, np.random.default_rng(0))
