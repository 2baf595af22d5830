import numpy as np
import pytest
from scipy.stats import ks_2samp

from quasistat.stattest import (
    energy_distance_perm_test,
    invariance_verdict,
    ks_two_sample,
    marginal_law_test,
)


def test_ks_identical_samples():
    d, p = ks_two_sample([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert d == 0.0 and p == 1.0


def test_ks_disjoint_supports():
    d, _ = ks_two_sample([0.0, 0.0], [1.0, 1.0])
    assert d == 1.0


def test_ks_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=60), rng.normal(1.0, 1.0, size=45)
    dxy, pxy = ks_two_sample(x, y)
    dyx, pyx = ks_two_sample(y, x)
    assert dxy == dyx and pxy == pyx
    assert 0.0 <= dxy <= 1.0 and 0.0 <= pxy <= 1.0


def test_ks_empty_input_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_matches_scipy_kolmogorov_series():
    from scipy.stats import kstwobign

    rng = np.random.default_rng(1)
    x, y = rng.normal(size=600), rng.normal(0.1, 1.0, size=500)
    d, p = ks_two_sample(x, y)
    assert d == pytest.approx(ks_2samp(x, y).statistic, abs=1e-12)
    en = 600 * 500 / 1100
    assert p == pytest.approx(kstwobign.sf(np.sqrt(en) * d), rel=1e-9)


@pytest.mark.parametrize("n", [10_000, 2_500])
def test_ks_p_value_near_one_at_small_t(n):
    # midpoint quantiles of U(0, 1): D = 1/(2n), so t = sqrt(n) D is 0.005 and 0.01
    d, p = marginal_law_test((np.arange(n) + 0.5) / n, lambda x: x)
    assert d == pytest.approx(0.5 / n)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_ks_null_calibration():
    rng = np.random.default_rng(2)
    pvals = [ks_two_sample(rng.normal(size=500), rng.normal(size=500))[1] for _ in range(300)]
    frac = np.mean(np.asarray(pvals) < 0.05)
    assert 0.02 <= frac <= 0.09


def test_marginal_law_median_point_mass():
    from scipy.stats import norm

    d, _ = marginal_law_test(np.zeros(100), norm.cdf)
    assert d == pytest.approx(0.5)


def test_marginal_law_null_calibration():
    rng = np.random.default_rng(3)
    pvals = [
        marginal_law_test(rng.uniform(size=500), lambda x: np.clip(x, 0, 1))[1]
        for _ in range(300)
    ]
    frac = np.mean(np.asarray(pvals) < 0.05)
    assert 0.02 <= frac <= 0.09


def test_energy_identical_matrices():
    x = np.arange(20.0).reshape(10, 2)
    p, stat = energy_distance_perm_test(x, x.copy(), n_perm=199,
                                        rng=np.random.default_rng(4), return_stat=True)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p > 0.5


def test_energy_maximal_separation():
    x = np.zeros((30, 2))
    y = np.full((30, 2), 5.0)
    p = energy_distance_perm_test(x, y, n_perm=499, rng=np.random.default_rng(5))
    assert p == pytest.approx(1.0 / 500.0)


def test_energy_input_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        energy_distance_perm_test(np.zeros((5, 2)), np.zeros((5, 3)), rng=rng)
    with pytest.raises(ValueError):
        energy_distance_perm_test(np.zeros((5, 2)), np.zeros((5, 2)), n_perm=99, rng=rng)


def test_energy_deterministic_given_seed():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(50, 3)), rng.normal(size=(60, 3))
    p1 = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(8))
    p2 = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(8))
    assert p1 == p2
    assert 1.0 / 200.0 <= p1 <= 1.0


def test_energy_statistic_exact_above_2048_rows():
    rng = np.random.default_rng(17)
    x, y = rng.normal(size=(1100, 4)), rng.normal(0.3, 1.0, size=(1000, 4))

    def mean_dist(a, b):
        return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)).mean()

    reference = 2.0 * mean_dist(x, y) - mean_dist(x, x) - mean_dist(y, y)
    _, stat = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(18),
                                        return_stat=True)
    assert stat == pytest.approx(reference, rel=1e-10)


def test_energy_detects_mean_shift():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 3))
    y = rng.normal(1.0, 1.0, size=(300, 3))
    p = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(10))
    assert p == pytest.approx(1.0 / 200.0)


def test_verdict_identical_ensembles_consistent():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 4))
    report = invariance_verdict(x, x.copy(), level=0.01, n_perm=199,
                                rng=np.random.default_rng(12))
    assert report.verdict == "consistent"
    assert all(0.0 <= p <= 1.0 for _, p in report.per_coordinate_ks)
    assert report.metadata["k"] == 4


def test_verdict_shifted_ensembles_rejected():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(500, 3))
    y = rng.normal(0.6, 1.0, size=(500, 3))
    report = invariance_verdict(x, y, level=0.01, n_perm=199, rng=np.random.default_rng(14))
    assert report.verdict == "rejected"
    assert report.min_ks_p < 0.01 / 3 or report.energy_p < 0.01


def test_verdict_rule_matches_definition():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(300, 2))
    y = rng.normal(size=(300, 2))
    report = invariance_verdict(x, y, level=0.05, n_perm=199, rng=np.random.default_rng(16))
    rejected = report.min_ks_p < 0.05 / 2 or report.energy_p < 0.05
    assert (report.verdict == "rejected") == rejected
