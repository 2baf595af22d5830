import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import ndtr
from scipy.stats import ks_2samp

from quasistat import experiments, stattest
from quasistat.dynamics import IncrementLaw
from quasistat.stattest import (
    energy_distance_perm_test,
    invariance_verdict,
    ks_two_sample,
)

from helpers import decorated_pp_gaps, gem_partition, marginal_law_test


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


# samples of random sizes, with ties (a coarse grid) and a scale from 1e-9 to 1e9
_SCALES = st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e9])
_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-1e3, 1e3))


def _sample(min_size=1, max_size=60):
    return st.lists(_VALUES, min_size=min_size, max_size=max_size).map(np.array)


@settings(max_examples=100, deadline=None)
@given(_sample(), _sample(), _SCALES)
def test_ks_bounded_and_symmetric_property(x, y, scale):
    d, p = ks_two_sample(x * scale, y * scale)
    assert 0.0 <= d <= 1.0 and 0.0 <= p <= 1.0
    assert ks_two_sample(y * scale, x * scale) == (d, p)


@settings(max_examples=100, deadline=None)
@given(_sample(), _SCALES)
def test_marginal_law_bounded_property(x, scale):
    d, p = marginal_law_test(x * scale, lambda v: ndtr(v / scale))
    assert 0.0 <= d <= 1.0 and 0.0 <= p <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), _SCALES, st.integers(0, 2**32 - 1))
def test_energy_p_value_property(data, k, scale, seed):
    rows = st.lists(st.lists(_VALUES, min_size=k, max_size=k), min_size=1, max_size=30)
    X, Y = (np.array(data.draw(rows)) * scale for _ in range(2))
    n_perm = 199
    p, observed, _ = energy_distance_perm_test(X, Y, n_perm=n_perm,
                                               rng=np.random.default_rng(seed), full_output=True)
    rank = p * (n_perm + 1)  # 1 + the permuted statistics at least the observed one
    assert rank == pytest.approx(round(rank), abs=1e-9) and 1 <= round(rank) <= n_perm + 1
    pooled = np.vstack([X, Y])
    assert observed >= -1e-12 * cdist(pooled, pooled).max()


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
    p, stat, _ = energy_distance_perm_test(x, x.copy(), n_perm=199,
                                           rng=np.random.default_rng(4), full_output=True)
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


def test_energy_refuses_distances_beyond_float64():
    # scaled by 2**500 every distance scales exactly, and so does every statistic: same p
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(30, 2)), rng.normal(0.5, 1.0, size=(25, 2))
    p = energy_distance_perm_test(x, y, rng=np.random.default_rng(12))
    assert energy_distance_perm_test(x * 2.0**500, y * 2.0**500,
                                     rng=np.random.default_rng(12)) == p
    # at 2**540 the squared distances overflow: cdist gives inf, the GEMM NaN, and as
    # NaN >= E is false the test would reject at p = 1 / (n_perm + 1)
    with pytest.raises(ValueError, match="leave float64 range"):
        energy_distance_perm_test(x * 2.0**540, y * 2.0**540, rng=np.random.default_rng(12))


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
    _, stat, _ = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(18),
                                           full_output=True)
    assert stat == pytest.approx(reference, rel=1e-10)


def _energy_full_matrix(X, Y, n_perm, rng):
    """The energy test on the whole pooled distance matrix: the reference for the tiles."""
    nx, ny = len(X), len(Y)
    pooled = np.vstack([X, Y])
    dist = cdist(pooled, pooled)
    z = np.zeros(nx + ny)
    z[:nx] = 1.0
    indicators = np.empty((nx + ny, n_perm + 1))
    indicators[:, 0] = z
    for j in range(1, n_perm + 1):
        indicators[:, j] = rng.permutation(z)
    v = dist @ indicators
    s_xx = np.einsum("ij,ij->j", indicators, v)
    s_xy = v.sum(axis=0) - s_xx
    s_yy = dist.sum() - s_xx - 2.0 * s_xy
    stats = 2.0 * s_xy / (nx * ny) - s_xx / (nx * nx) - s_yy / (ny * ny)
    p = (1.0 + np.count_nonzero(stats[1:] >= stats[0])) / (n_perm + 1.0)
    return p, float(stats[0])


@pytest.mark.parametrize("tile_elems", [None, 600, 1])
@pytest.mark.parametrize("nx,ny,k,n_perm,shift", [
    (61, 53, 3, 199, 0.0),  # at 600 elements: 22 tiles of 5 rows, then a ragged one of 4
    (40, 40, 1, 499, 0.3),
    (7, 90, 2, 199, 0.5),
    (600, 600, 5, 199, 0.0),  # at the module's 2**19 elements: tiles of 436, 436 and 328 rows
])
def test_energy_tiles_match_full_matrix(monkeypatch, tile_elems, nx, ny, k, n_perm, shift):
    # None keeps the module's tile: only the 600 + 600 rows take more than one
    if tile_elems is not None:
        monkeypatch.setattr(stattest, "_TILE_ELEMS", tile_elems)
    data = np.random.default_rng(19)
    x, y = data.normal(size=(nx, k)), data.normal(shift, 1.0, size=(ny, k))
    p, stat, evaluated = energy_distance_perm_test(x, y, n_perm=n_perm,
                                                   rng=np.random.default_rng(20), full_output=True)
    p_ref, stat_ref = _energy_full_matrix(x, y, n_perm, np.random.default_rng(20))
    assert p == p_ref and evaluated == n_perm
    assert stat == pytest.approx(stat_ref, rel=1e-10)


# first: the permutations of the first pass, 16 (G* + 1) with G* the exceedances
# that settle p >= level, or none where level (n_perm + 1) <= 1
@pytest.mark.parametrize("level,n_perm,first,outcomes", [
    (0.05, 199, 160, {"stopped", "rejected"}),
    (0.05, 499, 400, {"stopped", "rejected"}),
    (0.01, 199, 32, {"stopped", "all ran", "rejected"}),
    (0.01, 499, 80, {"stopped", "all ran", "rejected"}),
    (0.001, 199, 0, {"stopped"}),
    (0.001, 499, 0, {"stopped"}),
])
def test_sequential_energy_verdict_matches_full_test(level, n_perm, first, outcomes):
    data = np.random.default_rng(23)
    seen = set()
    for shift in (0.0, 0.3, 0.6):
        for seed in range(6):
            x, y = data.normal(size=(60, 3)), data.normal(shift, 1.0, size=(50, 3))
            p, stat, evaluated = energy_distance_perm_test(
                x, y, n_perm=n_perm, rng=np.random.default_rng(seed), level=level,
                full_output=True)
            p_ref, stat_ref = _energy_full_matrix(x, y, n_perm, np.random.default_rng(seed))
            assert (p < level) == (p_ref < level)
            assert stat == pytest.approx(stat_ref, rel=1e-12, abs=0)
            if evaluated == n_perm:
                assert p == p_ref
                seen.add("rejected" if p < level else "all ran")
            else:
                assert p >= level and evaluated == first
                seen.add("stopped")
    assert seen == outcomes


def test_sequential_energy_p_is_valid_under_the_null():
    # 50 + 50 rows, k = 3: P(p <= u) <= u for the stopped p as for the full one
    data = np.random.default_rng(24)
    trials = 400
    ps = np.array([energy_distance_perm_test(data.normal(size=(50, 3)), data.normal(size=(50, 3)),
                                             n_perm=199, rng=data, level=0.01)
                   for _ in range(trials)])
    for u in (0.01, 0.05, 0.1, 0.25, 0.5):
        assert np.mean(ps <= u) <= u + 3.0 * np.sqrt(u * (1.0 - u) / trials), u


def test_energy_memory_linear_in_rows():
    # 8000 pooled rows: the full distance matrix alone would be 512 MB
    data = np.random.default_rng(21)
    x, y = data.normal(size=(4000, 5)), data.normal(size=(4000, 5))
    tracemalloc.start()
    try:
        energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("level,bound_mib", [(0.01, 6), (None, 12)])
def test_energy_holds_one_small_tile(level, bound_mib):
    # 4000 pooled rows: one 4 MiB distance tile plus the (L + 1) x rows permutation block,
    # 33 rows for the sequential test's first pass and 200 for the full test, never a
    # second copy of that block
    data = np.random.default_rng(25)
    x, y = data.normal(size=(2000, 5)), data.normal(size=(2000, 5))
    tracemalloc.start()
    try:
        energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(26), level=level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20, f"peak {peak / 2**20:.2f} MiB"


def test_permutation_generator_is_required():
    x = np.zeros((10, 2))
    with pytest.raises(TypeError):
        energy_distance_perm_test(x, x)
    with pytest.raises(TypeError):
        invariance_verdict(x, x)


def test_energy_detects_mean_shift():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 3))
    y = rng.normal(1.0, 1.0, size=(300, 3))
    p = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(10))
    assert p == pytest.approx(1.0 / 200.0)


def test_one_dimensional_samples_are_one_coordinate():
    # a 1-d sample of m values is m observations, not one observation of m coordinates
    x = np.random.default_rng(17).normal(size=500)
    y = x + 5.0
    p = energy_distance_perm_test(x, y, n_perm=199, rng=np.random.default_rng(18))
    assert p == 1.0 / 200.0
    assert p == energy_distance_perm_test(x[:, None], y[:, None], n_perm=199,
                                          rng=np.random.default_rng(18))
    report = invariance_verdict(x, y, level=0.01, n_perm=199, rng=np.random.default_rng(18))
    assert report["verdict"] == "rejected" and len(report["ks"]) == 1


def test_verdict_identical_ensembles_consistent():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 4))
    report = invariance_verdict(x, x.copy(), level=0.01, n_perm=199,
                                rng=np.random.default_rng(12))
    assert report["verdict"] == "consistent"
    assert all(0.0 <= p <= 1.0 for _, p in report["ks"])
    assert len(report["ks"]) == 4
    assert 0 <= report["energy_perms"] <= 199 and report["energy_p"] >= 0.01


def test_verdict_shifted_ensembles_rejected():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(500, 3))
    y = rng.normal(0.6, 1.0, size=(500, 3))
    report = invariance_verdict(x, y, level=0.01, n_perm=199, rng=np.random.default_rng(14))
    assert report["verdict"] == "rejected"
    min_ks_p = min(p for _, p in report["ks"])
    assert min_ks_p < 0.01 / 3 or report["energy_p"] < 0.01
    # an energy rejection has run every permutation
    assert report["energy_p"] < 0.01 and report["energy_perms"] == 199


def test_verdict_rule_matches_definition():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(300, 2))
    y = rng.normal(size=(300, 2))
    report = invariance_verdict(x, y, level=0.05, n_perm=199, rng=np.random.default_rng(16))
    min_ks_p = min(p for _, p in report["ks"])
    rejected = min_ks_p < 0.05 / 2 or report["energy_p"] < 0.05
    assert (report["verdict"] == "rejected") == rejected


# Power floors: the verdict must reject starts that the converse of each theorem says
# one step moves, or a verdict that always read "consistent" would pass every null
# gate.  Seeds 1-10 are fixed in advance; each seed draws its start ensemble, its
# evolved ensemble and its verdict from default_rng([item, seed, half]), half 0, 1, 2.

def _rejections(item, ensembles):
    """Seeds of 1-10 where the verdict at level 0.01 rejects ``ensembles(start, evolved)``,
    a pair of ensembles drawn from those two generators."""
    rejected = 0
    for seed in range(1, 11):
        start, evolved, verdict = (np.random.default_rng([item, seed, half]) for half in range(3))
        report = invariance_verdict(*ensembles(start, evolved), level=0.01, n_perm=199,
                                    rng=verdict)
        rejected += report["verdict"] == "rejected"
    return rejected


@pytest.mark.parametrize("alpha,theta,replicas,low,high", [
    (0.5, 0.0, 500, 0, 2),  # the control: PD(0.5, 0) is invariant
    (0.5, 2.0, 500, 9, 10),
    (0.0, 1.0, 2000, 9, 10),
])
def test_pd_theta_starts_rejected(alpha, theta, replicas, low, high):
    # PD(alpha, theta), theta > 0, is no mixture of PD(alpha', 0) laws, which are mutually
    # singular (Pitman, LNM 1875, 2006): one N(0, 1) step moves it
    sampler = experiments.Partitions(gem_partition(alpha, theta), 500)

    def ensembles(start, evolved):
        return (experiments.top_masses(repeat(start, replicas), sampler, 5),
                experiments.top_masses(repeat(evolved, replicas), sampler, 5,
                                       law=IncrementLaw(0.0, 1.0)))

    assert low <= _rejections(14, ensembles) <= high


@pytest.mark.parametrize("q,low,high", [(0.0, 0, 2), (0.5, 9, 10), (1.0, 9, 10)])
def test_decorated_pp_starts_rejected(q, low, high):
    # PP(1) with twins is not quasi-stationary (Ruzmaikina & Aizenman, 2005); q = 0 is
    # PP(1) itself, the control
    def ensembles(start, evolved):
        return (decorated_pp_gaps(q, 500, start),
                decorated_pp_gaps(q, 500, evolved, law=IncrementLaw(0.0, 1.0)))

    assert low <= _rejections(18, ensembles) <= high
