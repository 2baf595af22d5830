"""Two-sample machinery turning simulation ensembles into invariance verdicts.

Replica ensembles are plain 2-d arrays: one row per replica, one column per
tracked coordinate (top-k gaps or top-k masses).  A 1-d sample of m values is
read as m replicas of one coordinate.  The verdict combines
Bonferroni-corrected per-coordinate Kolmogorov-Smirnov tests with a joint
energy-distance permutation test.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import kolmogorov

__all__ = [
    "InvarianceReport",
    "ks_two_sample",
    "marginal_law_test",
    "energy_distance_perm_test",
    "invariance_verdict",
]


def ks_two_sample(xs, ys):
    """Two-sample KS statistic and asymptotic p-value.

    D = sup |F_x - F_y| over the pooled sample; the p-value is the Kolmogorov
    survival function P(sup|Brownian bridge| > t) at t = sqrt(n_x n_y / (n_x + n_y)) * D.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    nx, ny = xs.size, ys.size
    if nx == 0 or ny == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / nx
    cdf_y = np.searchsorted(ys, pooled, side="right") / ny
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    en = nx * ny / (nx + ny)
    return d, float(kolmogorov(np.sqrt(en) * d))


def marginal_law_test(samples, cdf):
    """One-sample KS of ``samples`` against a given CDF, asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    d = float(max(d_plus, d_minus))
    return d, float(kolmogorov(np.sqrt(n) * d))


def _observations(sample):
    """A sample as rows of observations: a 1-d sample of m values is m rows of
    one coordinate."""
    sample = np.asarray(sample, dtype=float)
    return sample.reshape(-1, 1) if sample.ndim < 2 else sample


# float64 entries of one distance tile (16 MiB): the energy test holds one
# rows x tile_rows block at a time, never the pooled rows x rows matrix
_TILE_ELEMS = 2 ** 21


def energy_distance_perm_test(X, Y, n_perm=199, *, rng, return_stat=False):
    """Permutation p-value of the two-sample energy distance.

    E = 2 mean||x - y|| - mean||x - x'|| - mean||y - y'|| over the k tracked
    coordinates, one row of X or Y per observation (a 1-d sample is one
    coordinate); p = (1 + #{permuted E* >= E}) / (n_perm + 1).
    """
    X, Y = _observations(X), _observations(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    if n_perm < 199:
        raise ValueError("n_perm must be at least 199")
    nx, ny = X.shape[0], Y.shape[0]
    pooled = np.vstack([X, Y])
    rows = nx + ny
    # all permuted group indicators at once: one GEMM per tile replaces n_perm matvecs
    z = np.zeros(rows)
    z[:nx] = 1.0
    indicators = np.empty((rows, n_perm + 1))
    indicators[:, 0] = z
    for j in range(1, n_perm + 1):
        indicators[:, j] = rng.permutation(z)
    # Walk the upper triangle of the symmetric distance matrix D in row tiles
    # [a, b) x [a, rows).  Row sums take each tile's rows and, by symmetry,
    # the columns beyond b; s_xx = z'Dz counts the diagonal block once and the
    # block beyond it twice.
    row_sums = np.zeros(rows)
    s_xx = np.zeros(n_perm + 1)
    tile_rows = max(1, _TILE_ELEMS // rows)
    for a in range(0, rows, tile_rows):
        b = min(a + tile_rows, rows)
        tile = cdist(pooled[a:b], pooled[a:])
        row_sums[a:b] += tile.sum(axis=1)
        row_sums[b:] += tile[:, b - a:].sum(axis=0)
        tile[:, :b - a] *= 0.5  # exact: the doubling below restores the diagonal block
        s_xx += 2.0 * np.einsum("ij,ij->j", indicators[a:b], tile @ indicators[a:])
        del tile  # so the next tile does not coexist with this one
    s_xy = row_sums @ indicators - s_xx
    s_yy = row_sums.sum() - s_xx - 2.0 * s_xy
    stats = 2.0 * s_xy / (nx * ny) - s_xx / (nx * nx) - s_yy / (ny * ny)
    observed = float(stats[0])
    p = (1.0 + np.count_nonzero(stats[1:] >= observed)) / (n_perm + 1.0)
    return (p, observed) if return_stat else p


@dataclass
class InvarianceReport:
    """Statistical verdict comparing two replica ensembles coordinate-wise and jointly."""

    per_coordinate_ks: list
    energy_p: float
    verdict: str


def invariance_verdict(before, after, level=0.01, n_perm=199, *, rng) -> InvarianceReport:
    """Bonferroni per-coordinate KS plus joint energy test.

    Verdict is "rejected" iff some KS p-value falls below level/k or the
    energy permutation p-value falls below level, else "consistent".
    """
    before, after = _observations(before), _observations(after)
    if before.shape[1] != after.shape[1]:
        raise ValueError("ensembles must share the coordinate count")
    k = before.shape[1]
    ks = [ks_two_sample(before[:, j], after[:, j]) for j in range(k)]
    energy_p = energy_distance_perm_test(before, after, n_perm=n_perm, rng=rng)
    rejected = min(p for _, p in ks) < level / k or energy_p < level
    return InvarianceReport(
        per_coordinate_ks=ks,
        energy_p=energy_p,
        verdict="rejected" if rejected else "consistent",
    )
