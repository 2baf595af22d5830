"""Two-sample machinery turning simulation ensembles into invariance verdicts.

Replica ensembles are plain 2-d arrays: one row per replica, one column per
tracked coordinate (top-k gaps or top-k masses).  The verdict combines
Bonferroni-corrected per-coordinate Kolmogorov-Smirnov tests with a joint
energy-distance permutation test.
"""

from dataclasses import dataclass, field

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


def energy_distance_perm_test(X, Y, n_perm=199, rng=None, return_stat=False):
    """Permutation p-value of the two-sample energy distance.

    E = 2 mean||x - y|| - mean||x - x'|| - mean||y - y'|| over the k tracked
    coordinates; p = (1 + #{permuted E* >= E}) / (n_perm + 1).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    if n_perm < 199:
        raise ValueError("n_perm must be at least 199")
    nx, ny = X.shape[0], Y.shape[0]
    pooled = np.vstack([X, Y])
    dist = cdist(pooled, pooled)
    # all permuted group indicators at once: one GEMM replaces n_perm matvecs
    z = np.zeros(nx + ny)
    z[:nx] = 1.0
    indicators = np.empty((nx + ny, n_perm + 1))
    indicators[:, 0] = z
    for j in range(1, n_perm + 1):
        indicators[:, j] = rng.permutation(z)
    v = dist @ indicators
    # within-group diagonals are zero so they do not contribute
    s_xx = np.einsum("ij,ij->j", indicators, v)
    s_xy = v.sum(axis=0) - s_xx
    s_yy = dist.sum() - s_xx - 2.0 * s_xy
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
    level: float
    metadata: dict = field(default_factory=dict)

    @property
    def min_ks_p(self):
        return min(p for _, p in self.per_coordinate_ks)


def invariance_verdict(before, after, level=0.01, n_perm=199, rng=None) -> InvarianceReport:
    """Bonferroni per-coordinate KS plus joint energy test.

    Verdict is "rejected" iff some KS p-value falls below level/k or the
    energy permutation p-value falls below level, else "consistent".
    """
    before = np.atleast_2d(np.asarray(before, dtype=float))
    after = np.atleast_2d(np.asarray(after, dtype=float))
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
        level=level,
        metadata={"n_before": before.shape[0], "n_after": after.shape[0],
                  "k": k, "n_perm": n_perm},
    )
