"""Two-sample machinery turning simulation ensembles into invariance verdicts.

Replica ensembles are plain 2-d arrays: one row per replica, one column per
tracked coordinate (top-k gaps or top-k masses).  A 1-d sample of m values is
read as m replicas of one coordinate.  The verdict combines
Bonferroni-corrected per-coordinate Kolmogorov-Smirnov tests with a joint
energy-distance permutation test.
"""

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import kolmogorov

__all__ = [
    "ks_two_sample",
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


def _observations(sample):
    """A sample as rows of observations: a 1-d sample of m values is m rows of
    one coordinate."""
    sample = np.asarray(sample, dtype=float)
    return sample.reshape(-1, 1) if sample.ndim < 2 else sample


# float64 entries of one distance tile (4 MiB, one core's L2 on the Xeon it was timed
# on): the energy test holds one tile_rows x rows block, never the rows x rows matrix;
# smaller tiles run slower, as BLAS repacks the permutation block for every tile
_TILE_ELEMS = 2 ** 19


# the first pass of a sequential energy test evaluates 16 (G* + 1)
# permutations, G* the exceedances that settle "consistent"
_PERMS_PER_EXCEEDANCE = 16


def _indicators(z, count, rng):
    """The group indicator z, then count permutations of it drawn in order from
    rng, as the rows of one block, shuffled in place: one GEMM per tile serves
    them all."""
    block = np.empty((count + 1, z.size))
    block[:] = z
    rng.permuted(block[1:], axis=1, out=block[1:])
    return block


def _energy_stats(pooled, indicators, nx):
    """The energy statistic of each indicator row (1 on the x rows).

    One walk over the upper triangle of the symmetric pooled distance matrix D
    in row tiles [a, b) x [a, rows).  Its row sums take each tile's rows and,
    by symmetry, the columns beyond b; s_xx = z'Dz counts the diagonal block
    once and the block beyond it twice.
    """
    rows = len(pooled)
    ny = rows - nx
    row_sums = np.zeros(rows)
    s_xx = np.zeros(len(indicators))
    tile_rows = max(1, _TILE_ELEMS // rows)
    for a in range(0, rows, tile_rows):
        b = min(a + tile_rows, rows)
        tile = cdist(pooled[a:b], pooled[a:])
        row_sums[a:b] += tile.sum(axis=1)
        row_sums[b:] += tile[:, b - a:].sum(axis=0)
        tile[:, :b - a] *= 0.5  # exact: the doubling below restores the diagonal block
        s_xx += 2.0 * np.einsum("ji,ij->j", indicators[:, a:b], tile @ indicators[:, a:].T)
        del tile  # so the next tile does not coexist with this one
    s_xy = indicators @ row_sums - s_xx
    s_yy = row_sums.sum() - s_xx - 2.0 * s_xy
    return 2.0 * s_xy / (nx * ny) - s_xx / (nx * nx) - s_yy / (ny * ny)


def energy_distance_perm_test(X, Y, n_perm=199, *, rng, level=None, full_output=False):
    """Permutation p-value of the two-sample energy distance.

    E = 2 mean||x - y|| - mean||x - x'|| - mean||y - y'|| over the k tracked
    coordinates, one row of X or Y per observation (a 1-d sample is one
    coordinate).  Without ``level`` every permutation is evaluated and
    p = (1 + G) / (n_perm + 1), G = #{permuted E* >= E}.

    With ``level`` the test stops once "p >= level" is settled (Besag &
    Clifford, "Sequential Monte Carlo p-values", Biometrika 78, 1991; Gandy,
    JASA 104, 2009).  G* is the fewest exceedances with
    (1 + G*) / (n_perm + 1) >= level.  A first pass evaluates the first
    m1 = min(n_perm, 16 (G* + 1)) permutations of the stream (m1 = 0 when
    G* = 0, that is level (n_perm + 1) <= 1); if at least G* of them reach E,
    the full test cannot reject and the test stops.  Otherwise the rest of the
    stream is drawn and evaluated on the same tiles, which give the same row
    sums.

    The reported p = (1 + G) / (1 + L) counts G over the L permutations
    evaluated.  With L = n_perm it is the full test's p; after a stop it is at
    least level, so p < level exactly when the full test rejects (up to the
    last bit of a permutation's sums, which BLAS may round differently for a
    narrower block).  It is a valid p-value, P(p <= u) <= u under the null:
    for u < (1 + G*) / (1 + m1) a stop cannot give p <= u, so
    P(p <= u) <= P(p_full <= u); for u >= G* / (1 + m1), p = p_m1 after a
    stop and no stop implies p_m1 <= u, so P(p <= u) <= P(p_m1 <= u), where
    p_m1 is the permutation p-value of the first m1 permutations.

    Returns p, or (p, E, L) with ``full_output``.  Raises ValueError where a
    pairwise distance could overflow, as the statistics would then be NaN.
    """
    X, Y = _observations(X), _observations(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must have the same number of columns")
    if n_perm < 199:
        raise ValueError("n_perm must be at least 199")
    nx, ny = X.shape[0], Y.shape[0]
    pooled = np.vstack([X, Y])
    # a squared distance is at most sum_j ptp_j^2; past float64, cdist gives inf and the GEMM NaN
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.sum(np.ptp(pooled, axis=0) ** 2)
    if not np.isfinite(spread):
        raise ValueError(f"the squared distances of the pooled rows can leave float64 range: "
                         f"their squared column ranges sum to {spread}")
    z = np.zeros(nx + ny)
    z[:nx] = 1.0
    # the exceedances that settle p >= level, by the full test's p formula
    settle = n_perm + 1 if level is None else next(
        (g for g in range(n_perm + 1) if (1.0 + g) / (n_perm + 1.0) >= level), n_perm + 1)
    evaluated = min(n_perm, _PERMS_PER_EXCEEDANCE * (settle + 1)) if settle else 0
    stats = _energy_stats(pooled, _indicators(z, evaluated, rng), nx)
    observed = float(stats[0])
    exceed = np.count_nonzero(stats[1:] >= observed)
    if exceed < settle and evaluated < n_perm:
        # the verdict is open: the rest of the stream; its row 0 repeats E
        more = _energy_stats(pooled, _indicators(z, n_perm - evaluated, rng), nx)
        exceed += np.count_nonzero(more[1:] >= observed)
        evaluated = n_perm
    p = (1.0 + exceed) / (evaluated + 1.0)
    return (p, observed, evaluated) if full_output else p


def invariance_verdict(before, after, level=0.01, n_perm=199, *, rng):
    """Bonferroni per-coordinate KS plus joint energy test.

    Returns {"ks": [(statistic, p) per coordinate], "energy_p": p,
    "energy_perms": L, "verdict": v}, where v is "rejected" iff some KS p-value
    falls below level/k or the energy permutation p-value falls below level,
    else "consistent".  The energy test runs sequentially at ``level``: it
    stops once no further permutation can bring its p below level, and
    p = (1 + G) / (1 + L) counts the exceedances G among the L permutations it
    evaluated (see energy_distance_perm_test).  At level (n_perm + 1) <= 1 the
    energy half cannot reject, L = 0, and the verdict rests on KS alone.
    """
    before, after = _observations(before), _observations(after)
    if before.shape[1] != after.shape[1]:
        raise ValueError("ensembles must share the coordinate count")
    k = before.shape[1]
    ks = [ks_two_sample(before[:, j], after[:, j]) for j in range(k)]
    energy_p, _, energy_perms = energy_distance_perm_test(before, after, n_perm=n_perm, rng=rng,
                                                          level=level, full_output=True)
    rejected = min(p for _, p in ks) < level / k or energy_p < level
    return {"ks": ks, "energy_p": energy_p, "energy_perms": energy_perms,
            "verdict": "rejected" if rejected else "consistent"}
