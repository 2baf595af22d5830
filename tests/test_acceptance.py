"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The suite is Monte Carlo
heavy (~25-30 s end to end on 2 CPUs); every experiment is pinned to explicit
seeds so reruns are reproducible.
"""

import functools
import time
from itertools import islice, repeat

import numpy as np

from quasistat import experiments
from quasistat.dynamics import IncrementLaw
from quasistat.stattest import (
    energy_distance_perm_test,
    invariance_verdict,
    ks_two_sample,
)

from helpers import front_position, marginal_law_test

GAUSS = IncrementLaw(0.0, 1.0)


def _criterion(num, name):
    """Turn a check returning (ok, detail) into a test that prints its
    PASS/FAIL line with the seconds it took."""
    def decorate(check):
        @functools.wraps(check)
        def test():
            started = time.perf_counter()
            ok, detail = check()
            print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}  "
                  f"[{time.perf_counter() - started:.1f}s]")
            assert ok, f"criterion {num} ({name}) failed: {detail}"
        return test
    return decorate


def _rng(*key):
    return np.random.default_rng(list(key))


@functools.cache
def _pd_consistency_count(alpha, trunc_n, n_seeds=10, n_rep=2000, k=5):
    """Seeds (of n_seeds) where PD(alpha,0) invariance is not rejected, plus wall time."""
    started = time.perf_counter()
    sample = experiments.PoissonKingman((alpha,), trunc_n)
    consistent = 0
    for seed in range(n_seeds):
        before = experiments.top_masses(repeat(_rng(1, trunc_n, seed, 0), n_rep), sample, k)
        after = experiments.top_masses(repeat(_rng(1, trunc_n, seed, 1), n_rep), sample, k,
                                       law=GAUSS, beta=1.0)
        report = invariance_verdict(before, after, level=0.01, n_perm=199,
                                    rng=_rng(1, trunc_n, seed, 2))
        consistent += report["verdict"] == "consistent"
    return consistent, time.perf_counter() - started


@_criterion(1, "PD(alpha,0) invariance under lognormal reshuffle")
def test_criterion_1_pd_invariance():
    results = {alpha: _pd_consistency_count(alpha, 500) for alpha in (0.3, 0.5, 0.7)}
    ok = all(c >= 9 and t < 120.0 for c, t in results.values())
    return ok, ", ".join(f"alpha={a}: {c}/10 consistent in {t:.0f}s"
                         for a, (c, t) in results.items())


@_criterion(2, "PP(1) gap law invariant; gap_i ~ Exp(i)")
def test_criterion_2_pp_gap_quasi_stationarity():
    # tau gaussian unit steps are one step of GAUSS.summed(tau) = N(0, tau), as the
    # ensembles evolve them.  The head of each replica is min(n_pts, 512) points,
    # and the points below it that reach the top k enter by the promotion walk,
    # exact in law: promotions are part of the law, not an error to make negligible
    k, n_rep = 10, 2000
    details = []
    ok = True
    for tau, n_pts in ((1, 20_000), (5, 100_000)):
        before = experiments.top_gaps(repeat(_rng(2, tau, 0), n_rep), 1.0, k + 2, k)
        after = experiments.top_gaps(repeat(_rng(2, tau, 1), n_rep), 1.0, n_pts, k,
                                     law=GAUSS.summed(tau))
        report = invariance_verdict(before, after, level=0.01, n_perm=199, rng=_rng(2, tau, 2))
        marg_ps = [
            marginal_law_test(after[:, i - 1], lambda x, i=i: -np.expm1(-i * x))[1]
            for i in range(1, k + 1)
        ]
        ok = ok and report["verdict"] == "consistent" and min(marg_ps) >= 0.01 / k
        details.append(f"tau={tau}: verdict={report['verdict']}, min marginal p={min(marg_ps):.4f}")
    return ok, "; ".join(details)


@_criterion(3, "geometric partition rejected after one reshuffle")
def test_criterion_3_geometric_counterexample_power():
    n_rep, k, n_pts = 2000, 5, 500
    geo = 0.5 ** np.arange(1, n_pts + 1)
    base = geo, 0.5 ** n_pts
    before = np.tile(geo[:k], (n_rep, 1))
    rejected = 0
    for seed in range(20):
        after = experiments.top_masses(repeat(_rng(3, seed), n_rep),
                                       experiments.Partitions(lambda rng: base, n_pts), k,
                                       law=GAUSS, beta=1.0)
        report = invariance_verdict(before, after, level=0.001, n_perm=199, rng=_rng(3, seed, 1))
        rejected += report["verdict"] == "rejected"
    return rejected >= 19, f"rejected in {rejected}/20 seeds"


@_criterion(4, "pathwise front bounds F <= e^{v tau - y}, Z <= v tau")
def test_criterion_4_markov_and_front_bounds():
    n_rep = 10_000
    starts = list(experiments.tail_normalized_starts(repeat(_rng(4, 0), n_rep), 0.5, 500))
    markov_violations = z_violations = 0
    for tau in (1, 5, 10):
        counts = experiments.front_bound_counts(starts, GAUSS, tau, grid_points=100)
        markov_violations += counts["markov_violations"]
        z_violations += counts["z_violations"]
        # cross-check the counts against the root Z itself on the first 300 starts
        speed = GAUSS.log_mgf(1.0) * tau
        for points in islice((row for points, _ in starts for row in points), 300):
            z_violations += front_position(points, GAUSS, tau) > speed
    ok = markov_violations == 0 and z_violations == 0
    return ok, (f"markov violations={markov_violations}, Z violations={z_violations} "
                f"over {n_rep} replicas x 3 horizons")


@_criterion(5, "big-jump event frequency below e^{-tau((C+K)beta - v_beta)}")
def test_criterion_5_jump_event_bound():
    tau, ck = 10, 1.5  # (C+K)*beta - v_beta = 1, bound e^{-10}
    starts = experiments.tail_normalized_starts(repeat(_rng(5, 0), 100_000), 0.5, 500)
    report = experiments.jump_event_bound_check((points for points, _ in starts), GAUSS, tau, ck,
                                                beta=1.0, rng=_rng(5, 1))
    return report["passed"], (f"frequency={report['frequency']:.2e} ({report['events']} events), "
                              f"bound={report['bound']:.2e} + 3SE={report['three_se']:.2e}")


@_criterion(6, "generating functional: MC vs closed form on 3x3 (a,d) grid")
def test_criterion_6_generating_functional_agreement():
    n_rep, n_pts = 100_000, 200
    points = experiments.top_points(repeat(_rng(6, 0), n_rep), 1.0, n_pts, n_pts)
    checks = [experiments.gen_functional_check(points, 1.0, a, d)
              for a in (0.3, np.log(2.0), 1.5) for d in (0.25, np.log(2.0), 1.0)]
    worst_rel = max(c["relative_deviation"] for c in checks)
    return all(c["passed"] for c in checks), f"worst relative deviation {worst_rel:.3e}"


@_criterion(7, "Poisson-Kingman and stick-breaking oracles agree at alpha=0.5")
def test_criterion_7_oracle_equivalence():
    alpha, n_rep, k, n_pts = 0.5, 2000, 5, 500
    streams = (repeat(_rng(7, s), n_rep) for s in range(2))
    tops, sumsq = experiments.oracle_masses(streams, alpha, n_pts, k)
    p = energy_distance_perm_test(tops["poisson_kingman"], tops["stick_breaking"], n_perm=199,
                                  rng=_rng(7, 10, 1))
    ok = all(abs(s["mean"] - (1.0 - alpha)) <= 3.0 * s["se"] for s in sumsq.values()) and p >= 0.01
    details = ([f"{name}: E[sum xi^2]={s['mean']:.4f}" for name, s in sumsq.items()]
               + [f"poisson_kingman|stick_breaking: p={p:.3f}"])
    return ok, "; ".join(details)


@_criterion(8, "criterion-1 verdicts stable across N in {250, 500, 1000}")
def test_criterion_8_truncation_insensitivity():
    counts = {}
    ok = True
    for alpha in (0.3, 0.5, 0.7):
        reference = _pd_consistency_count(alpha, 500)[0] >= 9
        for trunc_n in (250, 500, 1000):
            c = _pd_consistency_count(alpha, trunc_n)[0]
            counts[(alpha, trunc_n)] = c
            ok = ok and (c >= 9) == reference
    return ok, f"consistent-seed counts: {counts}"


@_criterion(9, "null calibration of KS and energy tests")
def test_criterion_9_null_calibration():
    n, k, trials = 500, 5, 200
    rng = _rng(9, 0)
    ks_ps = np.empty(trials)
    en_ps = np.empty(trials)
    for t in range(trials):
        ks_ps[t] = ks_two_sample(rng.normal(size=n), rng.normal(size=n))[1]
        en_ps[t] = energy_distance_perm_test(rng.normal(size=(n, k)),
                                             rng.normal(size=(n, k)),
                                             n_perm=199, rng=rng)
    ks_frac = float(np.mean(ks_ps < 0.05))
    en_frac = float(np.mean(en_ps < 0.05))
    ok = 0.02 <= ks_frac <= 0.09 and 0.02 <= en_frac <= 0.09
    return ok, f"fraction p<0.05: ks={ks_frac:.3f}, energy={en_frac:.3f}"
