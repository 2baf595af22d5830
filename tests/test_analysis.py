import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from quasistat import cli, experiments
from quasistat.analysis import (
    ShallowTruncationError,
    gen_functional_mc,
    gen_functional_pp_exponential,
    jump_event_bound_check,
    sum_squares_rows,
)
from quasistat.dynamics import IncrementLaw
from quasistat.pointproc import pp_exponential_rows

from helpers import FrontRootError, front_counts_loop, front_position, tail_sums

GAUSS = IncrementLaw(0.0, 1.0)


def _tail_normalized(alpha, n, rng):
    """One tail-normalized start: its points row and its tail estimate."""
    (points, tails), = experiments.tail_normalized_starts([rng], alpha, n)
    return points[0], tails[0]


def _profile(points, tau, y, law=GAUSS):
    """The front profile F(y) of one row of points."""
    return tail_sums(np.asarray(y, dtype=float), np.asarray(points, dtype=float),
                     law.summed(tau) if tau > 0 else None)


def test_profile_at_tau_zero_counts_points():
    assert _profile([2.0, 1.0, -0.5], 0, [3.0, 1.5, -1.0]).tolist() == [0.0, 1.0, 3.0]


def test_profile_single_point_gaussian():
    for y in (-1.0, 0.0, 0.7, 2.5):
        assert _profile([0.0], 1, y) == pytest.approx(0.5 * erfc(y / np.sqrt(2)), rel=1e-12)


def test_profile_monotone_on_grid():
    points, _ = _tail_normalized(0.5, 200, np.random.default_rng(1))
    vals = _profile(points, 3, np.linspace(-6.0, 6.0, 100))
    assert np.all(np.diff(vals) <= 1e-12)


def test_front_position_tau_zero_is_leader():
    assert front_position(np.array([2.0, 1.0, -0.5]), GAUSS, 0) == 2.0


def test_front_position_error_for_single_point():
    with pytest.raises(FrontRootError):
        front_position(np.array([0.0]), GAUSS, 2)


def test_front_position_root_quality():
    rng = np.random.default_rng(2)
    for tau in (1, 4):
        points, _ = _tail_normalized(0.5, 150, rng)
        z = front_position(points, GAUSS, tau)
        assert abs(_profile(points, tau, z) - 1.0) <= 1e-9
        # almost-sure speed bound for tail-normalized starts
        assert z <= GAUSS.log_mgf(1.0) * tau


def test_markov_bound_holds_pathwise():
    rng = np.random.default_rng(3)
    for tau in (1, 3):
        starts = experiments.tail_normalized_starts(itertools.repeat(rng, 100), 0.5, 200)
        counts = experiments.front_bound_counts(starts, GAUSS, tau, grid_points=100)
        assert counts["markov_violations"] == 0


# The per-replica loops that ``tail_normalized_starts`` and ``jump_event_bound_check``
# replace (``helpers.front_counts_loop`` is that of ``front_bound_counts``), kept as
# the reference: one start at a time, with the same float expressions.

def _start_loop(rng, rho, n, beta):
    g = np.cumsum(rng.exponential(size=n))
    r = beta / rho
    tail = g[-1] ** (1.0 - r) / (r - 1.0) if r > 1 else 0.0
    points = -np.log(g) / rho
    logw = beta * points
    m = logw[0]
    log_total = m + np.log(np.exp(logw - m).sum() + tail * np.exp(-m))
    return points - log_total / beta, tail * np.exp(-log_total)


def _jump_events_loop(starts, law, tau, ck, rng):
    return sum(int(np.max(points + law.summed(tau).sample(len(points), rng)) >= ck * tau)
               for points, _ in starts)


@pytest.mark.parametrize("tau", [0, 1, 10])
@pytest.mark.parametrize("lazy", [False, True])
def test_front_bound_counts_match_a_serial_loop(tau, lazy):
    law, beta, grid_points = IncrementLaw(0.2, 0.8), 1.5, 40

    def starts():
        rngs = itertools.repeat(np.random.default_rng(7), 30)
        return experiments.tail_normalized_starts(rngs, 0.6, 120, beta=beta)

    rows = [start for points, tails in starts() for start in zip(points, tails)]
    reference = front_counts_loop(rows, law, tau, beta, grid_points)
    assert reference["max_bound_ratio"] > 0
    given = starts() if lazy else list(starts())
    assert experiments.front_bound_counts(given, law, tau, beta=beta,
                                          grid_points=grid_points) == reference


# rho, beta, n, law, ck: beta = 150 underflows the tail estimates and the bound
_START_CASES = [(0.6, 1.5, 120, IncrementLaw(0.2, 0.8), 0.8),
                (0.5, 150.0, 60, IncrementLaw(0.0, 0.1), 1.0),
                (0.5, 1.0, 1, GAUSS, 1.5)]


@pytest.mark.parametrize("rho,beta,n,law,ck", _START_CASES)
def test_starts_and_their_checks_match_a_replica_loop(monkeypatch, rho, beta, n, law, ck):
    # chunks of 5, 5, 5, 5, 3
    monkeypatch.setattr(experiments, "_CHUNK_ELEMS", 5 * n + n // 2)
    tau, replicas = 3, 23

    def independent():
        return [np.random.default_rng([7, i]) for i in range(replicas)]

    def shared():  # as the acceptance suite passes its pinned generator
        return itertools.repeat(np.random.default_rng(7), replicas)

    for rngs in (independent, shared):
        reference = [_start_loop(rng, rho, n, beta) for rng in rngs()]
        starts = list(experiments.tail_normalized_starts(rngs(), rho, n, beta=beta))
        assert [len(points) for points, _ in starts] == [5, 5, 5, 5, 3]
        points = np.concatenate([points for points, _ in starts])
        tails = np.concatenate([tails for _, tails in starts])
        assert points.tobytes() == np.array([p for p, _ in reference]).tobytes()
        assert tails.tobytes() == np.array([t for _, t in reference]).tobytes()

        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        events = _jump_events_loop(reference, law, tau, ck, ref_rng)
        jump = jump_event_bound_check((p for p, _ in starts), law, tau, ck, beta=beta, rng=rng)
        assert (jump["events"], jump["frequency"]) == (events, events / replicas)
        assert rng.random() == ref_rng.random()  # nothing more or less was drawn

        counts = experiments.front_bound_counts(starts, law, tau, beta=beta, grid_points=30)
        assert counts == front_counts_loop(reference, law, tau, beta, 30)


def test_starts_are_built_a_chunk_at_a_time():
    # verify-lemma's starts at the front_bounds benchmark size hold 1000 x 500 points,
    # 4 MB; drawn and shifted as one matrix, they would peak near 21 MB
    rngs = cli._generators(1, 0, range(1000))
    tracemalloc.start()
    try:
        starts = list(experiments.tail_normalized_starts(rngs, 0.5, 500))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(points) for points, _ in starts) == 1000
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(0.05, 2.0), excess=st.floats(0.05, 2.0), mu=st.floats(-2.0, 2.0),
       sigma=st.floats(0.05, 3.0), tau=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_front_bounds_hold_over_parameter_range(rho, excess, mu, sigma, tau, seed):
    # the bounds are pathwise, so no start may violate them for any beta > rho
    beta = rho + excess
    rng = np.random.default_rng(seed)
    starts = experiments.tail_normalized_starts(itertools.repeat(rng, 5), rho, 60, beta=beta)
    counts = experiments.front_bound_counts(starts, IncrementLaw(mu, sigma), tau, beta=beta,
                                            grid_points=30)
    assert (counts["markov_violations"], counts["z_violations"]) == (0, 0)


def test_normalized_profile_is_one_at_origin():
    points, _ = _tail_normalized(0.5, 150, np.random.default_rng(4))
    assert _profile(points, 2, front_position(points, GAUSS, 2)) == pytest.approx(1.0, abs=1e-9)


def test_normalized_profile_shift_covariance():
    points, _ = _tail_normalized(0.5, 150, np.random.default_rng(5))
    shifted = points + 7.3
    grid = np.linspace(-1.0, 2.0, 25)
    np.testing.assert_allclose(_profile(points, 2, grid + front_position(points, GAUSS, 2)),
                               _profile(shifted, 2, grid + front_position(shifted, GAUSS, 2)),
                               atol=1e-8)


def test_normalized_profile_mean_shape_is_exponential():
    # ensemble mean of the re-centered profile follows e^{-rho y}; log-linear fit
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.5, 20)
    acc = np.zeros_like(grid)
    n_rep = 250
    starts, _ = pp_exponential_rows(1.0, rng.exponential(size=(n_rep, 1500)).cumsum(axis=1),
                                    beta=2.0)
    for points in starts:
        acc += _profile(points, 2, grid + front_position(points, GAUSS, 2))
    logmean = np.log(acc / n_rep)
    slope, intercept = np.polyfit(grid, logmean, 1)
    resid = logmean - (slope * grid + intercept)
    r2 = 1.0 - resid.var() / logmean.var()
    assert r2 > 0.99


def test_step_function_validation_and_eval():
    points = np.array([[0.0, -0.4, -0.7, -1.5]])
    for a, d in ((-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError):
            gen_functional_mc(points, a, d)
        with pytest.raises(ValueError):
            gen_functional_pp_exponential(1.0, a, d)
    # the step counts the leader and the point at spacing 0.4, not those at 0.7 and 1.5
    mean, _ = gen_functional_mc(points, 1.0, 0.5)
    assert mean == np.exp(-2.0)


def test_gen_functional_zero_function_is_one():
    mean, se = gen_functional_mc(np.array([[0.0, -2.0, -4.0]]), 0.0, 1.0)
    assert mean == 1.0
    assert gen_functional_pp_exponential(1.0, 0.0, 1.0) == 1.0


def test_gen_functional_large_amplitude_kills_leader():
    mean, _ = gen_functional_mc(np.array([[0.0, -5.0]]), 60.0, 1.0)
    assert mean < 1e-20


def test_gen_functional_shallow_truncation_rejected():
    with pytest.raises(ShallowTruncationError):
        gen_functional_mc(np.array([[0.0, -0.5]]), 1.0, 1.0)
    # the message gives the depth of the first shallow row
    with pytest.raises(ShallowTruncationError, match="depth 0.5 "):
        gen_functional_mc(np.array([[0.0, -2.0], [0.0, -0.5], [0.0, -0.25]]), 1.0, 1.0)


def test_gen_functional_closed_form_single_step():
    a = d = np.log(2.0)
    assert gen_functional_pp_exponential(1.0, a, d) == pytest.approx(2.0 / 3.0)
    c = (1 - np.exp(-a)) * (np.exp(1.0 * d) - 1.0)
    assert gen_functional_pp_exponential(1.0, a, d) == pytest.approx(1.0 / (1.0 + c))


def test_gen_functional_closed_form_matches_quadrature():
    a, d, rho = 1.1, 0.3, 1.3
    c, _ = quad(lambda u: (1.0 - np.exp(-a * (u <= d))) * rho * np.exp(rho * u), 0.0, 5.0,
                points=[d], epsabs=1e-12)
    assert gen_functional_pp_exponential(rho, a, d) == pytest.approx(1.0 / (1.0 + c), abs=1e-10)


def test_gen_functional_mc_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    points = experiments.top_points(itertools.repeat(rng, 4000), 1.0, 100, 100)
    check = experiments.gen_functional_check(points, 1.0, np.log(2.0), np.log(2.0))
    assert abs(check["mc_estimate"] - check["closed_form"]) <= 3.0 * check["mc_se"]


@pytest.mark.parametrize("a,d", [(0.0, 1.0), (np.log(2.0), np.log(2.0)), (1.5, 0.25)])
def test_gen_functional_check_counts_the_leader_once(a, d):
    # the Monte Carlo convention counts the maximum, whose own step is e^{-a}
    points = experiments.top_points(itertools.repeat(np.random.default_rng(3), 20), 1.0, 40, 40)
    check = experiments.gen_functional_check(points, 1.0, a, d)
    assert check["closed_form"] == check["closed_form_no_leader"] * np.exp(-a)
    assert check["closed_form"] == pytest.approx(np.exp(-a) / (1.0 + -np.expm1(-a) * np.expm1(d)))


def test_gen_functional_mc_matches_row_loop():
    # reference: one row at a time, with the same float expressions
    rng = np.random.default_rng(12)
    points = experiments.top_points(itertools.repeat(rng, 500), 1.0, 60, 60)
    for a, d in ((0.3, 0.25), (np.log(2.0), np.log(2.0)), (1.5, 1.0)):
        vals = np.array([np.exp(-(((pts[0] - pts) <= d) * a).sum()) for pts in points])
        mean, se = gen_functional_mc(points, a, d)
        assert mean == vals.mean()
        assert se == vals.std(ddof=1) / np.sqrt(len(vals))


def test_sum_squares():
    masses = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.6, 0.3, 0.0], [0.5, 0.3, 0.1]])
    sums = sum_squares_rows(masses, np.array([0.0, 0.0, 0.1, 0.1]))
    # the tail adds half its largest square sum, tail times the smallest tracked mass
    assert sums.tolist() == pytest.approx([1.0, 0.5, 0.45 + 0.5 * 0.1 * 0.3,
                                           0.35 + 0.5 * 0.1 * 0.1])


def test_jump_event_trivial_cases():
    rng = np.random.default_rng(8)
    starts = [points for points, _ in
              experiments.tail_normalized_starts(itertools.repeat(rng, 50), 0.5, 50)]
    report = jump_event_bound_check(starts, GAUSS, tau=5, ck=99.0, beta=1.0,
                                    rng=np.random.default_rng(9))
    assert report["frequency"] == 0.0 and report["passed"]
    report = jump_event_bound_check(starts, GAUSS, tau=0, ck=0.0, beta=1.0,
                                    rng=np.random.default_rng(10))
    assert report["frequency"] == 0.0 and report["events"] == 0
    with pytest.raises(ValueError):
        jump_event_bound_check(starts, GAUSS, tau=5, ck=0.0, beta=1.0, rng=rng)
