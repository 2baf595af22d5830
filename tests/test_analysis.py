import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, log_ndtr
from scipy.stats import fisher_exact

from quasistat import cli, experiments
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
    points = -np.log(g) / rho
    tail = g[-1] / (beta / rho - 1.0) * np.exp(beta * (points[-1] - points[0]))
    total = np.exp(beta * (points - points[0])).sum() + tail
    return points - (points[0] + np.log(total) / beta), tail / total


def _jump_events_loop(starts, law, tau, ck, rng):
    # one uniform per start, a hit below its chance that some x_i + S_i(tau) >= ck tau
    summed = law.summed(tau)
    return sum(int(rng.random() < -np.expm1(log_ndtr((ck * tau - points - summed.mu)
                                                      / summed.sigma).sum()))
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


# rho, beta, n, law, ck: beta = 150 underflows the tail estimates and the bound, which is
# inf at the bottom of the grid and 0 at its top; at n = 200 the front checks screen
_START_CASES = [(0.6, 1.5, 120, IncrementLaw(0.2, 0.8), 0.8),
                (0.5, 150.0, 60, IncrementLaw(0.0, 0.1), 1.0),
                (0.5, 1.0, 1, GAUSS, 1.5),
                (0.5, 150.0, 200, IncrementLaw(0.0, 0.1), 1.0)]


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
        jump = experiments.jump_event_bound_check((p for p, _ in starts), law, tau, ck,
                                                  beta=beta, rng=rng)
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


@pytest.fixture(scope="module")
def bench_starts():
    # verify-lemma's starts at the front_bounds benchmark size: 1000 x 500 points
    return list(experiments.tail_normalized_starts(cli._generators(1, 0, range(1000)), 0.5, 500))


def test_front_checks_sum_few_terms(bench_starts, monkeypatch):
    # without the screen, the checks evaluate 101 levels x 500 points x 1000 starts
    evaluated = [0]
    survival = IncrementLaw.survival

    def counted(self, c):
        evaluated[0] += np.size(c)
        return survival(self, c)

    monkeypatch.setattr(IncrementLaw, "survival", counted)
    counts = experiments.front_bound_counts(bench_starts, GAUSS, 10, grid_points=100)
    every = 101 * 500 * 1000
    assert evaluated[0] <= every / 100, f"{evaluated[0] / every:.4f} of every term"
    rows = [start for points, tails in bench_starts for start in zip(points, tails)]
    assert counts == front_counts_loop(rows, GAUSS, 10, 1.0, 100)


def test_front_checks_hold_small_buffers(bench_starts):
    # summing F over all 101 levels at once holds three 101 x 500 buffers: a 1.46 MiB peak
    tracemalloc.start()
    try:
        experiments.front_bound_counts(bench_starts, GAUSS, 10, grid_points=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MiB"


# the parameter range of the front checks, with beta = rho + excess
_FRONT_RANGE = dict(rho=st.floats(0.05, 2.0), excess=st.floats(0.05, 2.0),
                    mu=st.floats(-2.0, 2.0), sigma=st.floats(0.05, 3.0),
                    tau=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(**_FRONT_RANGE, n=st.integers(1, 200))
def test_screened_front_counts_match_a_serial_loop(rho, excess, mu, sigma, tau, seed, n):
    # the checks sum F exactly only for the starts and levels their screen cannot clear;
    # n <= 16 screens with the leading points alone, and 16 < n <= 32 with one block
    beta, law = rho + excess, IncrementLaw(mu, sigma)
    rngs = itertools.repeat(np.random.default_rng(seed), 20)
    starts = list(experiments.tail_normalized_starts(rngs, rho, n, beta=beta))
    rows = [start for points, tails in starts for start in zip(points, tails)]
    assert (experiments.front_bound_counts(starts, law, tau, beta=beta, grid_points=30)
            == front_counts_loop(rows, law, tau, beta, 30))


@settings(max_examples=40, deadline=None)
@given(**{**_FRONT_RANGE, "sigma": _FRONT_RANGE["sigma"] | st.sampled_from([1e-300, 30.0]),
          "excess": _FRONT_RANGE["excess"] | st.none(), "tau": st.just(0) | _FRONT_RANGE["tau"]},
       n=st.integers(1, 200))
def test_front_screen_bounds_every_level(rho, excess, mu, sigma, tau, seed, n):
    # counts that match the serial loop could hide a level where U < F that did not
    # matter: so U must bound the exact F at every level of every start it screens;
    # no excess stands for beta = 150, where the bound underflows at the top of the grid
    beta, law = 150.0 if excess is None else rho + excess, IncrementLaw(mu, sigma)
    screened = []
    upper_bounds = experiments._upper_bounds

    def recorded(table, levels, points):
        upper = upper_bounds(table, levels, points)
        screened.append((levels, points, upper))
        return upper

    rngs = itertools.repeat(np.random.default_rng(seed), 20)
    starts = experiments.tail_normalized_starts(rngs, rho, n, beta=beta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_upper_bounds", recorded)
        # chunks of 5: the later ones may reach gaps beyond the first one's table
        patch.setattr(experiments, "_CHUNK_ELEMS", 5 * n)
        experiments.front_bound_counts(starts, law, tau, beta=beta, grid_points=30)
    assert sum(len(points) for _, points, _ in screened) == 20
    summed = law.summed(tau) if tau > 0 else None
    for levels, points, upper in screened:
        with np.errstate(over="ignore"):  # ndtr(+-inf) at sigma = 1e-300
            exact = np.array([tail_sums(levels, row, summed) for row in points])
        assert np.all(upper >= exact), np.argwhere(upper < exact)


@settings(max_examples=40, deadline=None)
@given(**{**_FRONT_RANGE, "sigma": _FRONT_RANGE["sigma"] | st.sampled_from([1e-300, 30.0]),
          "tau": st.just(0) | _FRONT_RANGE["tau"]},
       extra=st.floats(0.01, 2.0), n=st.integers(1, 200))
def test_jump_screen_bounds_every_start(rho, excess, mu, sigma, tau, seed, extra, n):
    # the jump check takes a start's chance p only where its uniform falls below the
    # screen's bound: so p must not exceed that bound.  Each start is handed the largest
    # uniform below its p, and must be a hit wherever p > 0
    beta, law = rho + excess, IncrementLaw(mu, sigma)
    ck = law.log_mgf(beta) / beta + extra  # the bound's exponent tau beta extra is > 0
    rngs = itertools.repeat(np.random.default_rng(seed), 20)
    starts = [points for points, _ in experiments.tail_normalized_starts(rngs, rho, n, beta=beta)]
    chances = []
    if tau > 0:  # at tau = 0 nothing is drawn
        summed = law.summed(tau)
        with np.errstate(over="ignore"):  # z = +-inf at sigma = 1e-300
            chances = [-np.expm1(log_ndtr((ck * tau - points - summed.mu) / summed.sigma)
                                 .sum(axis=1)) for points in starts]
    uniforms = (np.nextafter(chance, 0.0) for chance in chances)
    rigged = SimpleNamespace(random=lambda size: next(uniforms))
    jump = experiments.jump_event_bound_check(starts, law, tau, ck, beta=beta, rng=rigged)
    assert next(uniforms, None) is None  # one uniform per start, every one drawn
    assert jump["events"] == sum(np.count_nonzero(chance > 0) for chance in chances)


@pytest.mark.parametrize("case,rho,n,tau,ck", [(0, 0.5, 60, 3, 0.8), (1, 0.5, 500, 10, 1.0),
                                               (2, 0.6, 120, 1, 0.6)])
def test_jump_events_follow_the_per_point_law(case, rho, n, tau, ck):
    # one uniform per start against its exact chance has the law of one S_i(tau) per
    # point: both run on the same 20,000 starts, at seeds fixed before the first run
    summed, normals, per_point = GAUSS.summed(tau), np.random.default_rng([34, case, 1]), [0]

    def starts():
        rngs = itertools.repeat(np.random.default_rng([34, case, 0]), 20_000)
        for points, _ in experiments.tail_normalized_starts(rngs, rho, n):
            jumps = summed.sample(points.shape, normals) + points
            per_point[0] += int(np.count_nonzero(jumps.max(axis=1) >= ck * tau))
            yield points

    events = experiments.jump_event_bound_check(starts(), GAUSS, tau, ck,
                                                rng=np.random.default_rng([34, case, 2]))["events"]
    table = [[events, 20_000 - events], [per_point[0], 20_000 - per_point[0]]]
    assert fisher_exact(table).pvalue >= 0.01, table


@settings(max_examples=40, deadline=None)
@given(**_FRONT_RANGE)
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


def _gen_functional(points, a, d, rho=1.0):
    return experiments.gen_functional_check(np.array(points, dtype=float), rho, a, d)


def test_step_function_validation_and_eval():
    points = [[0.0, -0.4, -0.7, -1.5]]
    for a, d in ((-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="the step"):
            _gen_functional(points, a, d)
    with pytest.raises(ValueError, match="rho"):
        _gen_functional(points, 1.0, 0.5, rho=0.0)
    # the step counts the leader and the point at spacing 0.4, not those at 0.7 and 1.5
    assert _gen_functional(points, 1.0, 0.5)["mc_estimate"] == np.exp(-2.0)


def test_gen_functional_zero_function_is_one():
    check = _gen_functional([[0.0, -2.0, -4.0]], 0.0, 1.0)
    assert check["mc_estimate"] == 1.0
    assert check["closed_form_no_leader"] == 1.0


def test_gen_functional_large_amplitude_kills_leader():
    assert _gen_functional([[0.0, -5.0]], 60.0, 1.0)["mc_estimate"] < 1e-20


def test_gen_functional_shallow_truncation_rejected():
    with pytest.raises(experiments.ShallowTruncationError):
        _gen_functional([[0.0, -0.5]], 1.0, 1.0)
    # the message gives the depth of the first shallow row
    with pytest.raises(experiments.ShallowTruncationError, match="depth 0.5 "):
        _gen_functional([[0.0, -2.0], [0.0, -0.5], [0.0, -0.25]], 1.0, 1.0)


def test_gen_functional_closed_form_single_step():
    a = d = np.log(2.0)
    no_leader = _gen_functional([[0.0, -1.0]], a, d)["closed_form_no_leader"]
    assert no_leader == pytest.approx(2.0 / 3.0)
    c = (1 - np.exp(-a)) * (np.exp(1.0 * d) - 1.0)
    assert no_leader == pytest.approx(1.0 / (1.0 + c))


def test_gen_functional_closed_form_matches_quadrature():
    a, d, rho = 1.1, 0.3, 1.3
    c, _ = quad(lambda u: (1.0 - np.exp(-a * (u <= d))) * rho * np.exp(rho * u), 0.0, 5.0,
                points=[d], epsabs=1e-12)
    no_leader = _gen_functional([[0.0, -1.0]], a, d, rho=rho)["closed_form_no_leader"]
    assert no_leader == pytest.approx(1.0 / (1.0 + c), abs=1e-10)


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
        check = experiments.gen_functional_check(points, 1.0, a, d)
        assert check["mc_estimate"] == vals.mean()
        assert check["mc_se"] == vals.std(ddof=1) / np.sqrt(len(vals))


def test_sum_squares():
    masses = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.6, 0.3, 0.0], [0.5, 0.3, 0.1]])
    sums = experiments.sum_squares_rows(masses, np.array([0.0, 0.0, 0.1, 0.1]))
    # the tail adds half its largest square sum, tail times the smallest tracked mass
    assert sums.tolist() == pytest.approx([1.0, 0.5, 0.45 + 0.5 * 0.1 * 0.3,
                                           0.35 + 0.5 * 0.1 * 0.1])


def test_jump_event_trivial_cases():
    rng = np.random.default_rng(8)
    starts = [points for points, _ in
              experiments.tail_normalized_starts(itertools.repeat(rng, 50), 0.5, 50)]
    report = experiments.jump_event_bound_check(starts, GAUSS, tau=5, ck=99.0, beta=1.0,
                                                rng=np.random.default_rng(9))
    assert report["frequency"] == 0.0 and report["passed"]
    report = experiments.jump_event_bound_check(starts, GAUSS, tau=0, ck=0.0, beta=1.0,
                                                rng=np.random.default_rng(10))
    assert report["frequency"] == 0.0 and report["events"] == 0
    with pytest.raises(ValueError):
        experiments.jump_event_bound_check(starts, GAUSS, tau=5, ck=0.0, beta=1.0, rng=rng)
