import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from quasistat import experiments
from quasistat.analysis import (
    FrontRootError,
    ShallowTruncationError,
    front_position,
    front_profile,
    gen_functional_mc,
    gen_functional_pp_exponential,
    jump_event_bound_check,
    sum_squares,
)
from quasistat.dynamics import IncrementLaw, shift_tail
from quasistat.pointproc import (
    MassPartition,
    PointConfiguration,
    sample_pp_exponential,
)

GAUSS = IncrementLaw(0.0, 1.0)


def _tail_normalized(alpha, n, rng):
    cfg = sample_pp_exponential(alpha, n, rng, beta=1.0)
    return shift_tail(cfg)


def test_profile_at_tau_zero_counts_points():
    cfg = PointConfiguration([2.0, 1.0, -0.5])
    prof = front_profile(cfg, GAUSS, 0)
    assert prof(3.0) == 0.0
    assert prof(1.5) == 1.0
    assert prof(-1.0) == 3.0


def test_profile_single_point_gaussian():
    prof = front_profile(PointConfiguration([0.0]), GAUSS, 1)
    for y in (-1.0, 0.0, 0.7, 2.5):
        assert prof(y) == pytest.approx(0.5 * erfc(y / np.sqrt(2)), rel=1e-12)


def test_profile_monotone_on_grid():
    cfg = _tail_normalized(0.5, 200, np.random.default_rng(1))
    prof = front_profile(cfg, GAUSS, 3)
    vals = prof(np.linspace(-6.0, 6.0, 100))
    assert np.all(np.diff(vals) <= 1e-12)


def test_front_position_tau_zero_is_leader():
    cfg = PointConfiguration([2.0, 1.0, -0.5])
    prof = front_profile(cfg, GAUSS, 0)
    assert front_position(prof) == 2.0


def test_front_position_error_for_single_point():
    prof = front_profile(PointConfiguration([0.0]), GAUSS, 2)
    with pytest.raises(FrontRootError):
        front_position(prof)


def test_front_position_root_quality():
    rng = np.random.default_rng(2)
    for tau in (1, 4):
        cfg = _tail_normalized(0.5, 150, rng)
        prof = front_profile(cfg, GAUSS, tau)
        z = front_position(prof)
        assert abs(prof(z) - 1.0) <= 1e-9
        # almost-sure speed bound for tail-normalized starts
        assert z <= GAUSS.log_mgf(1.0) * tau


def test_markov_bound_holds_pathwise():
    rng = np.random.default_rng(3)
    for tau in (1, 3):
        starts = experiments.tail_normalized_starts(itertools.repeat(rng, 100), 0.5, 200)
        counts = experiments.front_bound_counts(starts, GAUSS, tau, grid_points=100)
        assert counts["markov_violations"] == 0


@pytest.mark.parametrize("tau", [0, 1, 10])
@pytest.mark.parametrize("lazy", [False, True])
def test_front_bound_counts_match_a_serial_loop(tau, lazy):
    law, beta, grid_points = IncrementLaw(0.2, 0.8), 1.5, 40

    def starts():
        rngs = itertools.repeat(np.random.default_rng(7), 30)
        return experiments.tail_normalized_starts(rngs, 0.6, 120, beta=beta)

    v = law.log_mgf(beta)
    speed = v / beta * tau
    grid = np.linspace(-5.0, speed + 5.0, grid_points)
    markov = z = 0
    max_ratio = 0.0
    for cfg in starts():
        profile = front_profile(cfg, law, tau)
        fvals = profile(grid)
        rhs = (1.0 + cfg.tail_weight_estimate) * np.exp(v * tau - beta * grid)
        markov += int(np.any(fvals > rhs))
        max_ratio = max(max_ratio, float(np.max(fvals / rhs)))
        z += int(tau > 0 and profile(speed) > 1.0)
    assert max_ratio > 0
    given = starts() if lazy else list(starts())
    counts = experiments.front_bound_counts(given, law, tau, beta=beta, grid_points=grid_points)
    assert counts == {"markov_violations": markov, "z_violations": z, "max_bound_ratio": max_ratio}


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
    cfg = _tail_normalized(0.5, 150, np.random.default_rng(4))
    prof = front_profile(cfg, GAUSS, 2)
    assert prof(0.0 + front_position(prof)) == pytest.approx(1.0, abs=1e-9)


def test_normalized_profile_shift_covariance():
    cfg = _tail_normalized(0.5, 150, np.random.default_rng(5))
    prof0 = front_profile(cfg, GAUSS, 2)
    shifted = PointConfiguration(cfg.points + 7.3, beta=1.0,
                                 tail_weight_estimate=cfg.tail_weight_estimate * np.exp(-7.3))
    prof1 = front_profile(shifted, GAUSS, 2)
    grid = np.linspace(-1.0, 2.0, 25)
    np.testing.assert_allclose(prof0(grid + front_position(prof0)),
                               prof1(grid + front_position(prof1)), atol=1e-8)


def test_normalized_profile_mean_shape_is_exponential():
    # ensemble mean of the re-centered profile follows e^{-rho y}; log-linear fit
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.5, 20)
    acc = np.zeros_like(grid)
    n_rep = 250
    for _ in range(n_rep):
        prof = front_profile(sample_pp_exponential(1.0, 1500, rng), GAUSS, 2)
        acc += prof(grid + front_position(prof))
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
    assert sum_squares(MassPartition([1.0])) == 1.0
    assert sum_squares(MassPartition([0.5, 0.5])) == 0.5
    part = MassPartition([0.6, 0.3], tail_mass=0.1)
    assert sum_squares(part) == pytest.approx(0.45 + 0.5 * 0.1 * 0.3)


def test_jump_event_trivial_cases():
    rng = np.random.default_rng(8)
    starts = [_tail_normalized(0.5, 50, rng) for _ in range(50)]
    report = jump_event_bound_check(starts, GAUSS, tau=5, ck=99.0, beta=1.0,
                                    rng=np.random.default_rng(9))
    assert report["frequency"] == 0.0 and report["passed"]
    report = jump_event_bound_check(starts, GAUSS, tau=0, ck=0.0, beta=1.0,
                                    rng=np.random.default_rng(10))
    assert report["frequency"] == 0.0 and report["events"] == 0
    with pytest.raises(ValueError):
        jump_event_bound_check(starts, GAUSS, tau=5, ck=0.0, beta=1.0, rng=rng)
