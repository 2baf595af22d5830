import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from quasistat import experiments
from quasistat.analysis import (
    FrontRootError,
    ShallowTruncationError,
    StepTestFunction,
    front_position,
    front_profile,
    gap_vector,
    gen_functional_mc,
    gen_functional_pp_exponential,
    jump_event_bound_check,
    normalized_profile,
    sum_squares,
)
from quasistat.dynamics import IncrementLaw, shift_tail
from quasistat.pointproc import (
    MassPartition,
    PointConfiguration,
    sample_pp_exponential,
)

GAUSS = IncrementLaw.gaussian(0.0, 1.0)


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


def test_profile_rejects_unsupported_law():
    with pytest.raises(ValueError):
        front_profile(PointConfiguration([0.0]), IncrementLaw.uniform(0, 1), 2)


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


def test_normalized_profile_is_one_at_origin():
    cfg = _tail_normalized(0.5, 150, np.random.default_rng(4))
    prof = front_profile(cfg, GAUSS, 2)
    g = normalized_profile(prof)
    assert g(0.0) == pytest.approx(1.0, abs=1e-9)


def test_normalized_profile_shift_covariance():
    cfg = _tail_normalized(0.5, 150, np.random.default_rng(5))
    g0 = normalized_profile(front_profile(cfg, GAUSS, 2))
    shifted = PointConfiguration(cfg.points + 7.3, beta=1.0,
                                 tail_weight_estimate=cfg.tail_weight_estimate * np.exp(-7.3))
    g1 = normalized_profile(front_profile(shifted, GAUSS, 2))
    grid = np.linspace(-1.0, 2.0, 25)
    np.testing.assert_allclose(g0(grid), g1(grid), atol=1e-8)


def test_normalized_profile_mean_shape_is_exponential():
    # ensemble mean of the re-centered profile follows e^{-rho y}; log-linear fit
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.5, 20)
    acc = np.zeros_like(grid)
    n_rep = 250
    for _ in range(n_rep):
        cfg = sample_pp_exponential(1.0, 1500, rng)
        acc += normalized_profile(front_profile(cfg, GAUSS, 2))(grid)
    logmean = np.log(acc / n_rep)
    slope, intercept = np.polyfit(grid, logmean, 1)
    resid = logmean - (slope * grid + intercept)
    r2 = 1.0 - resid.var() / logmean.var()
    assert r2 > 0.99


def test_step_function_validation_and_eval():
    with pytest.raises(ValueError):
        StepTestFunction.single(-1.0, 1.0)
    with pytest.raises(ValueError):
        StepTestFunction.single(1.0, 0.0)
    f = StepTestFunction((1.0, 2.0), (1.0, 0.5))
    np.testing.assert_allclose(f(np.array([-0.1, 0.0, 0.4, 0.7, 1.5])),
                               [0.0, 3.0, 3.0, 1.0, 0.0])


def test_gen_functional_zero_function_is_one():
    configs = [PointConfiguration([0.0, -2.0, -4.0])]
    f = StepTestFunction.single(0.0, 1.0)
    mean, se = gen_functional_mc(configs, f)
    assert mean == 1.0
    assert gen_functional_pp_exponential(1.0, f) == 1.0
    assert gen_functional_pp_exponential(1.0, f, include_leader_term=True) == 1.0


def test_gen_functional_large_amplitude_kills_leader():
    configs = [PointConfiguration([0.0, -5.0])]
    mean, _ = gen_functional_mc(configs, StepTestFunction.single(60.0, 1.0))
    assert mean < 1e-20


def test_gen_functional_shallow_truncation_rejected():
    with pytest.raises(ShallowTruncationError):
        gen_functional_mc([PointConfiguration([0.0, -0.5])], StepTestFunction.single(1.0, 1.0))


def test_gen_functional_closed_form_single_step():
    a = d = np.log(2.0)
    f = StepTestFunction.single(a, d)
    assert gen_functional_pp_exponential(1.0, f) == pytest.approx(2.0 / 3.0)
    c = (1 - np.exp(-a)) * (np.exp(1.0 * d) - 1.0)
    assert gen_functional_pp_exponential(1.0, f) == pytest.approx(1.0 / (1.0 + c))
    assert gen_functional_pp_exponential(1.0, f, include_leader_term=True) == pytest.approx(
        np.exp(-a) / (1.0 + c)
    )


def test_gen_functional_closed_form_matches_quadrature():
    f = StepTestFunction((0.4, 1.1), (0.8, 0.3))
    rho = 1.3
    c, _ = quad(lambda u: (1.0 - np.exp(-f(np.array(u)))) * rho * np.exp(rho * u), 0.0, 5.0,
                points=[0.3, 0.8], epsabs=1e-12)
    assert gen_functional_pp_exponential(rho, f) == pytest.approx(1.0 / (1.0 + c), abs=1e-10)


def test_gen_functional_mc_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    points = experiments.top_points(itertools.repeat(rng, 4000), 1.0, 100, 100)
    check = experiments.gen_functional_check(points, 1.0, np.log(2.0), np.log(2.0))
    assert abs(check["mc_estimate"] - check["closed_form"]) <= 3.0 * check["mc_se"]


def test_gap_vector():
    cfg = PointConfiguration([3.0, 1.0, 0.0])
    np.testing.assert_allclose(gap_vector(cfg, 2), [2.0, 1.0])
    np.testing.assert_allclose(gap_vector(PointConfiguration([1.0, 1.0, 1.0]), 2), [0.0, 0.0])
    with pytest.raises(ValueError):
        gap_vector(cfg, 3)


def test_sum_squares():
    assert sum_squares(MassPartition([1.0])) == 1.0
    assert sum_squares(MassPartition([0.5, 0.5])) == 0.5
    part = MassPartition([0.6, 0.3], tail_mass=0.1)
    assert sum_squares(part) == pytest.approx(0.45 + 0.5 * 0.1 * 0.3)


def test_jump_event_trivial_cases():
    rng = np.random.default_rng(8)
    starts = [_tail_normalized(0.5, 50, rng) for _ in range(50)]
    report = jump_event_bound_check(starts, GAUSS, tau=5, K=100.0, C=-1.0, beta=1.0,
                                    rng=np.random.default_rng(9))
    assert report.frequency == 0.0 and report.passed
    report = jump_event_bound_check(starts, GAUSS, tau=0, K=1.0, C=-1.0, beta=1.0,
                                    rng=np.random.default_rng(10))
    assert report.frequency == 0.0 and report.n_events == 0
    with pytest.raises(ValueError):
        jump_event_bound_check(starts, GAUSS, tau=5, K=1.0, C=-1.0, beta=1.0, rng=rng)
