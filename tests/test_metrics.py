"""Reference solutions, expectation estimates, rate fits, tail checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stocadmm.functions import Quadratic, SquaredL2Penalty
from stocadmm.metrics import (HighProbResult, ReferenceSolution,
                              compute_reference, estimate_expectation,
                              fit_rate, high_prob_check, high_prob_threshold,
                              rate_bound, require_tail_bound)
from stocadmm.problem import ProblemSpec, StructuralConstants
from stocadmm.sets import Ball, WholeSpace
from stocadmm.solvers import SolverConfig, run

from conftest import ridge_split_spec, small_lasso_preset


# ---------------------------------------------------------------------------
# reference solutions


def _two_quadratics_spec(c=2.0):
    # min ||x - c||^2/2 + ||y||^2/2 with x = y: optimum x = y = c/2
    return ProblemSpec(
        theta1=Quadratic(np.eye(1), np.array([-c])),
        theta2=SquaredL2Penalty(1.0),
        A=np.eye(1), B=-np.eye(1), b=np.zeros(1),
        X=WholeSpace(1), Y=WholeSpace(1),
        constants=StructuralConstants(M=1.0))


def test_direct_stationarity_solve_hand_example():
    ref = compute_reference(_two_quadratics_spec(2.0), "kkt-direct")
    assert ref.x_star[0] == pytest.approx(1.0, abs=1e-12)
    assert ref.y_star[0] == pytest.approx(1.0, abs=1e-12)
    # theta = x^2/2 - 2x + y^2/2 at x = y = 1
    assert ref.theta_star == pytest.approx(-1.0, abs=1e-12)


def test_direct_and_iterative_references_agree():
    spec = ridge_split_spec()
    direct = compute_reference(spec, "kkt-direct")
    iterative = compute_reference(spec, "long-admm", beta=1.0, tol=1e-11)
    assert abs(direct.theta_star - iterative.theta_star) <= 1e-7
    assert np.linalg.norm(direct.x_star - iterative.x_star) <= 1e-5


def test_auto_prefers_direct_solve_on_quadratics():
    assert compute_reference(_two_quadratics_spec(), "auto").method == "kkt-direct"


def test_lasso_reference_satisfies_subgradient_certificate():
    preset = small_lasso_preset()
    spec = preset.spec
    ref = compute_reference(spec, "long-admm", beta=1.0, tol=1e-10)
    # stationarity of the collapsed problem at an interior solution:
    # grad f1(x*) + lam_reg * sign(x*) = 0 on the support, |grad| <= lam_reg off it
    assert np.linalg.norm(spec.residual(ref.x_star, ref.y_star)) <= 1e-8
    assert float(np.linalg.norm(ref.x_star)) < spec.X.radius - 1e-6
    g = spec.theta1.grad(ref.x_star)
    lam_reg = spec.theta2.coef
    on = np.abs(ref.x_star) > 1e-7
    assert np.all(np.abs(g[on] + lam_reg * np.sign(ref.x_star[on])) <= 1e-6)
    assert np.all(np.abs(g[~on]) <= lam_reg + 1e-6)


def test_grid_search_certifies_tiny_instance():
    spec = _two_quadratics_spec(0.5)
    constrained = ProblemSpec(
        theta1=spec.theta1, theta2=spec.theta2,
        A=spec.A, B=spec.B, b=spec.b,
        X=Ball(1, 2.0), Y=WholeSpace(1), constants=spec.constants)
    direct = compute_reference(spec, "kkt-direct")
    grid = compute_reference(constrained, "grid-search", resolution=1e-4)
    assert grid.theta_star >= direct.theta_star - 1e-12
    assert grid.theta_star - direct.theta_star <= 1e-6
    assert abs(grid.x_star[0] - direct.x_star[0]) <= 1e-4


def test_grid_search_rejects_large_instances():
    spec = ridge_split_spec()
    with pytest.raises(ValueError, match="d1 \\+ d2 <= 4"):
        compute_reference(spec, "grid-search")


def test_reference_budget_exhaustion_raises():
    preset = small_lasso_preset()
    with pytest.raises(RuntimeError, match="exhausted budget"):
        compute_reference(preset.spec, "long-admm", tol=1e-14, budget=10)


def test_reference_loop_reuses_the_dual_step_residual(monkeypatch):
    spec = small_lasso_preset().spec
    calls = []
    residual = ProblemSpec.residual

    def counted(self, x, y):
        calls.append(1)
        return residual(self, x, y)

    monkeypatch.setattr(ProblemSpec, "residual", counted)
    ref = compute_reference(spec, "long-admm", beta=1.0)
    assert calls == []
    # the residual it stopped on is the constraint residual of the result
    monkeypatch.undo()
    feas = float(np.linalg.norm(spec.residual(ref.x_star, ref.y_star)))
    assert feas <= ref.certified_tolerance + 1e-14


def test_d_y_star_b():
    ref = ReferenceSolution(np.array([1.0]), np.array([2.0]), 0.0, None, "x", 0.0)
    spec = _two_quadratics_spec()
    assert ref.d_y_star_b(spec) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# expectation estimates and rate fitting


class _FakeTraj:
    def __init__(self, k, err):
        self.k = np.asarray(k)
        self._err = np.asarray(err, dtype=float)

    def err_curve(self, averaging):
        return self._err


def test_estimate_expectation_hand_case():
    trajs = [_FakeTraj([1, 2], [1.0, 2.0]), _FakeTraj([1, 2], [3.0, 4.0])]
    mean, stderr = estimate_expectation(trajs, [1, 2])
    assert np.allclose(mean, [2.0, 3.0])
    # std([1,3]) = sqrt(2) with ddof=1, stderr = sqrt(2)/sqrt(2) = 1
    assert np.allclose(stderr, [1.0, 1.0])


def test_estimate_expectation_needs_two_runs():
    with pytest.raises(ValueError, match="at least two"):
        estimate_expectation([_FakeTraj([1], [1.0])], [1])


def test_estimate_expectation_checks_grid_coverage():
    trajs = [_FakeTraj([1, 2], [1.0, 2.0]), _FakeTraj([1, 3], [1.0, 2.0])]
    with pytest.raises(ValueError, match="missing rows"):
        estimate_expectation(trajs, [1, 2])


def test_fit_rate_recovers_exact_power_law():
    ts = np.unique(np.geomspace(1, 1e5, 60).astype(int))
    fit = fit_rate(ts, 3.0 / np.sqrt(ts), (10, 1e5))
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_log_factor_flattens_the_slope():
    ts = np.unique(np.geomspace(10, 1e5, 60).astype(int))
    fit = fit_rate(ts, np.log(ts) / ts, (1e2, 1e5))
    assert -1.0 < fit.slope < -0.85


def test_fit_rate_constant_curve_has_zero_slope():
    ts = np.unique(np.geomspace(1, 1e4, 40).astype(int))
    fit = fit_rate(ts, np.full(len(ts), 2.5), (10, 1e4))
    assert abs(fit.slope) <= 1e-12


def test_fit_rate_window_validation():
    ts = np.arange(1, 100)
    errs = 1.0 / ts
    with pytest.raises(ValueError, match="t_lo < t_hi"):
        fit_rate(ts, errs, (10, 10))
    with pytest.raises(ValueError, match="fewer than 5"):
        fit_rate(ts, errs, (97, 99))
    bad = errs.copy()
    bad[50] = 0.0
    with pytest.raises(ValueError, match="nonpositive"):
        fit_rate(ts, bad, (10, 90))


# ---------------------------------------------------------------------------
# theoretical bound evaluators


def test_bound_formulas_hand_values():
    # each term evaluated by hand at t = 4, with D_X = 1, D_yB = 2,
    # beta = 1 and rho = 1
    def bound(variant="stochastic", schedule="convex", **constants):
        spec = SimpleNamespace(constants=StructuralConstants(**constants),
                               diameter_x=1.0)
        return rate_bound(4, SolverConfig(variant=variant, schedule=schedule,
                                          beta=1.0, rho=1.0), spec, 2.0)

    assert bound(M=2.0) == pytest.approx(math.sqrt(2) + 5.0 / 8.0)
    for variant in ("deterministic", "linearized"):
        assert bound(variant, M=2.0) == pytest.approx(0.5 + 0.125)
    sc = bound(schedule="strongly-convex", M=1.0, mu=0.5)
    assert sc == pytest.approx(math.log(4) / 2.0 + 0.0625 + 0.5 + 0.125)
    sm = bound(schedule="smooth", M=1.0, sigma=1.0, L=2.0)
    assert sm == pytest.approx(math.sqrt(2) / 2.0 + 0.25 + 0.5 + 0.125)
    with pytest.raises(ValueError, match="constant schedule has no rate bound"):
        bound(schedule="constant", M=2.0)
    spec = SimpleNamespace(constants=StructuralConstants(M=2.0), diameter_x=1.0)
    solver = SolverConfig(beta=1.0, rho=1.0)
    thr = high_prob_threshold(4, 2.0, solver, spec, 2.0)
    assert thr == pytest.approx((1.0 + 1.0 + 2.0 * math.sqrt(4.0)) * math.sqrt(2)
                                + 5.0 / 8.0)
    # the terms rate_bound sums, in the order of operations of the formula
    m1 = math.sqrt(2.0) * 1.0 * 2.0 / math.sqrt(4)
    m2 = (1.0 * 2.0**2 + 1.0**2 / 1.0) / (2.0 * 4)
    assert thr == (1.0 + 0.5 * 2.0 + 2.0 * math.sqrt(2.0 * 2.0)) * m1 + m2


# ---------------------------------------------------------------------------
# tail checks

# M = 1 and a diameter of 1: with beta = rho = 1 and d_yb = 1 every term of
# the tail level is a power of t
_UNIT_SPEC = SimpleNamespace(constants=StructuralConstants(M=1.0), diameter_x=1.0)


def test_high_prob_check_counts_exceedances():
    errs = [0.1] * 95 + [100.0] * 5
    res = high_prob_check(errs, 100, 0.1, SolverConfig(), _UNIT_SPEC, 1.0)
    assert res.exceed_fraction == pytest.approx(0.05)
    assert res.bound == pytest.approx(min(2.0 * math.exp(-0.1), 1.0))
    assert res.passed  # bound > 0.9 here, vacuously satisfied


def test_high_prob_large_omega_fails_on_heavy_tail():
    errs = [1e6] * 100
    res = high_prob_check(errs, 10_000, 5.0, SolverConfig(), _UNIT_SPEC, 1.0)
    assert res.exceed_fraction == 1.0
    assert not res.passed


def test_high_prob_requires_bounded_oracle():
    with pytest.raises(ValueError, match="bounded-noise oracle"):
        require_tail_bound(SolverConfig(), bounded_oracle=False)
    for cfg in (SolverConfig(variant="linearized"), SolverConfig(schedule="smooth")):
        with pytest.raises(ValueError, match="convex schedule only"):
            require_tail_bound(cfg, bounded_oracle=True)
    require_tail_bound(SolverConfig(), bounded_oracle=True)
