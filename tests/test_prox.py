"""Projections, proximal operators and the constrained quadratic x-update.

Expected values come from independent references: closed forms checked by
hand, 1-D grid minimization, or dense brute force on tiny instances.
"""

import dataclasses

import numpy as np
import pytest

from stocadmm import kernels, solvers
from stocadmm.functions import (L1Norm, Quadratic, SquaredL2Penalty, ZeroFunction,
                                soft_threshold)
from stocadmm.problem import IterateState, ProblemSpec, StructuralConstants
from stocadmm.presets import build_preset
from stocadmm.prox import (SubproblemError, min_quadratic_over_set, prox_map,
                           three_points_check)
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import SolverConfig, SolverError, step

from conftest import scalar_split_spec, ridge_split_spec, small_lasso_preset


# ---------------------------------------------------------------------------
# projections


def test_ball_projection_hand_example():
    assert np.allclose(Ball(2, 1.0).project(np.array([3.0, 4.0])), [0.6, 0.8])


def test_box_projection_clamps():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.allclose(box.project(np.array([-3.0, 5.0])), [-1.0, 2.0])


def test_projection_is_idempotent():
    rng = np.random.default_rng(0)
    for s in (Ball(4, 2.0), Box(-np.ones(4), np.ones(4))):
        for _ in range(20):
            p = s.project(rng.standard_normal(4) * 3)
            assert np.allclose(s.project(p), p, rtol=0, atol=1e-14)
            assert s.contains(p)


def test_ball_projection_inside_the_ball_is_a_bit_equal_copy():
    """Rows with ||z|| <= radius come back with their own bits (the scaling
    radius / max(||z||, radius) is exactly 1) in a new array; a batch with
    one row outside, or a NaN row, is scaled, as the formula scales it."""
    ball = Ball(3, 2.0)

    def formula(z):
        nz = np.sqrt(np.vecdot(z, z))[..., None]
        return z * (ball.radius / np.maximum(nz, ball.radius))

    rng = np.random.default_rng(4)
    inside = rng.standard_normal((4, 3)) * 0.3
    inside[0] = [-0.0, 0.0, 2.0]  # a signed zero and a row on the sphere
    for z in (inside, inside[1], inside[0]):
        out = ball.project(z)
        assert out is not z and not np.shares_memory(out, z)
        assert np.array_equal(out.view(np.int64), formula(z).view(np.int64))
    mixed = np.vstack([inside, [[3.0, 4.0, 0.0]]])
    assert np.array_equal(ball.project(mixed), formula(mixed))
    nan_row = np.array([[0.1, np.nan, 0.2], [0.1, 0.1, 0.1]])
    out = ball.project(nan_row)
    assert np.isnan(out[0]).all() and np.array_equal(out[1], nan_row[1])


def test_contains_takes_a_point_or_rows_and_checks_the_last_axis():
    ball, space, box = Ball(2, 1.0), WholeSpace(2), Box([-1.0, 0.0], [1.0, 1.0])
    assert ball.contains(np.array([0.6, 0.8])) and space.contains(np.array([5.0, 0.0]))
    assert box.contains(np.array([0.6, 0.8]))
    assert not ball.contains(np.array([0.9, 0.9])) and not box.contains(np.array([0.5, -0.1]))
    rows = np.array([[0.6, 0.8], [0.0, 0.5], [-0.1, 0.0]])
    assert ball.contains(rows) and space.contains(rows) and box.contains(rows)
    # every row must be inside, not the rows' joint Frobenius norm
    assert not ball.contains(np.vstack([rows, [[1.0, 0.1]]]))
    assert not box.contains(np.vstack([rows, [[1.0, 1.1]]]))
    # each row inside, though the rows' joint norm is 1.04
    assert ball.contains(np.array([[0.6, 0.0], [0.0, 0.6], [0.6, 0.0]]))
    # inside every set but for the last axis, and a scalar
    for wrong in (np.zeros(3), np.zeros((2, 3)), np.zeros((3, 1)), np.float64(0.5)):
        for X in (ball, space, box):
            assert not X.contains(wrong), (X, wrong)
    assert not Box([0.0], [1.0]).contains(np.full(5, 0.5))


# ---------------------------------------------------------------------------
# proximal operators


def test_soft_threshold_hand_example():
    out = soft_threshold(np.array([2.0, -0.5, -3.0]), 1.0)
    assert np.allclose(out, [1.0, 0.0, -2.0])


def test_soft_threshold_keeps_its_bits_at_the_edge_values():
    """sign(z) * max(|z| - tau, 0), bit for bit, at signed zeros, at +-tau,
    at NaNs of either sign, at infinities and for a 0-d input: a -0.0 input
    gives +0.0 (sign(-0.0) is 0), where copysign(., z) would give -0.0."""
    tau = 0.75

    def formula(z):
        return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)

    z = np.array([0.0, -0.0, tau, -tau, np.nan, -np.nan, np.inf, -np.inf, 0.5, -0.5, 2.0])
    out = soft_threshold(z, tau)
    assert np.array_equal(out.view(np.int64), formula(z).view(np.int64))
    assert not np.signbit(out[1]) and np.signbit(out[3]) and not np.signbit(out[2])
    rows = z[:10].reshape(2, 5)
    assert np.array_equal(soft_threshold(rows, tau).view(np.int64),
                          formula(rows).view(np.int64))
    for value in (-0.0, -2.0, np.nan):
        one = soft_threshold(np.array(value), tau)
        assert np.shape(one) == ()
        assert np.array(one).view(np.int64) == np.array(formula(np.array(value))).view(np.int64)


def test_l1_prox_equals_soft_threshold():
    z = np.array([2.0, -0.5, -3.0])
    out = prox_map(L1Norm(1.0), WholeSpace(3), 1.0)(z)
    assert np.allclose(out, [1.0, 0.0, -2.0])


def test_squared_l2_prox_closed_form():
    f = SquaredL2Penalty(3.0)
    z = np.array([2.0, -4.0])
    # argmin (3/2)||y||^2 + (c/2)||y - z||^2 = c z / (c + 3)
    assert np.allclose(f.prox(z, 1.0), z / 4.0)


def test_prox_is_firmly_nonexpansive():
    rng = np.random.default_rng(3)
    for f in (L1Norm(0.7), SquaredL2Penalty(2.0)):
        for _ in range(50):
            a, b = rng.standard_normal(5) * 3, rng.standard_normal(5) * 3
            pa, pb = f.prox(a, 1.5), f.prox(b, 1.5)
            lhs = float((pa - pb) @ (pa - pb))
            rhs = float((a - b) @ (pa - pb))
            assert lhs <= rhs + 1e-12


def test_prox_map_box_restriction_clamps():
    box = Box(np.array([0.0]), np.array([0.5]))
    out = prox_map(L1Norm(1.0), box, 1.0)(np.array([2.0]))
    # unconstrained prox gives 1.0, the box clamps to 0.5; verify against grid
    assert out[0] == pytest.approx(0.5)
    ys = np.arange(0.0, 0.5 + 1e-6, 1e-6)
    vals = np.abs(ys) + 0.5 * (ys - 2.0) ** 2
    assert out[0] == pytest.approx(ys[np.argmin(vals)], abs=2e-6)


def test_prox_map_ball_only_for_indicator():
    ball = Ball(2, 1.0)
    out = prox_map(ZeroFunction(), ball, 1.0)(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8])
    with pytest.raises(ValueError, match="indicator-only"):
        prox_map(L1Norm(1.0), ball, 1.0)


def test_prox_requires_positive_scaling():
    with pytest.raises(ValueError, match="positive"):
        prox_map(L1Norm(1.0), WholeSpace(2), 0.0)


# theta2 x Y pairings the y-update solves exactly: a ball Y only with theta2 = 0
_D2 = 3
_THETA2 = {"l1": L1Norm(0.4), "sq-l2": SquaredL2Penalty(0.7), "zero": ZeroFunction()}
_Y = {"whole": WholeSpace(_D2), "box": Box(np.full(_D2, -0.3), np.full(_D2, 0.5)),
      "ball": Ball(_D2, 0.6)}
_PAIRS = [(t, y) for t in _THETA2 for y in _Y if y != "ball" or t == "zero"]


def _split_spec(theta2, Y, s=-1.0):
    """x = -y/s, i.e. A = I, B = s I, b = 0, with a quadratic theta1."""
    H = np.diag([1.0, 2.0, 3.0])
    return ProblemSpec(theta1=Quadratic(H, np.array([0.5, -1.0, 0.2])), theta2=theta2,
                       A=np.eye(_D2), B=s * np.eye(_D2), b=np.zeros(_D2),
                       X=Ball(_D2, 2.0), Y=Y, constants=StructuralConstants(M=10.0))


@pytest.mark.parametrize("theta2,Y", _PAIRS)
@pytest.mark.parametrize("s", [-1.0, 2.0])
def test_plan_y_update_is_the_prox_map_bit_for_bit(theta2, Y, s):
    """solve_y_update(v, plan) is the prox of theta2 at v / -s with scale
    beta*s^2, as a prox_map of that scale computes it, for one point and
    (R, d) rows."""
    spec = _split_spec(_THETA2[theta2], _Y[Y], s)
    beta = 1.3
    plan = _stochastic_plan(spec, beta)
    v = 2.0 * np.random.default_rng(4).standard_normal((4, _D2))
    expected = prox_map(spec.theta2, spec.Y, beta * s * s)(v / -s)
    assert np.array_equal(solvers.solve_y_update(v, plan), expected)
    assert np.array_equal(solvers.solve_y_update(v[0], plan), expected[0])
    assert np.array_equal(plan.y_prox(v / -s), expected)


@pytest.mark.parametrize("theta2,Y", _PAIRS)
def test_identity_split_y_is_the_prox_map_bit_for_bit(theta2, Y):
    """The identity-split entry's y is the prox map of scale beta at
    x_{k+1} - lam_k/beta, the point and scale of step() for B = -I."""
    spec = _split_spec(_THETA2[theta2], _Y[Y])
    beta = 1.3
    plan = SolverConfig(variant="stochastic", beta=beta, schedule="constant", eta0=0.5,
                        t_max=1).validate(spec)
    assert plan.takes_identity_split
    rng = np.random.default_rng(9)
    state = IterateState(rng.standard_normal((2, _D2)), rng.standard_normal((2, _D2)),
                         rng.standard_normal((2, _D2)))
    lam0 = state.lam
    kernels.admm_identity_split(plan, None, None, state)
    expected = prox_map(spec.theta2, spec.Y, beta)(state.x - lam0 / beta)
    assert np.array_equal(state.y, expected)


@pytest.mark.parametrize("theta2,Y", _PAIRS)
def test_prox_map_refuses_a_scale_that_is_not_positive(theta2, Y):
    for c in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="prox scaling c must be positive"):
            prox_map(_THETA2[theta2], _Y[Y], c)


@pytest.mark.parametrize("theta2", ["l1", "sq-l2"])
def test_ball_y_needs_theta2_zero_at_plan_time(theta2):
    spec = _split_spec(_THETA2[theta2], _Y["ball"])
    with pytest.raises(SolverError, match="y-update over a ball Y is exact only for "
                                          "theta2 = 0"):
        _stochastic_plan(spec)


# ---------------------------------------------------------------------------
# constrained quadratic minimization


def _quad_val(H0, shift, rhs, x):
    return 0.5 * x @ (H0 @ x) + 0.5 * shift * x @ x - rhs @ x


def _stochastic_plan(spec, beta=1.0):
    return SolverConfig(variant="stochastic", beta=beta, schedule="constant",
                        eta0=1.0, t_max=0).validate(spec)


def _eig(H0):
    return H0, np.linalg.eigh(H0)


def test_scalar_subproblem_hand_example():
    # (1 + 1) x = -1  =>  x = -1/2
    spec = scalar_split_spec()
    state = IterateState.zeros(spec)
    step(state, _stochastic_plan(spec), np.array([1.0]), eta=1.0)
    assert state.x[0] == pytest.approx(-0.5, abs=1e-12)


def test_ball_solve_matches_brute_force_2d():
    rng = np.random.default_rng(8)
    H0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    ball = Ball(2, 1.0)
    grid = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    for _ in range(5):
        rhs = rng.standard_normal(2) * 3
        shift = float(rng.uniform(0.1, 2.0))
        x = min_quadratic_over_set(*_eig(H0), shift, rhs, ball)
        assert np.linalg.norm(x) <= 1.0 + 1e-12
        vals = (0.5 * np.einsum("ij,jk,ik->i", pts, H0, pts)
                + 0.5 * shift * np.einsum("ij,ij->i", pts, pts) - pts @ rhs)
        assert _quad_val(H0, shift, rhs, x) <= vals.min() + 1e-6


def test_box_solve_satisfies_stationarity():
    rng = np.random.default_rng(9)
    H0 = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 1.0]])
    box = Box(-np.ones(3) * 0.5, np.ones(3) * 0.5)
    for _ in range(5):
        rhs = rng.standard_normal(3) * 2
        x = min_quadratic_over_set(*_eig(H0), 1.0, rhs, box)
        grad = H0 @ x + x - rhs
        resid = np.linalg.norm(x - box.project(x - grad))
        assert resid <= 1e-8


def test_whole_space_solve_is_the_linear_solve():
    H0 = np.array([[2.0, 0.0], [0.0, 4.0]])
    rhs = np.array([1.0, -2.0])
    x = min_quadratic_over_set(*_eig(H0), 1.0, rhs, WholeSpace(2))
    assert np.allclose(x, np.linalg.solve(H0 + np.eye(2), rhs), atol=1e-12)


def test_whole_space_solve_follows_the_shift():
    # one eigendecomposition serves every shift
    eig = _eig(np.eye(2))
    rhs = np.array([1.0, 1.0])
    a = min_quadratic_over_set(*eig, 1.0, rhs, WholeSpace(2))
    b = min_quadratic_over_set(*eig, 3.0, rhs, WholeSpace(2))
    assert np.allclose(a, rhs / 2.0)
    assert np.allclose(b, rhs / 4.0)


def test_ball_solve_of_rows_matches_one_row_solves():
    # rows inside the ball, on its boundary after the Newton solve, and one
    # far outside, in one (R, d) call
    rng = np.random.default_rng(10)
    M = rng.standard_normal((5, 5))
    eig = _eig(M @ M.T / 5)
    ball = Ball(5, 1.0)
    rhs = rng.standard_normal((6, 5)) * np.array([[0.05], [4.0], [0.1], [9.0], [1e3], [0.2]])
    x = min_quadratic_over_set(*eig, 0.7, rhs, ball)
    assert x.shape == rhs.shape
    inside = np.linalg.norm(x, axis=1) < 1.0 - 1e-9
    assert inside.any() and not inside.all()
    for r in range(len(rhs)):
        assert np.max(np.abs(x[r] - min_quadratic_over_set(*eig, 0.7, rhs[r], ball))) <= 1e-12


def test_ball_newton_that_does_not_converge_ends_the_run(monkeypatch):
    """The ball solve's Newton loop raises SubproblemError, with its last
    |phi|, once SECULAR_MAX_ITERS iterations leave a row unconverged, and
    the run ends with that error.  With one iteration allowed, the first
    step whose unconstrained minimizer leaves the ball fails."""
    from stocadmm import prox
    preset = build_preset("fused-lasso-graph", seed=2, n=30, d=4)
    spec = dataclasses.replace(preset.spec, X=Ball(preset.spec.d1, 0.3))
    cfg = SolverConfig(schedule="constant", eta0=1.0, t_max=300)
    [clean] = solvers.run(spec, cfg, preset.make_oracle(0).presample(cfg.t_max))
    assert clean.error is None
    monkeypatch.setattr(prox, "SECULAR_MAX_ITERS", 1)
    [cut] = solvers.run(spec, cfg, preset.make_oracle(0).presample(cfg.t_max))
    assert cut.error.startswith("iteration ")
    assert "ball-constrained Newton iteration did not converge (last residual" in cut.error
    assert len(cut) < cfg.t_max
    with pytest.raises(SubproblemError) as info:
        prox._secular_newton(np.array([[3.0, 4.0]]), np.array([1.0, 2.0]), 1.0)
    assert info.value.residual > 0


def test_box_solve_of_rows_keeps_each_rows_converged_iterate():
    # rows whose projected-gradient loops converge after different counts
    rng = np.random.default_rng(11)
    H0 = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 1.0]])
    box = Box(-np.ones(3) * 0.5, np.ones(3) * 0.5)
    rhs = rng.standard_normal((4, 3)) * np.array([[0.1], [2.0], [5.0], [0.5]])
    x = min_quadratic_over_set(*_eig(H0), 0.3, rhs, box)
    for r in range(len(rhs)):
        one = min_quadratic_over_set(*_eig(H0), 0.3, rhs[r], box)
        assert np.max(np.abs(x[r] - one)) <= 1e-12


@pytest.mark.parametrize("X", [Ball(5, 1.0), Box(-0.5 * np.ones(5), 0.5 * np.ones(5)),
                               WholeSpace(5)], ids=["ball", "box", "whole-space"])
def test_isotropic_solve_is_the_projection(X, monkeypatch):
    """An isotropic H0 = w*I, whose basis the plan holds as None, is solved
    as the projection of rhs / (w + shift) onto X, with no inner iteration.
    The eigenbasis solve with the identity basis written out is its
    independent reference: secular Newton over a ball, within 1e-14 for rows
    inside the ball and outside it, and projected gradient over a box,
    within that loop's tolerance."""
    from stocadmm import prox
    newton = [0]

    def counted(q, w, radius, real=prox._secular_newton):
        newton[0] += 1
        return real(q, w, radius)

    monkeypatch.setattr(prox, "_secular_newton", counted)
    rng = np.random.default_rng(12)
    w, shift = np.full(5, 1.3), 0.7
    rhs = rng.standard_normal((6, 5)) * np.array([[0.05], [4.0], [0.1], [9.0], [1e3], [0.2]])
    x = min_quadratic_over_set(1.3 * np.eye(5), (w, None), shift, rhs, X)
    assert newton[0] == 0
    assert np.array_equal(x, X.project(rhs / (w + shift)))
    ref = min_quadratic_over_set(1.3 * np.eye(5), (w, np.eye(5)), shift, rhs, X)
    tol = prox.INNER_TOL if isinstance(X, Box) else 1e-14
    assert np.max(np.abs(x - ref)) <= tol
    if isinstance(X, Ball):
        inside = np.linalg.norm(rhs / (w + shift), axis=1) <= X.radius
        assert inside.any() and not inside.all() and newton[0] == 1


def test_x_subproblem_validates_inputs():
    spec = scalar_split_spec()
    state = IterateState.zeros(spec)
    with pytest.raises(ValueError, match="eta must be positive"):
        step(state, _stochastic_plan(spec), np.zeros(1), eta=0.0)
    with pytest.raises(ValueError, match="needs a sampled subgradient g"):
        step(state, _stochastic_plan(spec), None, eta=1.0)
    with pytest.raises(ValueError, match="solver.beta: must be > 0"):
        _stochastic_plan(spec, beta=-1.0)


def test_y_update_requires_scaled_identity_b():
    spec = ridge_split_spec()
    bad = type(spec)(
        theta1=spec.theta1, theta2=spec.theta2,
        A=spec.A, B=np.triu(np.ones((spec.d2, spec.d2))), b=spec.b,
        X=spec.X, Y=spec.Y, constants=spec.constants)
    with pytest.raises(ValueError, match="B = s\\*I"):
        SolverConfig(t_max=0).validate(bad)


def test_y_update_matches_grid_search_1d():
    spec = scalar_split_spec(l1=0.4)
    lam = np.array([0.7])
    x_next = np.array([1.2])
    beta = 2.0
    # the prox of theta2 at v / -s with scale beta*s^2, s = -1
    s = -1.0
    y = prox_map(spec.theta2, spec.Y, beta * s * s)(
        (spec.A @ x_next - spec.b - lam / beta) / -s)
    ys = np.arange(-5.0, 5.0, 1e-6)
    vals = 0.4 * np.abs(ys) + 0.5 * beta * (x_next[0] - ys - lam[0] / beta) ** 2
    assert y[0] == pytest.approx(ys[np.argmin(vals)], abs=2e-6)


# ---------------------------------------------------------------------------
# optimality certificates


def test_three_points_relation_at_ball_solutions():
    preset = small_lasso_preset()
    spec = preset.spec
    rng = np.random.default_rng(12)
    state = IterateState.zeros(spec)
    state.x = spec.X.project(rng.standard_normal(spec.d1))
    state.y = rng.standard_normal(spec.d2)
    state.lam = rng.standard_normal(spec.m)
    beta, eta = 1.0, 0.05
    g = spec.theta1.subgrad(state.x) + rng.standard_normal(spec.d1)
    x_prev, y_prev, lam_prev = state.x, state.y, state.lam
    x_star = step(state, _stochastic_plan(spec, beta), g, eta).x
    state.x, state.y, state.lam = x_prev, y_prev, lam_prev
    # effective gradient of the full subproblem objective at the minimizer
    v = spec.b + state.lam / beta - spec.B @ state.y
    g_eff = g + beta * (spec.A.T @ (spec.A @ x_star - v))
    holds, resid = three_points_check(x_star, state.x, g_eff, 1.0 / eta, spec.X, tol=1e-9)
    assert holds, f"residual {resid}"
    for _ in range(20):
        probe = spec.X.project(spec.X.sample(rng))
        # first-order optimality over the set, whose worst case the check takes
        slope = g_eff @ (probe - x_star) + (x_star - state.x) @ (probe - x_star) / eta
        assert slope >= -1e-8 and -slope <= resid + 1e-12


def test_three_points_detects_a_non_minimizer():
    x_bad = np.array([1.0])
    u = np.array([0.0])
    g = np.array([5.0])  # steep ascent direction: moving back is better
    holds, resid = three_points_check(x_bad, u, g, 1.0, Ball(1, 1.0))
    # q = g + (x - u) = 6, so the worst point -1 gives <x - (-1), q> = 12
    assert not holds and resid == 12.0
