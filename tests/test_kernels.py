"""Batched iteration kernel: agreement with the step-by-step solver path,
snapshot bookkeeping, the exact-oracle mode, eligibility read off the spec
and the catalog's batched formulas."""

import numpy as np
import pytest

from stocadmm import kernels
from stocadmm.functions import (HingeLoss, L1Norm, LeastSquares, Quadratic,
                                SquaredL2Penalty, ZeroFunction, soft_threshold)
from stocadmm.harness import _kernel_eligible, run_replications
from stocadmm.oracle import SampleBuffer
from stocadmm.presets import Preset, build_preset
from stocadmm.problem import IterateState, ProblemSpec, StructuralConstants, err_rho
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import SolverConfig, run


def _assert_agrees(kern, general):
    assert np.array_equal(kern.k, general.k)
    assert np.max(np.abs(kern.err_rho_eq2 - general.err_rho_eq2)) <= 1e-10
    assert np.max(np.abs(kern.err_rho_eq10 - general.err_rho_eq10)) <= 1e-10
    ks, gs = kern.final_state, general.final_state
    assert ks.k == gs.k
    assert np.max(np.abs(ks.x - gs.x)) <= 1e-12
    assert np.max(np.abs(ks.lam - gs.lam)) <= 1e-12
    for avg in ("avg_x_shifted", "avg_x_aligned", "avg_y"):
        assert np.max(np.abs(getattr(ks, avg) - getattr(gs, avg))) <= 1e-10, avg


@pytest.mark.parametrize("name", ["lasso-split", "hinge-svm-split"])
def test_kernel_agrees_with_step_by_step_solver(name):
    preset = build_preset(name, seed=2, n=30, d=4)
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=200)
    grid = np.arange(1, 201)
    kern = run_replications(preset, solver, 4, grid, theta_star=0.0)[3]
    general = run(spec, solver, oracle=preset.make_oracle(3), theta_star=0.0,
                  record_at=grid)
    _assert_agrees(kern, general)


@pytest.mark.parametrize("name, params, solver_kw, grid", [
    ("lasso-split", {}, dict(schedule="convex"), None),
    ("strongly-convex-lasso", {}, dict(schedule="strongly-convex"), None),
    ("hinge-svm-split", {}, dict(schedule="convex"), None),
    ("lasso-split", {"oracle": "exact"}, dict(schedule="constant", eta0=0.1), None),
    ("hinge-svm-split", {"oracle": "exact"}, dict(schedule="constant", eta0=0.1), None),
    ("lasso-split", {}, dict(schedule="convex"), [1, 7, 60, 300]),
], ids=["lasso-split", "strongly-convex-lasso", "hinge-svm-split",
        "exact-oracle", "hinge-exact-oracle", "sparse-grid"])
def test_batched_kernel_matches_step_by_step(name, params, solver_kw, grid):
    preset = build_preset(name, seed=2, n=30, d=4, **params)
    solver = SolverConfig(variant="stochastic", t_max=300, **solver_kw)
    grid = np.arange(1, 301) if grid is None else np.array(grid)
    batched = run_replications(preset, solver, 3, grid, theta_star=0.0)
    assert len(batched) == 3
    for stream, kern in enumerate(batched):
        general = run(preset.spec, solver, oracle=preset.make_oracle(stream),
                      theta_star=0.0, record_at=grid)
        _assert_agrees(kern, general)


def test_kernel_snapshot_grid_positions():
    preset = build_preset("lasso-split", seed=1, n=20, d=3)
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=50)
    idx = np.stack([preset.make_oracle(s).presample(50).indices for s in (0, 1)])

    def rows_at(grid):
        zeros = np.zeros((2, spec.d1))
        return kernels.admm_identity_split(spec, solver, idx, None,
                                           IterateState(zeros, zeros, zeros),
                                           0.0, grid)

    sparse, full = rows_at(np.array([10, 50])), rows_at(np.arange(1, 51))
    for s, f in zip(sparse, full):
        assert np.array_equal(s.k, [10, 50])
        for col in ("eta", "obj_gap_eq2", "feas_eq2", "obj_gap_eq10", "feas_eq10"):
            assert np.array_equal(getattr(s, col), getattr(f, col)[[9, 49]])


def test_exact_oracle_sentinel_uses_full_gradient(monkeypatch):
    preset = build_preset("lasso-split", seed=1, n=20, d=3, oracle="exact")
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="constant", eta0=0.1,
                          t_max=1)
    seen = {}
    kernel = kernels.admm_identity_split

    def spy(spec, cfg, idx, noise, *rest):
        seen.update(idx=idx, noise=noise)
        return kernel(spec, cfg, idx, noise, *rest)

    monkeypatch.setattr(kernels, "admm_identity_split", spy)
    trajectories = run_replications(preset, solver, 2, np.array([1]), None)
    assert seen["idx"] is None and seen["noise"] is None
    # one step from zero by hand: full least-squares gradient, prox step,
    # ball projection, soft-threshold, dual ascent (beta = 1)
    f = spec.theta1
    g = -f.design.T @ f.targets / f.n
    x = -g / (1.0 + 1.0 / 0.1)
    x *= min(1.0, spec.X.radius / np.linalg.norm(x))
    y = soft_threshold(x, spec.theta2.coef)
    for traj in trajectories:
        state = traj.final_state
        assert np.allclose(state.x, x, atol=1e-15)
        assert np.allclose(state.y, y, atol=1e-15)
        assert np.allclose(state.lam, y - x, atol=1e-15)


def test_identity_split_spec_with_box_x_takes_the_kernel():
    # not a shipped preset: the kernel applies to any identity split
    rng = np.random.default_rng(5)
    n, d = 30, 4
    design = rng.standard_normal((n, d))
    spec = ProblemSpec(
        theta1=LeastSquares(design, design @ np.full(d, 2.0)),
        theta2=L1Norm(0.1),
        A=np.eye(d), B=-np.eye(d), b=np.zeros(d),
        X=Box(np.full(d, -0.25), np.full(d, 0.25)), Y=WholeSpace(d),
        constants=StructuralConstants(M=10.0),
    )
    preset = Preset("box-lasso", spec, {}, 3, "finite-sum")
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=300)
    assert _kernel_eligible(preset, solver)
    grid = np.arange(1, 301)
    batched = run_replications(preset, solver, 3, grid, theta_star=0.0)
    for stream, kern in enumerate(batched):
        general = run(spec, solver, oracle=preset.make_oracle(stream),
                      theta_star=0.0, record_at=grid)
        _assert_agrees(kern, general)
    # the box is active, so the projection is exercised
    assert any(np.any(np.abs(kern.final_state.x) == 0.25) for kern in batched)


def test_catalog_batched_rows_match_one_point_calls():
    # R == d, so an (R, d) argument read as a d x d matrix would go unnoticed
    rng = np.random.default_rng(0)
    n, d = 30, 4
    design = rng.standard_normal((n, d))
    targets = rng.standard_normal(n)
    labels = np.where(rng.standard_normal(n) < 0.0, -1.0, 1.0)
    P = rng.standard_normal((d, d))
    quad = Quadratic(P @ P.T, rng.standard_normal(d))
    x = rng.standard_normal((d, d))
    idx = rng.integers(0, n, size=d)

    def rows_agree(batched, one_point):
        assert batched.shape == x.shape
        for r in range(d):
            assert np.max(np.abs(batched[r] - one_point(r))) <= 1e-15

    def values_agree(batched, one_point):
        # a batched product may sum in another order than the 1-D one
        assert batched.shape == (d,)
        for r in range(d):
            assert abs(batched[r] - one_point(r)) <= 1e-15 * (1.0 + abs(one_point(r)))

    # stacked draws of R streams of t = d steps each
    draws = SampleBuffer(rng.integers(0, n, size=(d, d)),
                         rng.standard_normal((d, d, d)))
    exact = SampleBuffer(None, draws.noise)

    for f in (LeastSquares(design, targets, mu=0.1), HingeLoss(design, labels),
              quad, L1Norm(0.3)):
        rows_agree(f.subgrad(x), lambda r: f.subgrad(x[r]))
        rows_agree(exact.subgradient(f, x, 2),
                   lambda r: f.subgrad(x[r]) + draws.noise[r, 2])
        if hasattr(f, "component_grad"):
            rows_agree(f.component_grad(x, idx),
                       lambda r: f.component_grad(x[r], int(idx[r])))
            for k in range(d):
                rows_agree(draws.subgradient(f, x, k),
                           lambda r: (f.component_grad(x[r], int(draws.indices[r, k]))
                                      + draws.noise[r, k]))
    for f in (L1Norm(0.3), SquaredL2Penalty(0.5), ZeroFunction(), quad):
        rows_agree(f.prox(x, 2.0), lambda r: f.prox(x[r], 2.0))
    for f in (LeastSquares(design, targets, mu=0.1), HingeLoss(design, labels),
              quad, L1Norm(0.3), SquaredL2Penalty(0.5), ZeroFunction()):
        values_agree(f.value(x), lambda r: f.value(x[r]))
    spec = ProblemSpec(
        theta1=LeastSquares(design, targets, mu=0.1), theta2=L1Norm(0.3),
        A=rng.standard_normal((d, d)), B=-np.eye(d), b=rng.standard_normal(d),
        X=WholeSpace(d), Y=WholeSpace(d), constants=StructuralConstants(M=1.0))
    y = rng.standard_normal((d, d))
    values_agree(spec.theta(x, y), lambda r: spec.theta(x[r], y[r]))
    rows_agree(spec.residual(x, y), lambda r: spec.residual(x[r], y[r]))
    one_point = [err_rho((x[r], y[r]), spec, 0.5, 2.0) for r in range(d)]
    for i, batched in enumerate(err_rho((x, y), spec, 0.5, 2.0)):
        values_agree(batched, lambda r: one_point[r][i])
    radius = float(np.median(np.linalg.norm(x, axis=1)))  # rows on both sides
    for X in (WholeSpace(d), Ball(d, radius), Box(np.full(d, -0.5), np.full(d, 0.5))):
        rows_agree(X.project(x), lambda r: X.project(x[r]))
