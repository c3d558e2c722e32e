"""Batched iteration kernel: agreement with the step-by-step solver path,
snapshot bookkeeping and the exact-oracle mode."""

import numpy as np
import pytest

from stocadmm import kernels
from stocadmm.functions import soft_threshold
from stocadmm.harness import run_replication, run_replications
from stocadmm.presets import build_preset
from stocadmm.solvers import SolverConfig, run


def _assert_agrees(kern, general):
    assert np.array_equal(kern.k, general.k)
    assert np.max(np.abs(kern.err_rho_eq2 - general.err_rho_eq2)) <= 1e-10
    assert np.max(np.abs(kern.err_rho_eq10 - general.err_rho_eq10)) <= 1e-10
    ks, gs = kern.final_state, general.final_state
    assert ks.k == gs.k
    assert np.max(np.abs(ks.x - gs.x)) <= 1e-12
    assert np.max(np.abs(ks.lam - gs.lam)) <= 1e-12
    for avg in ("avg_x_shifted", "avg_x_aligned", "avg_y", "avg_lam"):
        assert np.max(np.abs(getattr(ks, avg) - getattr(gs, avg))) <= 1e-10, avg


@pytest.mark.parametrize("name", ["lasso-split", "hinge-svm-split"])
def test_kernel_agrees_with_step_by_step_solver(name):
    preset = build_preset(name, seed=2, n=30, d=4)
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=200)
    grid = np.arange(1, 201)
    kern = run_replication(preset, solver, 3, grid, theta_star=0.0)
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
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=50)
    oracles = [preset.make_oracle(s) for s in (0, 1)]
    sparse = kernels.admm_identity_split(**preset.kernel.arguments(
        preset.spec, solver, oracles, [10, 50]))
    oracles = [preset.make_oracle(s) for s in (0, 1)]
    full = kernels.admm_identity_split(**preset.kernel.arguments(
        preset.spec, solver, oracles, np.arange(1, 51)))
    for snap in ("xbar_shifted", "xbar_aligned", "ybar"):
        assert np.array_equal(getattr(sparse, snap), getattr(full, snap)[:, [9, 49]])


def test_exact_oracle_sentinel_uses_full_gradient():
    preset = build_preset("lasso-split", seed=1, n=20, d=3, oracle="exact")
    ki = preset.kernel
    solver = SolverConfig(variant="stochastic", schedule="constant", eta0=0.1,
                          t_max=1)
    args = ki.arguments(preset.spec, solver, [preset.make_oracle(0)] * 2, [1])
    assert args["idx"] is None and args["noise"] is None
    out = kernels.admm_identity_split(**args)
    # one step from zero by hand: full least-squares gradient, prox step,
    # ball projection, soft-threshold, dual ascent (beta = 1)
    g = -ki.data.T @ ki.targets / len(ki.targets)
    x = -g / (1.0 + 1.0 / 0.1)
    x *= min(1.0, ki.radius / np.linalg.norm(x))
    y = soft_threshold(x, ki.theta2_coef)
    for r in range(2):
        assert np.allclose(out.x[r], x, atol=1e-15)
        assert np.allclose(out.y[r], y, atol=1e-15)
        assert np.allclose(out.lam[r], y - x, atol=1e-15)
