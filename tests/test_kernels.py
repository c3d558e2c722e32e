"""Batched iteration kernel: agreement with the step-by-step solver path,
snapshot bookkeeping, the exact-oracle mode, eligibility read off the spec,
the catalog's batched formulas, and the batched run() that takes every
other stochastic replication set."""

import dataclasses

import numpy as np
import pytest

from stocadmm import kernels
from stocadmm.functions import (HingeLoss, L1Norm, LeastSquares, Quadratic,
                                SquaredL2Penalty, ZeroFunction, soft_threshold)
from stocadmm.harness import (ConfigError, ExperimentConfig, run_experiment,
                              run_replications)
from stocadmm.oracle import SampleBuffer
from stocadmm.presets import Preset, build_preset
from stocadmm.problem import IterateState, ProblemSpec, StructuralConstants, err_rho
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import CHECK_CHUNK, CHECK_ROWS, SolverConfig, SolverError, run


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
    grid = np.arange(1, 201)
    # both updates leave out the products with beta for beta = 1 only
    for beta in (1.0, 0.7):
        solver = SolverConfig(variant="stochastic", schedule="convex", t_max=200,
                              beta=beta)
        kern = run_replications(preset, solver.validate(spec), 4, grid, theta_star=0.0)[3]
        draws = preset.make_oracle(3).presample(solver.t_max)
        [general] = run(spec, solver, draws, theta_star=0.0, record_at=grid)
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
    batched = run_replications(preset, solver.validate(preset.spec), 3, grid,
                               theta_star=0.0)
    assert len(batched) == 3
    for stream, kern in enumerate(batched):
        draws = preset.make_oracle(stream).presample(solver.t_max)
        [general] = run(preset.spec, solver, draws, theta_star=0.0, record_at=grid)
        _assert_agrees(kern, general)


def test_kernel_snapshot_grid_positions():
    preset = build_preset("lasso-split", seed=1, n=20, d=3)
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=50)
    idx = np.stack([preset.make_oracle(s).presample(50).indices for s in (0, 1)])

    def rows_at(grid):
        zeros = np.zeros((2, spec.d1))
        return kernels.admm_identity_split(solver.validate(spec), idx, None,
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

    def spy(plan, idx, noise, *rest):
        seen.update(idx=idx, noise=noise)
        return kernel(plan, idx, noise, *rest)

    monkeypatch.setattr(kernels, "admm_identity_split", spy)
    trajectories = run_replications(preset, solver.validate(spec), 2, np.array([1]),
                                    None)
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


def _box_lasso_preset() -> Preset:
    """An identity split with a box X; not a shipped preset: the kernel
    applies to any identity split."""
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
    return Preset("box-lasso", spec, {"oracle": "finite-sum"}, 3)


def test_identity_split_spec_with_box_x_takes_the_kernel():
    preset = _box_lasso_preset()
    spec = preset.spec
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=300)
    plan = solver.validate(spec)
    assert plan.takes_identity_split
    grid = np.arange(1, 301)
    batched = run_replications(preset, plan, 3, grid, theta_star=0.0)
    for stream, kern in enumerate(batched):
        draws = preset.make_oracle(stream).presample(solver.t_max)
        [general] = run(spec, solver, draws, theta_star=0.0, record_at=grid)
        _assert_agrees(kern, general)
    # the box is active, so the projection is exercised
    assert any(np.any(np.abs(kern.final_state.x) == 0.25) for kern in batched)


@pytest.mark.parametrize("case", ["box-x", "exact-oracle"])
def test_one_replication_advances_a_1d_state_and_agrees_with_replication_0(case):
    """R = 1 takes the same path as R = 3, on a 1-D state and stream 0's own
    draws; its trajectory agrees with replication 0 of the R = 3 run."""
    if case == "box-x":
        preset = _box_lasso_preset()
        solver = SolverConfig(variant="stochastic", schedule="convex", t_max=300)
    else:
        preset = build_preset("lasso-split", seed=2, n=30, d=4, oracle="exact")
        solver = SolverConfig(variant="stochastic", schedule="constant", eta0=0.1,
                              t_max=300)
    plan = solver.validate(preset.spec)
    grid = np.arange(1, 301)
    [one] = run_replications(preset, plan, 1, grid, theta_star=0.0)
    assert one.error is None
    state = one.final_state
    assert state.x.shape == state.y.shape == state.lam.shape == (preset.spec.d1,)
    assert state.sums.ndim == 1
    _assert_agrees(one, run_replications(preset, plan, 3, grid, theta_star=0.0)[0])


def test_identity_split_update_runs_only_on_a_plan_that_takes_it(tmp_path, monkeypatch):
    """The update is passed the validated plan: the mu = 0 strongly-convex
    lasso-split config, whose stepsize 1/(k*mu) is inf, fails in validate
    before any step, and a plan that does not take the identity split
    (checked, or a general A) is refused by the update itself."""
    lasso = build_preset("lasso-split", seed=0, n=30, d=4)
    fused = build_preset("fused-lasso-graph", seed=0, n=30, d=4)
    real = kernels.admm_identity_split
    for preset, solver in ((lasso, SolverConfig(check_invariants=True)),
                           (fused, SolverConfig())):
        plan = solver.validate(preset.spec)
        assert plan.stochastic and not plan.takes_identity_split
        with pytest.raises(SolverError, match="identity-split update needs"):
            real(plan, None, None, IterateState.zeros(preset.spec, 2))

    solver = SolverConfig(schedule="strongly-convex", t_max=20)
    with pytest.raises(ValueError, match="strongly-convex schedule needs mu > 0"):
        solver.validate(lasso.spec)
    calls = []
    monkeypatch.setattr(kernels, "admm_identity_split",
                        lambda *args: calls.append(args) or real(*args))
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           solver=solver, out_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="solver: strongly-convex schedule needs mu > 0"):
        run_experiment(cfg)
    assert calls == [] and not (tmp_path / "o").exists()


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
    # (n, P, d) points, the shape of the invariant checks' probes: the hinge
    # loss takes them as one 2-D product of all their rows
    hinge, x3 = HingeLoss(design, labels), rng.standard_normal((2, 3, d))
    value, subgrad = hinge.value(x3), hinge.subgrad(x3)
    assert value.shape == x3.shape[:-1] and subgrad.shape == x3.shape
    for i in np.ndindex(*x3.shape[:-1]):
        one = hinge.value(x3[i])
        assert abs(value[i] - one) <= 1e-15 * (1.0 + abs(one))
        assert np.max(np.abs(subgrad[i] - hinge.subgrad(x3[i]))) <= 1e-15


# ---------------------------------------------------------------------------
# the batched run(): general A and checked runs advance all R streams at once


def _general_a_box_preset(seed=4, n=30, d=4, m=3):
    """A stochastic problem with a general A (m x d) and a tight box X, so
    the projected-gradient x-update meets active bounds."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, d))
    spec = ProblemSpec(
        theta1=LeastSquares(design, design @ np.full(d, 2.0)),
        theta2=L1Norm(0.1),
        A=rng.standard_normal((m, d)), B=-np.eye(m), b=rng.standard_normal(m),
        X=Box(np.full(d, -0.3), np.full(d, 0.3)), Y=WholeSpace(m),
        constants=StructuralConstants(M=10.0),
    )
    return Preset("general-box", spec, {"oracle": "finite-sum"}, seed)


def _assert_batched_matches_one_stream_runs(preset, solver, R=3):
    plan = solver.validate(preset.spec)
    assert not plan.takes_identity_split
    grid = np.arange(1, solver.t_max + 1)
    batched = run_replications(preset, plan, R, grid, theta_star=0.0)
    assert len(batched) == R
    for stream, traj in enumerate(batched):
        draws = preset.make_oracle(stream).presample(solver.t_max)
        [one] = run(preset.spec, solver, draws, theta_star=0.0, record_at=grid)
        assert traj.error is None and one.error is None
        _assert_agrees(traj, one)
    return batched


def test_batched_run_matches_one_stream_runs_on_general_a():
    preset = build_preset("fused-lasso-graph", seed=2, n=30, d=4)
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=300)
    _assert_batched_matches_one_stream_runs(preset, solver)


def test_batched_run_matches_one_stream_runs_on_the_ball_boundary(monkeypatch):
    # a tight ball and long steps: at some steps some rows of the batch lie
    # outside the ball and others inside
    from stocadmm import prox
    preset = build_preset("fused-lasso-graph", seed=2, n=30, d=4)
    preset = dataclasses.replace(preset, spec=dataclasses.replace(
        preset.spec, X=Ball(preset.spec.d1, 0.3)))
    solver = SolverConfig(variant="stochastic", schedule="constant", eta0=1.0,
                          t_max=300)
    rows, real = [], prox._secular_newton

    def spy(q, w, radius):
        rows.append(len(q))
        return real(q, w, radius)

    monkeypatch.setattr(prox, "_secular_newton", spy)
    _assert_batched_matches_one_stream_runs(preset, solver)
    assert {2, 3} <= set(rows)  # batched calls on part of the rows and on all


def test_batched_run_matches_one_stream_runs_on_general_a_box(monkeypatch):
    from stocadmm import solvers
    preset = _general_a_box_preset()
    solver = SolverConfig(variant="stochastic", schedule="convex", t_max=200)
    # the inner projected-gradient iterations of every x-update, per stream
    iters, real = [], solvers.min_quadratic_over_set

    def counted(H0, eig, shift, rhs, X, x_init=None):
        calls = [0]

        class Counting(Box):
            def project(self, z):
                calls[0] += 1
                return super().project(z)

        x = real(H0, eig, shift, rhs, Counting(X.lo, X.hi), x_init)
        if rhs.ndim == 1:
            iters[-1].append(calls[0])
        return x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", counted)
    for stream in range(3):
        iters.append([])
        run(preset.spec, solver, preset.make_oracle(stream).presample(solver.t_max))
    # the streams' rows converge after different inner iteration counts
    counts = np.array(iters)
    assert np.any(counts.min(axis=0) < counts.max(axis=0))
    _assert_batched_matches_one_stream_runs(preset, solver)


def test_checked_batched_run_logs_what_one_stream_runs_log(tmp_path, monkeypatch):
    """A checked run with R = 2 takes one batched run(); its invariants.log,
    invariant_worst and invariant_probes are those of two one-stream runs.
    The x-update of step 20 is moved off its minimizer, so the log is not
    empty."""
    from stocadmm import solvers
    real, calls = solvers.min_quadratic_over_set, [0]

    def perturbed(H0, eig, shift, *args, **kwargs):
        x = real(H0, eig, shift, *args, **kwargs)
        calls[0] += shift > 0  # a stochastic step, not the reference solve
        return x + 3.0 if calls[0] == 20 and shift > 0 else x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", perturbed)
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=2, out_dir=str(tmp_path),
                           solver=SolverConfig(t_max=40, check_invariants=True))
    report, code = run_experiment(cfg)
    assert code == 1 and not report["kernel_path"]

    preset = build_preset("lasso-split", seed=0, n=30, d=4)
    lines, worst, probes = [], {}, {}
    for r in range(2):
        calls[0] = 0
        [traj] = run(preset.spec, cfg.solver,
                     preset.make_oracle(r).presample(cfg.solver.t_max))
        lines += [f"rep={r} k={k} {name} residual={res:.6e}"
                  for k, name, res in traj.invariant_log]
        for name, value in traj.invariant_worst.items():
            worst[name] = max(worst.get(name, -np.inf), value)
        for name, n in traj.invariant_probes.items():
            probes[name] = probes.get(name, 0) + n
    assert lines and {line.split()[1] for line in lines} == {"k=20"}
    assert (tmp_path / "invariants.log").read_text() == "\n".join(lines) + "\n"
    assert report["invariant_worst"] == worst
    assert report["invariant_probes"] == probes


def test_checked_run_with_more_replications_than_one_check_group(monkeypatch):
    """With more replications than one group of the check pass holds, each
    replication's log, worst residuals and probe counts are those of its
    one-stream run.  The x-update of step 20 is moved off its minimizer in
    every replication, so the logs are not empty."""
    from stocadmm import solvers
    real, calls = solvers.min_quadratic_over_set, [0]

    def perturbed(*args, **kwargs):
        x = real(*args, **kwargs)
        calls[0] += 1
        return x + 3.0 if calls[0] == 20 else x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", perturbed)
    R = CHECK_ROWS // CHECK_CHUNK + 2
    preset = build_preset("lasso-split", seed=0, n=30, d=4)
    solver = SolverConfig(t_max=40, check_invariants=True)
    batched = run_replications(preset, solver.validate(preset.spec), R,
                               np.arange(1, 41), None)
    for r in range(R):
        calls[0] = 0
        [one] = run(preset.spec, solver, preset.make_oracle(r).presample(solver.t_max))
        assert batched[r].invariant_log and batched[r].invariant_log == one.invariant_log
        assert batched[r].invariant_worst == one.invariant_worst
        assert batched[r].invariant_probes == one.invariant_probes


def test_checked_group_with_one_perturbed_replication(monkeypatch):
    """In a group of two replications whose stream 1 alone has its x-update
    of step 20 moved off its minimizer, replication 1's log, worst residuals
    and probe counts are those of its one-stream run with that step moved,
    and replication 0 logs nothing, as its clean one-stream run."""
    from stocadmm import solvers
    real, calls, moved = solvers.min_quadratic_over_set, [0], [None]

    def perturbed(*args, **kwargs):
        x = real(*args, **kwargs)
        calls[0] += 1
        if calls[0] == 20 and moved[0] is not None:
            x = x.copy()
            x[moved[0]] += 3.0
        return x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", perturbed)
    preset = build_preset("lasso-split", seed=0, n=30, d=4)
    solver = SolverConfig(t_max=40, check_invariants=True)
    moved[0] = 1  # row 1 of the batched (2, d) x-update
    batched = run_replications(preset, solver.validate(preset.spec), 2,
                               np.arange(1, 41), None)
    for r, row in ((0, None), (1, Ellipsis)):
        calls[0], moved[0] = 0, row
        [one] = run(preset.spec, solver, preset.make_oracle(r).presample(solver.t_max))
        assert batched[r].invariant_log == one.invariant_log
        assert batched[r].invariant_worst == one.invariant_worst
        assert batched[r].invariant_probes == one.invariant_probes
    assert batched[0].invariant_log == []
    assert {k for k, _, _ in batched[1].invariant_log} == {20}
