"""The step plan and the solver loop: hand-checked steps, variant
equivalences, structural checks, invariant probes."""

import dataclasses

import numpy as np
import pytest

from stocadmm import solvers
from stocadmm.functions import L1Norm, LeastSquares, Quadratic, SquaredL2Penalty
from stocadmm.harness import run_replications
from stocadmm.oracle import AdditiveNoiseOracle
from stocadmm.problem import (IterateState, ProblemSpec, StackedW, StructuralConstants,
                              err_rho, eval_F)
from stocadmm.presets import build_preset
from stocadmm.prox import min_quadratic_over_set, prox_map, three_points_check
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import (CHECK_CHUNK, INVARIANTS, METRIC_CHUNK, PROBE_COUNT,
                              SolverConfig, SolverError, check_y_optimality, run, step,
                              step_inequality_check)

from conftest import scalar_split_spec, ridge_split_spec, small_lasso_preset


# ---------------------------------------------------------------------------
# deterministic variant


def test_deterministic_converges_to_hand_computed_optimum():
    # min x^2/2 - x + 0.5|y| with x = y
    spec = scalar_split_spec(h=1.0, c=-1.0, l1=0.5)
    plan = SolverConfig(variant="deterministic", beta=1.0, t_max=0).validate(spec)
    state = IterateState.zeros(spec)
    for _ in range(2000):
        step(state, plan)
    # optimum: d/dx [x^2/2 - x + 0.5|x|] = 0 at x = 0.5, value -0.125
    assert state.x[0] == pytest.approx(0.5, abs=1e-8)
    assert state.y[0] == pytest.approx(0.5, abs=1e-8)
    assert spec.theta(state.x, state.y) == pytest.approx(-0.125, abs=1e-8)


def test_deterministic_first_step_matches_grid_search():
    spec = scalar_split_spec(h=1.0, c=-1.0, l1=0.5)
    plan = SolverConfig(variant="deterministic", beta=2.0, t_max=0).validate(spec)
    state = IterateState.zeros(spec)
    step(state, plan)
    # x-update: min (x-1)^2/2 + (beta/2) x^2 at y = lam = 0
    xs = np.arange(-3.0, 3.0, 1e-6)
    x_ref = xs[np.argmin(0.5 * (xs - 1.0) ** 2 + 1.0 * xs**2)]
    assert state.x[0] == pytest.approx(x_ref, abs=2e-6)
    # y-update: min 0.5|y| + (beta/2)(x1 - y)^2
    ys = np.arange(-3.0, 3.0, 1e-6)
    y_ref = ys[np.argmin(0.5 * np.abs(ys) + 1.0 * (state.x[0] - ys) ** 2)]
    assert state.y[0] == pytest.approx(y_ref, abs=2e-6)
    # dual ascent identity
    assert state.lam[0] == pytest.approx(-2.0 * (state.x[0] - state.y[0]), abs=1e-15)


def test_deterministic_fixed_point_is_stationary():
    spec = scalar_split_spec(h=1.0, c=-1.0, l1=0.5)
    plan = SolverConfig(variant="deterministic", beta=1.0, t_max=0).validate(spec)
    state = IterateState.zeros(spec)
    for _ in range(3000):
        step(state, plan)
    before = state.as_w()
    step(state, plan)
    move = (np.linalg.norm(state.x - before.x) + np.linalg.norm(state.y - before.y)
            + np.linalg.norm(state.lam - before.lam))
    assert move <= 1e-10


def test_deterministic_needs_quadratic_first_block():
    spec = ProblemSpec(
        theta1=L1Norm(1.0), theta2=SquaredL2Penalty(1.0),
        A=np.eye(2), B=-np.eye(2), b=np.zeros(2),
        X=WholeSpace(2), Y=WholeSpace(2),
        constants=StructuralConstants(M=1.0))
    # a structural mismatch raises before any step runs
    cfg = SolverConfig(variant="deterministic", t_max=5)
    with pytest.raises(SolverError, match="quadratic"):
        run(spec, cfg)


# ---------------------------------------------------------------------------
# stochastic variant


def test_stochastic_step_matches_value_optimal_solution():
    spec = scalar_split_spec()
    oracle = AdditiveNoiseOracle(spec.theta1, sigma=0.5, kind="uniform", seed=1)
    cfg = SolverConfig(variant="stochastic", beta=1.5, schedule="constant",
                       eta0=0.2, t_max=0)
    state = IterateState.zeros(spec)
    state.x = np.array([0.3])
    state.y = np.array([-0.2])
    state.lam = np.array([0.4])
    x_prev, y_prev, lam_prev = state.x.copy(), state.y.copy(), state.lam.copy()
    g = oracle.presample(1).subgradient(spec.theta1, state.x, 0)
    step(state, cfg.validate(spec), g, cfg.eta(1, spec))
    # reconstruct the x-update objective and compare against a fine grid
    beta, eta = 1.5, 0.2
    xs = np.arange(-3.0, 3.0, 1e-6)
    obj = (g[0] * xs
           + 0.5 * beta * (xs - y_prev[0] - lam_prev[0] / beta) ** 2
           + (xs - x_prev[0]) ** 2 / (2 * eta))
    x_ref = xs[np.argmin(obj)]
    assert state.x[0] == pytest.approx(x_ref, abs=2e-6)
    # y-update and dual ascent around the new x
    ys = np.arange(-3.0, 3.0, 1e-6)
    y_obj = 0.5 * np.abs(ys) + 0.5 * beta * (state.x[0] - ys - lam_prev[0] / beta) ** 2
    assert state.y[0] == pytest.approx(ys[np.argmin(y_obj)], abs=2e-6)
    assert state.lam[0] == pytest.approx(
        lam_prev[0] - beta * (state.x[0] - state.y[0]), abs=1e-15)


def test_same_stream_is_bitwise_repeatable(lasso_preset):
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=50)
    ref = 0.0
    runs = []
    for _ in range(2):
        [traj] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(7).presample(50),
                     theta_star=ref)
        runs.append(traj)
    assert np.array_equal(runs[0].final_state.x, runs[1].final_state.x)
    assert np.array_equal(runs[0].err_rho_eq2, runs[1].err_rho_eq2)


def test_different_streams_diverge(lasso_preset):
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=50)
    [a] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(0).presample(cfg.t_max))
    [b] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(1).presample(cfg.t_max))
    assert not np.array_equal(a.final_state.x, b.final_state.x)


def test_recorded_eta_matches_schedule(lasso_preset):
    spec = lasso_preset.spec
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=20)
    [traj] = run(spec, cfg, lasso_preset.make_oracle(0).presample(cfg.t_max))
    D, M = spec.diameter_x, spec.constants.M
    expect = D / (M * np.sqrt(2.0 * np.arange(1, 21)))
    assert np.allclose(traj.eta, expect, rtol=1e-12)


def test_strongly_convex_and_smooth_schedules():
    spec = scalar_split_spec(mu=0.5)
    cfg = SolverConfig(schedule="strongly-convex", t_max=0)
    assert cfg.eta(4, spec) == pytest.approx(1.0 / (4 * 0.5))
    spec2 = ridge_split_spec()
    cfg2 = SolverConfig(schedule="smooth", t_max=0)
    c = spec2.constants
    assert cfg2.eta(9, spec2) == pytest.approx(
        1.0 / (c.L + c.sigma * np.sqrt(18.0) / spec2.diameter_x))


def test_config_validation_messages():
    spec = scalar_split_spec()  # mu = 0
    with pytest.raises(ValueError, match="needs mu > 0"):
        SolverConfig(schedule="strongly-convex", t_max=10).validate(spec)
    with pytest.raises(ValueError, match="needs a declared L"):
        SolverConfig(schedule="smooth", t_max=10).validate(spec)
    with pytest.raises(ValueError, match="positive eta0"):
        SolverConfig(schedule="constant", t_max=10).validate(spec)
    with pytest.raises(ValueError, match="solver.variant: expected one of"):
        SolverConfig(variant="magic").validate(spec)
    with pytest.raises(ValueError, match="rho"):
        SolverConfig(rho=0.0).validate(spec)


def test_zero_iterations_gives_empty_trajectory(lasso_preset):
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=0)
    [traj] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(0).presample(cfg.t_max))
    assert len(traj) == 0
    assert traj.error is None


def test_recorded_rows_match_a_step_by_step_replay(lasso_preset, monkeypatch):
    # the metric pass after the loop gives the rows that 1-D err_rho calls on
    # each step's averages give, for a full run and for one cut by an error
    spec, theta_star = lasso_preset.spec, 0.25
    cfg = SolverConfig(variant="linearized", G=2.0, t_max=50)
    [full] = run(spec, cfg, theta_star=theta_star)
    state, plan = IterateState.zeros(spec), cfg.validate(spec)
    replay = []
    for _ in range(50):
        step(state, plan)
        replay.append([v for x_bar in (state.avg_x_shifted, state.avg_x_aligned)
                       for v in err_rho((x_bar, state.avg_y), spec, theta_star, cfg.rho)])
    replay = np.array(replay)

    calls, real = {"n": 0}, solvers.min_quadratic_over_set

    def failing_x_update(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 30:
            raise FloatingPointError("overflow")
        return real(*args, **kwargs)

    # the planned update of every step calls the x-solve by its module name
    monkeypatch.setattr(solvers, "min_quadratic_over_set", failing_x_update)
    [cut] = run(spec, cfg, theta_star=theta_star)
    assert full.error is None and cut.error == "iteration 31: overflow"
    for traj in (full, cut):
        n = len(traj)
        assert np.array_equal(traj.k, np.arange(1, n + 1))
        assert np.all(np.isnan(traj.eta))
        cols = np.array([getattr(traj, name) for name in (
            "err_rho_eq2", "obj_gap_eq2", "feas_eq2",
            "err_rho_eq10", "obj_gap_eq10", "feas_eq10")]).T
        assert np.max(np.abs(cols - replay[:n])) <= 1e-12
    assert len(cut) == 30 and cut.final_state.k == 30


def test_metric_pass_evaluates_bounded_chunks(lasso_preset, monkeypatch):
    points = []
    value = LeastSquares.value

    def spy(self, x):
        points.append(np.size(x) // np.shape(x)[-1])
        return value(self, x)

    monkeypatch.setattr(LeastSquares, "value", spy)
    [traj] = run(lasso_preset.spec, SolverConfig(variant="linearized", G=2.0, t_max=1000),
                 theta_star=0.0)
    assert len(traj) == 1000
    # both averaging conventions of every row, in calls of at most
    # METRIC_CHUNK points
    assert METRIC_CHUNK == 64 and points == ([64] * 15 + [40]) * 2


def test_stochastic_run_needs_its_draws():
    spec = scalar_split_spec()
    with pytest.raises(ValueError, match="needs its draws"):
        run(spec, SolverConfig(variant="stochastic", t_max=5))


# ---------------------------------------------------------------------------
# linearized variant


def test_linearized_with_zero_g_matches_deterministic():
    spec = ridge_split_spec()
    beta = 1.3
    det = IterateState.zeros(spec)
    lin = IterateState.zeros(spec)
    plan_det = SolverConfig(variant="deterministic", beta=beta, t_max=0).validate(spec)
    plan_lin = SolverConfig(variant="linearized", beta=beta, t_max=0, G=0).validate(spec)
    for _ in range(100):
        step(det, plan_det)
        step(lin, plan_lin)
        assert np.linalg.norm(det.x - lin.x) <= 1e-12
        assert np.linalg.norm(det.y - lin.y) <= 1e-12
        assert np.linalg.norm(det.lam - lin.lam) <= 1e-12


def test_scalar_g_equals_matrix_g():
    # r*I - beta*A'A supplied as a scalar must agree with the explicit matrix
    spec = ridge_split_spec()
    beta = 1.0
    r = beta * float(np.linalg.eigvalsh(spec.A.T @ spec.A)[-1]) + 2.0
    sc = IterateState.zeros(spec)
    mat = IterateState.zeros(spec)
    plan_s = SolverConfig(variant="linearized", beta=beta, t_max=0, G=r).validate(spec)
    G = r * np.eye(spec.d1) - beta * spec.A.T @ spec.A
    plan_m = SolverConfig(variant="linearized", beta=beta, t_max=0, G=G).validate(spec)
    for _ in range(50):
        step(sc, plan_s)
        step(mat, plan_m)
        assert np.linalg.norm(sc.x - mat.x) <= 1e-10
        assert np.linalg.norm(sc.y - mat.y) <= 1e-10


@pytest.mark.parametrize("X", [Ball(2, 0.5), Box(np.array([-0.3, -1.0]),
                                                 np.array([0.4, 0.2]))],
                         ids=["ball", "box"])
def test_matrix_g_over_a_set_matches_brute_force(X):
    # the unconstrained minimizer of the x-subproblem lies outside X
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    spec = ProblemSpec(
        theta1=Quadratic(np.diag([1.0, 0.5]), np.array([-3.0, 2.0])),
        theta2=SquaredL2Penalty(1.0), A=A, B=-np.eye(2), b=np.zeros(2),
        X=X, Y=WholeSpace(2), constants=StructuralConstants(M=5.0))
    beta = 1.0
    G = np.array([[2.0, 0.5], [0.5, 1.0]])
    state = IterateState(np.array([0.2, -0.1]), np.array([0.3, 0.1]),
                         np.array([0.5, -0.2]))
    x_prev, y_prev, lam_prev = state.x.copy(), state.y.copy(), state.lam.copy()
    step(state, SolverConfig(variant="linearized", beta=beta, t_max=0, G=G).validate(spec))
    v = spec.b + lam_prev / beta - spec.B @ y_prev

    def objective(pts):  # one point per row
        dx = pts - x_prev
        r = pts @ A.T - v
        return (0.5 * np.einsum("ij,jk,ik->i", pts, spec.theta1.H, pts)
                + pts @ spec.theta1.c + 0.5 * beta * np.sum(r * r, axis=1)
                + 0.5 * np.einsum("ij,jk,ik->i", dx, G, dx))

    axis = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = (np.linalg.norm(grid, axis=1) <= X.radius if isinstance(X, Ball)
              else np.all((grid >= X.lo) & (grid <= X.hi), axis=1))
    grid = grid[inside]
    vals = objective(grid)
    best = grid[np.argmin(vals)]
    assert X.contains(state.x, tol=1e-9)
    assert objective(state.x[None, :])[0] <= vals.min() + 1e-12
    # grid points near the ball's boundary lie a few grid steps apart
    assert np.linalg.norm(state.x - best) <= 5e-3


def test_linearized_l1_first_block_matches_brute_force():
    # nonsmooth first block handled through its prox in the linearized update
    spec = ProblemSpec(
        theta1=L1Norm(1.0), theta2=SquaredL2Penalty(2.0),
        A=np.eye(2), B=-np.eye(2), b=np.zeros(2),
        X=WholeSpace(2), Y=WholeSpace(2),
        constants=StructuralConstants(M=2.0))
    beta, r = 1.0, 2.5
    cfg = SolverConfig(variant="linearized", beta=beta, t_max=0, G=r)
    state = IterateState(np.array([0.8, -0.4]), np.array([0.1, 0.6]),
                         np.array([0.2, -0.3]))
    x_prev, y_prev, lam_prev = state.x.copy(), state.y.copy(), state.lam.copy()
    step(state, cfg.validate(spec))
    # the linearized subproblem separates per coordinate: brute force each
    v = lam_prev / beta + y_prev
    grad_lin = beta * (x_prev - v)
    grid = np.arange(-2.0, 2.0, 1e-6)
    for j in range(2):
        obj = (np.abs(grid) + grad_lin[j] * (grid - x_prev[j])
               + 0.5 * r * (grid - x_prev[j]) ** 2)
        assert state.x[j] == pytest.approx(grid[np.argmin(obj)], abs=2e-6)


def test_linearized_rejects_too_small_r():
    spec = ridge_split_spec()
    cfg = SolverConfig(variant="linearized", beta=1.0, t_max=5, G=1e-6)
    with pytest.raises(SolverError, match="not psd"):
        run(spec, cfg)


def test_validate_rejects_structural_mismatches():
    spec = ridge_split_spec()
    with pytest.raises(SolverError, match="not psd"):
        SolverConfig(variant="linearized", t_max=10, G=1e-6).validate(spec)
    bad_b = ProblemSpec(
        theta1=spec.theta1, theta2=spec.theta2,
        A=spec.A, B=np.triu(np.ones((spec.d2, spec.d2))), b=spec.b,
        X=spec.X, Y=spec.Y, constants=spec.constants)
    for variant in ("stochastic", "linearized", "deterministic"):
        with pytest.raises(SolverError, match="B = s\\*I"):
            SolverConfig(variant=variant, t_max=10).validate(bad_b)
    # a singular x-update quadratic has no unique minimizer over the whole space
    flat = ProblemSpec(
        theta1=Quadratic(np.zeros((2, 2))), theta2=L1Norm(1.0),
        A=np.array([[1.0, 0.0]]), B=-np.eye(1), b=np.zeros(1),
        X=WholeSpace(2), Y=WholeSpace(1), constants=StructuralConstants(M=1.0))
    with pytest.raises(SolverError, match="singular"):
        SolverConfig(variant="deterministic", t_max=10).validate(flat)
    # the ball solve divides by the same eigenvalues
    flat_ball = ProblemSpec(
        theta1=flat.theta1, theta2=flat.theta2, A=flat.A, B=flat.B, b=flat.b,
        X=Ball(2, 1.0), Y=flat.Y, constants=flat.constants)
    with pytest.raises(SolverError, match="singular"):
        SolverConfig(variant="deterministic", t_max=10).validate(flat_ball)
    # structural errors are ValueErrors, so config parsing reports them
    assert issubclass(SolverError, ValueError)


@pytest.mark.parametrize("name", ["lasso-split", "strongly-convex-lasso",
                                  "fused-lasso-graph"])
def test_plan_checks_declared_mu_and_l_against_the_hessian(name):
    """A quadratic theta1's declared mu must not exceed lambda_min(H), nor its
    L fall short of lambda_max(H), beyond roundoff: every preset passes at
    seeds 0-5, and a mu above lambda_min or a halved L fails."""
    for seed in range(6):
        spec = build_preset(name, seed).spec
        plan = SolverConfig(t_max=0).validate(spec)
        low, top = np.linalg.eigvalsh(plan.quadratic[0])[[0, -1]]
        c = spec.constants
        # the tolerance is relative to max(1, lambda_max)
        for constants in (dataclasses.replace(c, mu=low * (1 + 1e-14)),
                          dataclasses.replace(c, L=top * (1 - 1e-14))):
            SolverConfig(t_max=0).validate(dataclasses.replace(spec, constants=constants))
        for constants, message in (
                (dataclasses.replace(c, mu=low + 1e-6 * top), r"declared mu = .* exceeds "
                                                              r"lambda_min\(H\)"),
                (dataclasses.replace(c, L=top / 2), r"declared L = .* is below "
                                                    r"lambda_max\(H\)")):
            for variant in ("stochastic", "deterministic", "linearized"):
                with pytest.raises(SolverError, match=message):
                    SolverConfig(variant=variant, G=2.0 * top + 2.0, t_max=0).validate(
                        dataclasses.replace(spec, constants=constants))


def test_structural_facts_are_checked_once_per_run(lasso_preset, monkeypatch):
    calls = {"eigvalsh": 0, "quadratic_parts": 0, "array_equal": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(LeastSquares, "quadratic_parts",
                        counted("quadratic_parts", LeastSquares.quadratic_parts))
    monkeypatch.setattr(np, "array_equal", counted("array_equal", np.array_equal))
    spec = lasso_preset.spec
    [traj] = run(spec, SolverConfig(variant="linearized", G=2.0, t_max=50),
                 theta_star=0.0)
    assert traj.error is None and len(traj) == 50
    assert calls["eigvalsh"] <= 1
    assert calls["quadratic_parts"] <= 1
    # the spec made its two exact tests, B = s*I and A = I, when it was
    # built; neither the plan nor the loop tests them again
    assert calls["array_equal"] == 0
    [traj] = run(spec, SolverConfig(variant="stochastic", t_max=50),
                 lasso_preset.make_oracle(0).presample(50), theta_star=0.0)
    assert traj.error is None and len(traj) == 50
    assert calls["array_equal"] == 0


def _basis_eig(plan):
    """The plan's eigendecomposition of H0 with its basis as a matrix: the
    identity where the plan holds it as None."""
    w, V = plan.eig
    return w, np.eye(len(w)) if V is None else V


def _reference_step(state, plan, cfg, g=None, eta=np.nan):
    """step() written with the full products of A, B and G, of the x-solve's
    eigenbasis and the sums with b, as the formulas of the problem state
    them."""
    spec, beta, x = plan.spec, cfg.beta, state.x
    A, B, b = spec.A, spec.B, spec.b
    shift = 1.0 / eta if plan.shift is None else plan.shift
    v = b + state.lam / beta - state.y @ B.T
    rhs = beta * (v @ A) - plan.c + shift * x
    if cfg.variant == "linearized":
        rhs = rhs + x @ (-beta * (A.T @ A)).T
    if g is not None:
        rhs = rhs - g
    x_next = min_quadratic_over_set(plan.H0, _basis_eig(plan), shift, rhs, spec.X,
                                    x_init=x)
    Ax_next = x_next @ A.T
    s = B[0, 0]
    y_next = prox_map(spec.theta2, spec.Y, beta * s * s)(
        (Ax_next - b - state.lam / beta) / -s)
    state.advance(x_next, y_next, state.lam - beta * (Ax_next + y_next @ B.T - b))


def _step_specs():
    lasso = small_lasso_preset().spec
    fused = build_preset("fused-lasso-graph", seed=2, n=30, d=4).spec
    shifted = dataclasses.replace(
        lasso, B=2.0 * np.eye(lasso.d2),
        b=np.random.default_rng(5).standard_normal(lasso.m))
    return {"lasso-split": (lasso, (True, True, -1.0)),
            "fused-lasso-graph": (fused, (False, True, -1.0)),
            "b-and-B-2I": (shifted, (True, False, 2.0))}


@pytest.mark.parametrize("variant", ["deterministic", "linearized", "stochastic"])
@pytest.mark.parametrize("name", ["lasso-split", "fused-lasso-graph", "b-and-B-2I"])
def test_step_matches_the_full_matrix_products_bit_for_bit(name, variant):
    """The plan's exact facts let step() drop products with I and sums with
    0, and with beta for beta = 1; after 50 steps the iterates equal those
    of the full products."""
    spec, (A_identity, b_zero, B_scale) = _step_specs()[name]
    for beta in (1.0, 0.7):
        G = None
        if variant == "linearized":  # a scalar G: r I - beta A'A, psd for r >= ||A'A||
            G = 1.1 * beta * float(np.linalg.eigvalsh(spec.A.T @ spec.A)[-1])
        cfg = SolverConfig(variant=variant, G=G, beta=beta)
        plan = cfg.validate(spec)
        assert plan.facts() == {"A_identity": A_identity, "b_zero": b_zero,
                                "B_scale": B_scale}
        R = 3 if variant == "stochastic" else 1
        fast, ref = IterateState.zeros(spec, R), IterateState.zeros(spec, R)
        noise = np.random.default_rng(0).standard_normal((50, R, spec.d1))
        for k in range(50):
            g = eta = None
            if variant == "stochastic":
                eta = cfg.eta(k + 1, spec)
                g = spec.theta1.subgrad(fast.x) + noise[k]
                assert np.array_equal(g, spec.theta1.subgrad(ref.x) + noise[k])
                step(fast, plan, g, eta)
                _reference_step(ref, plan, cfg, g, eta)
            else:
                step(fast, plan)
                _reference_step(ref, plan, cfg)
        for part in ("x", "y", "lam"):
            assert np.array_equal(getattr(fast, part), getattr(ref, part)), (beta, part)
        assert np.all(np.isfinite(fast.lam)) and fast.k == 50


def _branching_step(state, plan, g=None, eta=np.nan):
    """The step() that re-read the plan's facts at every call, with one
    branch per fact, as it was before the plan built the update once, and
    with the products of the x-solve's eigenbasis, the identity included."""
    spec, beta, x = plan.spec, plan.beta, state.x
    shift = 1.0 / eta if plan.shift is None else plan.shift
    neg_identity, unit = plan.s == -1.0, beta == 1.0
    lam_beta = state.lam if unit else state.lam / beta
    v = lam_beta if plan.b_zero else spec.b + lam_beta
    v = v + state.y if neg_identity else v - plan.s * state.y
    rhs = v if plan.A_identity else v @ spec.A
    if not unit:
        rhs = beta * rhs
    if not plan.stochastic:
        rhs = rhs - plan.c
    rhs = rhs + shift * x
    G = plan.G_rest
    if G is not None:
        rhs = rhs + (x @ G.T if isinstance(G, np.ndarray) else G * x)
    if g is not None:
        rhs = rhs - g
    if plan.prox:
        x_next = spec.theta1.prox(rhs / shift, shift)
    else:
        x_next = min_quadratic_over_set(plan.H0, _basis_eig(plan), shift, rhs, spec.X,
                                        x_init=x)
    Ax_next = x_next if plan.A_identity else x_next @ spec.A.T
    point = (Ax_next if plan.b_zero else Ax_next - spec.b) - lam_beta
    y_next = plan.y_prox(point if plan.s == -1.0 else point / -plan.s)
    residual = Ax_next - y_next if neg_identity else Ax_next + plan.s * y_next
    if not plan.b_zero:
        residual = residual - spec.b
    state.advance(x_next, y_next, state.lam - (residual if unit else beta * residual))


def _prox_form_spec(d=4):
    """A first block with a prox and no quadratic form (l1), so the scalar-G
    linearized x-update is the prox form over whole-space X."""
    return ProblemSpec(
        theta1=L1Norm(0.3), theta2=SquaredL2Penalty(0.5),
        A=np.eye(d), B=-np.eye(d), b=np.zeros(d),
        X=WholeSpace(d, declared_diameter=10.0), Y=WholeSpace(d),
        constants=StructuralConstants(M=2.0))


def _plan_forms():
    """(spec, config) per form of the planned update."""
    lasso = small_lasso_preset().spec
    fused = build_preset("fused-lasso-graph", seed=2, n=30, d=4).spec
    tight = dataclasses.replace(fused, X=Ball(fused.d1, 0.3))
    shifted = _step_specs()["b-and-B-2I"][0]
    r_fused = 1.1 * float(np.linalg.eigvalsh(fused.A.T @ fused.A)[-1])
    return {
        "deterministic": (lasso, SolverConfig(variant="deterministic")),
        "linearized-scalar-A=I": (lasso, SolverConfig(variant="linearized", G=2.0)),
        "linearized-scalar-general-A": (fused, SolverConfig(variant="linearized",
                                                            G=r_fused)),
        "linearized-matrix": (lasso, SolverConfig(variant="linearized",
                                                  G=0.5 * np.eye(lasso.d1))),
        "prox-form": (_prox_form_spec(), SolverConfig(variant="linearized", G=1.5)),
        "prox-form-beta=0.5": (_prox_form_spec(), SolverConfig(variant="linearized",
                                                               G=1.5, beta=0.5)),
        "stochastic-A=I-ball": (lasso, SolverConfig()),
        "stochastic-A=I-checked": (lasso, SolverConfig(check_invariants=True)),
        "stochastic-general-A": (fused, SolverConfig()),
        "box": (_coupled_box_spec(), SolverConfig()),
        "ball-newton": (tight, SolverConfig(schedule="constant", eta0=1.0)),
        "b-s=2-beta=0.5-linearized": (shifted, SolverConfig(variant="linearized",
                                                            G=1.0, beta=0.5)),
        "b-s=2-beta=0.5-stochastic": (shifted, SolverConfig(beta=0.5)),
    }


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("form", [
    "deterministic", "linearized-scalar-A=I", "linearized-scalar-general-A",
    "linearized-matrix", "prox-form", "prox-form-beta=0.5", "stochastic-A=I-ball",
    "stochastic-A=I-checked", "stochastic-general-A", "box", "ball-newton",
    "b-s=2-beta=0.5-linearized", "b-s=2-beta=0.5-stochastic"])
def test_planned_update_gives_the_bits_of_the_branching_step(form, R, monkeypatch):
    """The update the plan builds once gives, after 50 steps, the bits of
    the step that decided every shortcut at every call: x, y, lam and the
    running sums, for one stream and for (R, d) rows.  A stochastic plan
    with A = I has H0 = beta*I, whose identity eigenbasis it takes without
    an eigendecomposition."""
    from stocadmm import prox
    spec, cfg = _plan_forms()[form]
    eigh = [0]

    def counted_eigh(a, real=np.linalg.eigh):
        eigh[0] += 1
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    plan = cfg.validate(spec)
    assert plan.prox == form.startswith("prox-form")
    identity_basis = plan.stochastic and plan.A_identity
    assert identity_basis == (form.startswith("stochastic-A=I")
                              or form == "b-s=2-beta=0.5-stochastic")
    assert eigh[0] == (0 if identity_basis or plan.prox else 1)
    if identity_basis:
        assert plan.eig[1] is None
    newton = [0]

    def counted(q, w, radius, real=prox._secular_newton):
        newton[0] += 1
        return real(q, w, radius)

    monkeypatch.setattr(prox, "_secular_newton", counted)
    planned, branching = IterateState.zeros(spec, R), IterateState.zeros(spec, R)
    noise = np.random.default_rng(1).standard_normal((50,) + planned.x.shape)
    for k in range(50):
        if plan.stochastic:
            eta = cfg.eta(k + 1, spec)
            g = spec.theta1.subgrad(planned.x) + noise[k]
            step(planned, plan, g, eta)
            _branching_step(branching, plan, g, eta)
        else:
            step(planned, plan)
            _branching_step(branching, plan)
    for part in ("x", "y", "lam", "sums"):
        assert np.array_equal(getattr(planned, part), getattr(branching, part)), part
    assert np.all(np.isfinite(planned.sums)) and planned.k == 50
    if form == "ball-newton":
        assert newton[0] > 0


def test_matrix_g_must_be_psd():
    spec = ridge_split_spec()
    G = -np.eye(spec.d1)
    with pytest.raises(ValueError, match="positive semidefinite"):
        SolverConfig(variant="linearized", t_max=10, G=G).validate(spec)


# ---------------------------------------------------------------------------
# invariant probes


def test_invariant_probes_stay_quiet_on_valid_runs(lasso_preset):
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=200,
                       check_invariants=True)
    [traj] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(0).presample(cfg.t_max))
    assert traj.error is None
    assert traj.invariant_log == []
    assert max(0.0, *traj.invariant_worst.values()) <= 1e-9


def _coupled_box_spec(seed=4, d1=4, m=3):
    """General A, B = 2I, nonzero b and box sets on both blocks."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((12, d1))
    return ProblemSpec(
        theta1=LeastSquares(design, design @ rng.standard_normal(d1)),
        theta2=L1Norm(0.3),
        A=rng.standard_normal((m, d1)), B=2.0 * np.eye(m), b=rng.standard_normal(m),
        X=Box(-np.ones(d1), 2.0 * np.ones(d1)), Y=Box(-np.ones(m), np.ones(m)),
        constants=StructuralConstants(M=10.0))


@pytest.mark.parametrize("which", ["lasso", "coupled-box"])
def test_batched_checks_match_probe_by_probe_formulas(which, lasso_preset):
    """Each check over a (P, d) probe array gives, row for row, the residual
    of its one-point formula."""
    spec = lasso_preset.spec if which == "lasso" else _coupled_box_spec()
    rng = np.random.default_rng(9)
    beta, eta, P = 1.3, 0.2, 7
    state = IterateState(spec.X.project(rng.standard_normal(spec.d1)),
                         rng.standard_normal(spec.d2), rng.standard_normal(spec.m))
    prev = state.as_w()
    g = spec.theta1.subgrad(prev.x) + rng.standard_normal(spec.d1)
    plan = SolverConfig(variant="stochastic", beta=beta, t_max=0).validate(spec)
    curr = step(state, plan, g, eta).as_w()
    delta = g - spec.theta1.subgrad(prev.x)
    probes = StackedW(spec.X.project(spec.X.sample(rng, size=P)),
                      spec.Y.project(spec.Y.sample(rng, size=P)),
                      rng.standard_normal((P, spec.m)))
    assert probes.x.shape == (P, spec.d1) and probes.y.shape == (P, spec.d2)

    def sq(v):
        return float(v @ v)

    # step inequality, term by term at one probe w
    res, scale = step_inequality_check(prev, curr, probes, g, delta, eta, spec, beta)
    F = eval_F(curr, spec)
    for p in range(P):
        w = StackedW(probes.x[p], probes.y[p], probes.lam[p])
        lhs = (spec.theta1.value(prev.x) + spec.theta2.value(curr.y)
               - spec.theta(w.x, w.y) + float((curr.x - w.x) @ F.x
                                              + (curr.y - w.y) @ F.y
                                              + (curr.lam - w.lam) @ F.lam))
        terms = (eta * sq(g) / 2.0,
                 (sq(prev.x - w.x) - sq(curr.x - w.x)) / (2.0 * eta),
                 beta * (sq(spec.A @ w.x + spec.B @ prev.y - spec.b)
                         - sq(spec.A @ w.x + spec.B @ curr.y - spec.b)) / 2.0,
                 float(delta @ (w.x - prev.x)),
                 (sq(w.lam - prev.lam) - sq(w.lam - curr.lam)) / (2.0 * beta))
        assert res[p] == pytest.approx(lhs - sum(terms), abs=1e-12)
        assert scale[p] == pytest.approx(1.0 + abs(lhs) + sum(map(abs, terms)),
                                         abs=1e-12)

    # 3-points relation at the realized x-update
    v = spec.b + prev.lam / beta - spec.B @ prev.y
    g_l = g + beta * (spec.A.T @ (spec.A @ curr.x - v))
    holds, tp = three_points_check(curr.x, prev.x, probes.x, g_l, 1.0 / eta, tol=1e-9)
    assert tp.shape == holds.shape == (P,)
    for p in range(P):
        xp = probes.x[p]
        ref = float(g_l @ (curr.x - xp)) - (sq(xp - prev.x) - sq(xp - curr.x)
                                            - sq(curr.x - prev.x)) / (2.0 * eta)
        assert tp[p] == pytest.approx(ref, abs=1e-12)
        one_holds, one_res = three_points_check(curr.x, prev.x, xp, g_l, 1.0 / eta,
                                                tol=1e-9)
        assert np.ndim(one_res) == 0 and one_holds == holds[p]

    # y-optimality: the same draws, one probe at a time
    draw = spec.Y.sample(np.random.default_rng(3), size=P)
    worst, yscale = check_y_optimality(curr, spec, draw, probes=P)
    # a whole-space Y's probes at the scale 1 + ||y||, a box's as drawn
    ys = spec.Y.project((1.0 + np.linalg.norm(curr.y)) * draw
                        if isinstance(spec.Y, WholeSpace) else draw)
    grad_term = -spec.B.T @ curr.lam
    ref = max(spec.theta2.value(curr.y) - spec.theta2.value(y)
              + float((curr.y - y) @ grad_term) for y in ys)
    assert worst == pytest.approx(ref, abs=1e-12)
    assert yscale == pytest.approx(1.0 + abs(spec.theta2.value(curr.y))
                                   + np.linalg.norm(grad_term), abs=1e-12)


def test_y_optimality_scales_each_rows_probes_by_its_own_y(lasso_preset):
    """Over a whole-space Y, n rows at once give, row for row, the one-point
    formula at that row's draw times its own 1 + ||y||: 2, 11 and, for y =
    0, exactly 1."""
    spec = lasso_preset.spec
    assert isinstance(spec.Y, WholeSpace)
    rng = np.random.default_rng(8)
    P, n = 5, 3
    y = rng.standard_normal((n, spec.d2))
    y *= (np.array([1.0, 10.0, 0.0]) / np.linalg.norm(y, axis=1))[:, None]
    curr = StackedW(rng.standard_normal((n, spec.d1)), y,
                    rng.standard_normal((n, spec.m)))
    draw = spec.Y.sample(rng, size=(n, P))
    worst, _ = check_y_optimality(curr, spec, draw, probes=P)
    assert worst.shape == (n,)
    grad_term = -curr.lam @ spec.B
    for i, scale in enumerate((2.0, 11.0, 1.0)):
        ref = max(spec.theta2.value(y[i]) - spec.theta2.value(p)
                  + float((y[i] - p) @ grad_term[i]) for p in scale * draw[i])
        assert worst[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["lasso-split", "strongly-convex-lasso"])
def test_quadratic_form_of_theta1_matches_its_value_and_subgradient(name):
    """The checks evaluate a least-squares theta1 through (H, c, const): its
    value at (n, P, d) probes and (n, 1, d) iterates, and its subgradient H x
    + c at (n, d) iterates, agree with value() and subgrad()."""
    preset = build_preset(name, seed=1)
    spec = preset.spec
    quadratic = solvers._theta1_quadratic(spec)
    assert quadratic is not None
    assert name != "strongly-convex-lasso" or spec.theta1.mu > 0
    rng = np.random.default_rng(5)
    probes = spec.X.project(spec.X.sample(rng, size=(4, PROBE_COUNT)))
    state = IterateState.zeros(spec, 4)
    draws = preset.make_oracle(0).presample(30)
    plan = SolverConfig(t_max=30).validate(spec)
    for k in range(30):
        step(state, plan, draws.subgradient(spec.theta1, state.x, k), 0.05)
    for x in (probes, state.x[:, None]):
        value = solvers._theta1_value(x, spec, quadratic)
        assert value.shape == x.shape[:-1]
        np.testing.assert_allclose(value, spec.theta1.value(x), rtol=1e-12, atol=0)
    grad, exact = solvers._theta1_subgrad(state.x, spec, quadratic), \
        spec.theta1.subgrad(state.x)
    assert np.all(np.linalg.norm(grad - exact, axis=-1)
                  <= 1e-12 * np.linalg.norm(exact, axis=-1))


def test_checks_without_a_quadratic_form_call_value_and_subgrad():
    """A hinge-loss theta1 has no quadratic form: the checks evaluate it
    with value() and subgrad() and stay quiet on a valid run."""
    preset = build_preset("hinge-svm-split", seed=0, n=30, d=4)
    assert solvers._theta1_quadratic(preset.spec) is None
    traj = _checked_run(preset.spec, preset.make_oracle(0))
    assert traj.error is None and traj.invariant_log == []
    assert traj.invariant_probes["step-inequality"] == PROBE_COUNT * 40
    assert max(0.0, *traj.invariant_worst.values()) <= 1e-9


def _checked_run(spec, oracle, t_max=40):
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=t_max,
                       check_invariants=True)
    [traj] = run(spec, cfg, oracle.presample(cfg.t_max))
    return traj


def _perturb_x_update_at(monkeypatch, spec, steps):
    """Move the x-update of the given steps off its minimizer by twice the
    diameter of X."""
    shift = 2.0 * spec.diameter_x * np.ones(spec.d1) / np.sqrt(spec.d1)
    real, calls = solvers.min_quadratic_over_set, [0]

    def perturbed(*args, **kwargs):
        calls[0] += 1
        x = real(*args, **kwargs)
        return x + shift if calls[0] in steps else x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", perturbed)


def test_checks_flag_a_perturbed_x_update(lasso_preset, monkeypatch):
    """An x-update moved off its minimizer breaks the 3-points relation and
    the step inequality at that step."""
    _perturb_x_update_at(monkeypatch, lasso_preset.spec, (20,))
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0))
    assert traj.error is None
    at_20 = [name for k, name, _ in traj.invariant_log if k == 20]
    assert at_20.count("three-points") == PROBE_COUNT
    assert "step-inequality" in at_20


def test_violations_at_two_steps_of_one_chunk_are_logged_in_step_order(
        lasso_preset, monkeypatch):
    """The check pass evaluates a chunk one invariant at a time; the log is
    still in (k, INVARIANTS order, probe) order."""
    steps = (CHECK_CHUNK + 2, CHECK_CHUNK + 4)
    _perturb_x_update_at(monkeypatch, lasso_preset.spec, steps)
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0))
    keys = [(k, INVARIANTS.index(name)) for k, name, _ in traj.invariant_log]
    assert keys == sorted(keys)
    assert {k for k, _ in keys} == set(steps)
    for k in steps:
        names = [name for step_k, name, _ in traj.invariant_log if step_k == k]
        assert names.count("three-points") == PROBE_COUNT and "step-inequality" in names


def test_checks_cover_a_last_chunk_shorter_than_check_chunk(lasso_preset, monkeypatch):
    t_max = 2 * CHECK_CHUNK + 3
    _perturb_x_update_at(monkeypatch, lasso_preset.spec, (t_max,))
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0), t_max=t_max)
    assert {k for k, _, _ in traj.invariant_log} == {t_max}
    assert traj.invariant_probes == {"dual-identity": t_max, "y-optimality": 20 * t_max,
                                     "three-points": PROBE_COUNT * t_max,
                                     "step-inequality": PROBE_COUNT * t_max}


def test_an_exception_mid_chunk_keeps_the_checks_of_every_completed_step(
        lasso_preset, monkeypatch):
    real, calls = solvers.min_quadratic_over_set, [0]

    def failing_x_update(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 30:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "min_quadratic_over_set", failing_x_update)
    solver = SolverConfig(t_max=50, check_invariants=True)
    trajs = run_replications(lasso_preset, solver.validate(lasso_preset.spec), 2,
                             np.arange(1, 51), None)
    for traj in trajs:
        assert traj.error == "iteration 30: injected failure"
        # steps 1..29 completed, the last 29 - CHECK_CHUNK of them in an
        # unfinished chunk
        assert traj.invariant_probes == {"dual-identity": 29, "y-optimality": 20 * 29,
                                         "three-points": PROBE_COUNT * 29,
                                         "step-inequality": PROBE_COUNT * 29}


def test_non_finite_iterate_ends_the_run(lasso_preset, monkeypatch):
    real = IterateState.advance

    def nan_x_at_20(self, x, y, lam):
        real(self, np.full_like(x, np.nan) if self.k == 19 else x, y, lam)

    monkeypatch.setattr(IterateState, "advance", nan_x_at_20)
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0))
    assert traj.error == "iteration 20: non-finite iterate"
    assert list(traj.k) == list(range(1, 20))
    assert np.all(np.isfinite(traj.feas_eq2))
    assert np.isnan(traj.invariant_worst["dual-identity"])
    # no recorded row after it: the final state tells
    cfg = SolverConfig(variant="stochastic", t_max=40)
    [traj] = run(lasso_preset.spec, cfg, lasso_preset.make_oracle(0).presample(40),
                 record_at=np.arange(1, 11))
    # the loop ends at the end of the chunk of step 20
    assert traj.error == "iteration 32: non-finite iterate"
    assert list(traj.k) == list(range(1, 11))


def test_chunks_after_every_replication_ended_check_nothing(lasso_preset, monkeypatch):
    """Every replication's x_20 is NaN and no row is recorded before step 60,
    so the run ends at the end of that chunk, step 32, after checking each
    replication's steps up to step 20."""
    real = IterateState.advance

    def nan_x_at_20(self, x, y, lam):
        real(self, np.full_like(x, np.nan) if self.k == 19 else x, y, lam)

    monkeypatch.setattr(IterateState, "advance", nan_x_at_20)
    solver = SolverConfig(t_max=60, check_invariants=True)
    trajs = run_replications(lasso_preset, solver.validate(lasso_preset.spec), 2,
                             np.array([10, 60]), None)
    for traj in trajs:
        assert traj.error == "iteration 32: non-finite iterate"
        assert traj.invariant_probes["dual-identity"] == 20


def test_checks_flag_a_perturbed_dual_step(lasso_preset, monkeypatch):
    real = IterateState.advance

    def perturbed(self, x, y, lam):
        real(self, x, y, lam + 0.1 if self.k == 19 else lam)

    monkeypatch.setattr(IterateState, "advance", perturbed)
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0))
    assert (20, "dual-identity") in [(k, name) for k, name, _ in traj.invariant_log]


def test_invariant_record_counts_every_probe(lasso_preset):
    traj = _checked_run(lasso_preset.spec, lasso_preset.make_oracle(0), t_max=30)
    assert traj.invariant_probes == {"dual-identity": 30, "y-optimality": 600,
                                     "three-points": 150, "step-inequality": 150}
    assert set(traj.invariant_worst) == set(traj.invariant_probes)
    # without a sampled subgradient only the dual and y checks run
    [det] = run(ridge_split_spec(), SolverConfig(variant="deterministic", t_max=10,
                                                 check_invariants=True))
    assert det.invariant_probes == {"dual-identity": 10, "y-optimality": 200,
                                    "three-points": 0, "step-inequality": 0}
    assert set(det.invariant_worst) == {"dual-identity", "y-optimality"}


def test_checked_run_draws_as_many_probe_variates_whatever_r_is(lasso_preset,
                                                                 monkeypatch):
    """Every replication of a checked run reads the probes of one generator:
    R = 6 draws exactly the variates of R = 1."""
    real_init, variates = solvers.CheckedSteps.__init__, []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            def counted(*args, **kwargs):
                out = getattr(self.rng, name)(*args, **kwargs)
                variates[-1] += np.size(out)
                return out
            return counted

    def spied_init(self, state, plan):
        real_init(self, state, plan)
        self.rng = Counting(self.rng)
        variates.append(0)

    monkeypatch.setattr(solvers.CheckedSteps, "__init__", spied_init)
    solver = SolverConfig(t_max=77, check_invariants=True)
    for R in (1, 6):
        run_replications(lasso_preset, solver.validate(lasso_preset.spec), R,
                         np.arange(1, 78), None)
    # per step: 20 y-points, 5 three-points x-points and 5 (x, y, lam) points,
    # and one uniform radius per point of the ball X
    d1, d2, m = lasso_preset.spec.d1, lasso_preset.spec.d2, lasso_preset.spec.m
    per_step = 20 * d2 + PROBE_COUNT * (d1 + 1) + PROBE_COUNT * (d1 + 1 + d2 + m)
    assert variates == [77 * per_step] * 2


def test_averaging_defaults():
    assert SolverConfig(variant="deterministic").default_averaging() == "eq10-aligned"
    assert SolverConfig(variant="stochastic",
                        schedule="smooth").default_averaging() == "eq10-aligned"
    assert SolverConfig(variant="stochastic",
                        schedule="convex").default_averaging() == "eq2-shifted"
    assert SolverConfig(averaging="eq10-aligned",
                        schedule="convex").default_averaging() == "eq10-aligned"
