"""End-to-end acceptance gate.

Each test prints one pass/fail line for its criterion.  The convergence-rate
criteria compare empirical mean error curves against the guaranteed bounds
and the expected log-log slopes; the remaining criteria exercise runtime
invariants, reference oracles and output determinism.
"""

import numpy as np
import pytest

from stocadmm.functions import Quadratic
from stocadmm.harness import ExperimentConfig, run_experiment, run_replications
from stocadmm.metrics import (compute_reference, estimate_expectation,
                              fit_rate, high_prob_check, rate_bound,
                              require_tail_bound)
from stocadmm.oracle import AdditiveNoiseOracle
from stocadmm.presets import PRESET_NAMES, build_preset
from stocadmm.problem import IterateState
from stocadmm.solvers import SolverConfig, run, step

from conftest import scalar_split_spec, ridge_split_spec


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _grid(t_max, n=40):
    return np.unique(np.round(np.geomspace(1, t_max, n)).astype(int))


@pytest.fixture(scope="module")
def lasso():
    preset = build_preset("lasso-split", seed=0)
    ref = compute_reference(preset.spec, "long-admm", beta=1.0, tol=1e-10)
    return preset, ref


def test_criterion_01_convex_rate(lasso):
    preset, ref = lasso
    spec = preset.spec
    cfg = SolverConfig(variant="stochastic", beta=1.0, schedule="convex",
                       t_max=100_000, rho=1.0)
    grid = _grid(cfg.t_max)
    trajs = run_replications(preset, cfg.validate(spec), 50, grid, ref.theta_star)
    mean, stderr = estimate_expectation(trajs, grid, "eq2-shifted")
    fit = fit_rate(grid, mean, (1e3, 1e5))
    bound = rate_bound(grid, cfg, spec, ref.d_y_star_b(spec))
    slope_ok = -0.65 <= fit.slope <= -0.35
    bound_ok = bool(np.all(mean <= bound + 3.0 * stderr))
    _report(1, "convex rate", slope_ok and bound_ok,
            f"slope={fit.slope:.3f} in [-0.65,-0.35]: {slope_ok}, "
            f"bound dominates mean curve: {bound_ok}")


def test_criterion_02_strongly_convex_rate():
    preset = build_preset("strongly-convex-lasso", seed=0, mu=0.1)
    spec = preset.spec
    ref = compute_reference(spec, "long-admm", beta=1.0, tol=1e-10)
    cfg = SolverConfig(variant="stochastic", beta=1.0,
                       schedule="strongly-convex", t_max=100_000, rho=1.0)
    grid = _grid(cfg.t_max)
    trajs = run_replications(preset, cfg.validate(spec), 50, grid, ref.theta_star)
    mean, stderr = estimate_expectation(trajs, grid, "eq2-shifted")
    fit = fit_rate(grid, mean, (1e3, 1e5))
    bound = rate_bound(grid, cfg, spec, ref.d_y_star_b(spec))
    slope_ok = -1.15 <= fit.slope <= -0.70
    bound_ok = bool(np.all(mean <= bound + 3.0 * stderr))
    _report(2, "strongly convex rate", slope_ok and bound_ok,
            f"slope={fit.slope:.3f} in [-1.15,-0.70]: {slope_ok}, "
            f"bound dominates mean curve: {bound_ok}")


def test_criterion_03_deterministic_rate(lasso):
    preset, ref = lasso
    spec = preset.spec
    cfg = SolverConfig(variant="deterministic", beta=1.0, t_max=10_000,
                       rho=1.0, averaging="eq10-aligned")
    [traj] = run(spec, cfg, theta_star=ref.theta_star)
    assert traj.error is None
    errs = traj.err_curve("eq10-aligned")
    fit = fit_rate(traj.k, errs, (1e2, 1e4))
    bound = rate_bound(traj.k, cfg, spec, ref.d_y_star_b(spec))
    slope_ok = fit.slope <= -0.9
    bound_ok = bool(np.all(errs <= bound))
    _report(3, "deterministic 1/t rate", slope_ok and bound_ok,
            f"slope={fit.slope:.3f} <= -0.9: {slope_ok}, "
            f"bound holds at every step: {bound_ok}")


def test_criterion_04_smooth_schedule_with_zero_variance():
    preset = build_preset("lasso-split", seed=0, oracle="exact")
    spec = preset.spec
    ref = compute_reference(spec, "long-admm", beta=1.0, tol=1e-10)
    cfg = SolverConfig(variant="stochastic", beta=1.0, schedule="smooth",
                       t_max=10_000, rho=1.0)
    [traj] = run(spec, cfg, preset.make_oracle(0).presample(cfg.t_max),
                 theta_star=ref.theta_star)
    eta_const = bool(np.allclose(traj.eta, 1.0 / spec.constants.L, rtol=1e-12))
    fit = fit_rate(traj.k, traj.err_curve("eq10-aligned"), (1e2, 1e4))
    slope_ok = fit.slope <= -0.9
    _report(4, "smooth schedule degenerates", eta_const and slope_ok,
            f"eta == 1/L at every step: {eta_const}, "
            f"slope={fit.slope:.3f} <= -0.9: {slope_ok}")


def test_criterion_05_per_iteration_inequality(lasso):
    results = []
    # 1-D instance with bounded additive noise
    spec1 = scalar_split_spec(radius=2.0)
    oracle1 = AdditiveNoiseOracle(spec1.theta1, sigma=0.5, kind="uniform",
                                  seed=0)
    cfg1 = SolverConfig(variant="stochastic", schedule="convex", t_max=1000,
                        check_invariants=True)
    [t1] = run(spec1, cfg1, oracle1.presample(cfg1.t_max))
    results.append(("1d", t1))
    # the sampled finite-sum lasso instance
    preset, _ = lasso
    cfg2 = SolverConfig(variant="stochastic", schedule="convex", t_max=1000,
                        check_invariants=True)
    [t2] = run(preset.spec, cfg2, preset.make_oracle(0).presample(cfg2.t_max))
    results.append(("lasso", t2))
    bad = []
    for name, traj in results:
        assert traj.error is None
        viol = [e for e in traj.invariant_log if e[1] == "step-inequality"]
        if viol or max(0.0, *traj.invariant_worst.values()) > 1e-9:
            bad.append(name)
    _report(5, "per-iteration inequality", not bad,
            f"5 probes/step over 1000 steps on 1-D and lasso instances, "
            f"worst scaled residual "
            f"{max(max(0.0, *t.invariant_worst.values()) for _, t in results):.2e}")


def test_criterion_06_three_points_relation_all_presets():
    failures = []
    for name in PRESET_NAMES:
        preset = build_preset(name, seed=1)
        cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=200,
                           check_invariants=True)
        [traj] = run(preset.spec, cfg, preset.make_oracle(0).presample(cfg.t_max))
        assert traj.error is None, f"{name}: {traj.error}"
        if any(e[1] == "three-points" for e in traj.invariant_log):
            failures.append(name)
    _report(6, "3-points relation", not failures,
            f"checked at every x-update across {len(PRESET_NAMES)} presets, "
            f"violations: {failures or 'none'}")


def test_criterion_07_structural_identities(lasso):
    preset, ref = lasso
    spec = preset.spec
    details = []

    # dual-update identity to machine precision, y-update optimality at its
    # exact worst case (both monitored by the check-mode run)
    cfg = SolverConfig(variant="stochastic", schedule="convex", t_max=200,
                       check_invariants=True)
    [traj] = run(spec, cfg, preset.make_oracle(1).presample(cfg.t_max))
    dual_ok = not any(e[1] == "dual-identity" for e in traj.invariant_log)
    y_ok = not any(e[1] == "y-optimality" for e in traj.invariant_log)
    details.append(f"dual identity exact: {dual_ok}")
    details.append(f"y-update optimality, exact gap: {y_ok}")

    # zero-G linearized variant reproduces the exact alternating minimization
    rspec = ridge_split_spec()
    det, lin = IterateState.zeros(rspec), IterateState.zeros(rspec)
    cfg_d = SolverConfig(variant="deterministic", beta=1.0, t_max=0)
    plan_d = cfg_d.validate(rspec)
    plan_l = SolverConfig(variant="linearized", beta=1.0, t_max=0, G=0).validate(rspec)
    drift = 0.0
    for _ in range(100):
        step(det, plan_d)
        step(lin, plan_l)
        drift = max(drift, float(np.linalg.norm(det.x - lin.x)
                                 + np.linalg.norm(det.y - lin.y)
                                 + np.linalg.norm(det.lam - lin.lam)))
    lin_ok = drift <= 1e-12
    details.append(f"zero-G linearized == deterministic (drift {drift:.1e})")

    # the certified optimum is a fixed point of the deterministic step
    state = IterateState(ref.x_star.copy(), ref.y_star.copy(), ref.lam_star.copy())
    plan = cfg_d.validate(spec)
    move = 0.0
    for _ in range(5):
        before = state.as_w()
        step(state, plan)
        move = max(move, float(np.linalg.norm(state.x - before.x)
                               + np.linalg.norm(state.y - before.y)
                               + np.linalg.norm(state.lam - before.lam)))
    fixed_ok = move <= 1e-10
    details.append(f"fixed-point stationarity (move {move:.1e})")

    _report(7, "structural identities",
            dual_ok and y_ok and lin_ok and fixed_ok, "; ".join(details))


def test_criterion_08_high_probability_tail(lasso):
    preset, ref = lasso
    spec = preset.spec
    cfg = SolverConfig(variant="stochastic", beta=1.0, schedule="convex",
                       t_max=10_000, rho=1.0)
    grid = np.array([10_000])
    trajs = run_replications(preset, cfg.validate(spec), 200, grid, ref.theta_star)
    errs = [t.err_rho_eq2[-1] for t in trajs]
    d_yb = ref.d_y_star_b(spec)
    require_tail_bound(cfg, preset.make_oracle(0).bounded)
    lines = []
    ok = True
    for omega in (1.0, 2.0):
        res = high_prob_check(errs, 10_000, omega, cfg, spec, d_yb)
        ok = ok and res.passed
        lines.append(f"Omega={omega:.0f}: exceed {res.exceed_fraction:.3f} "
                     f"<= {res.bound:.3f}+{res.slack:.3f}")
    _report(8, "high-probability tail", ok, "; ".join(lines))


def test_criterion_09_reference_oracles_agree():
    rspec = ridge_split_spec()
    direct = compute_reference(rspec, "kkt-direct")
    iterative = compute_reference(rspec, "long-admm", beta=1.0, tol=1e-11)
    gap = abs(direct.theta_star - iterative.theta_star)
    quad_ok = gap <= 1e-7

    # brute-force certification of a 2-variable instance
    from stocadmm.problem import ProblemSpec
    from stocadmm.sets import Ball, WholeSpace
    tiny = ProblemSpec(
        theta1=Quadratic(np.eye(1), np.array([-0.5])),
        theta2=rspec.theta2.__class__(1.0),
        A=np.eye(1), B=-np.eye(1), b=np.zeros(1),
        X=Ball(1, 2.0), Y=WholeSpace(1),
        constants=rspec.constants)
    grid_ref = compute_reference(tiny, "grid-search", resolution=1e-4)
    admm_ref = compute_reference(tiny, "long-admm", beta=1.0, tol=1e-11)
    grid_gap = grid_ref.theta_star - admm_ref.theta_star
    grid_ok = 0.0 <= grid_gap + 1e-12 and grid_gap <= 1e-6
    _report(9, "reference oracles", quad_ok and grid_ok,
            f"direct vs iterative objective gap {gap:.1e} <= 1e-7; "
            f"grid certification gap {grid_gap:.1e}")


def test_criterion_10_byte_identical_outputs(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        cfg = ExperimentConfig(
            preset="lasso-split", preset_params={"n": 50, "d": 6},
            preset_seed=3,
            solver=SolverConfig(variant="stochastic", schedule="convex",
                                t_max=1000),
            replications=5, out_dir=str(tmp_path / tag))
        report, code = run_experiment(cfg)
        assert code == 0
        blobs.append((tmp_path / tag / "aggregate.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(10, "determinism", ok,
            "same seed twice gives byte-identical aggregate CSV")
