"""Each invariant check can fail: a defect planted in one part of the step,
through the module attribute the step calls, fails a small checked run on
the check that must see it, and on no other check apart from those that
read the same quantity (a dual step off beta also moves the lam_{k+1} that
y-optimality reads; an x-update off eta also moves the step inequality's
x-part).

The runs are checked stochastic runs (n = 50, d = 6, R = 2, T = 200).  A
defect applies to the run's stochastic steps only (the x-update's shift
1/eta_k is positive, the y-update's plan is stochastic, the state is
batched), not to the reference solve of theta*."""

import pytest

from stocadmm import problem, solvers
from stocadmm.harness import ExperimentConfig, run_experiment
from stocadmm.solvers import SolverConfig


def _checked_run(tmp_path, preset):
    cfg = ExperimentConfig(preset=preset, preset_params={"n": 50, "d": 6},
                           replications=2, out_dir=str(tmp_path),
                           solver=SolverConfig(t_max=200, check_invariants=True))
    _, code = run_experiment(cfg)
    log = (tmp_path / "invariants.log").read_text().splitlines()
    return code, {line.split()[2] for line in log}


def _scale_x_update(monkeypatch, factor):
    real = solvers.min_quadratic_over_set

    def scaled(H0, eig, shift, *args, **kwargs):
        x = real(H0, eig, shift, *args, **kwargs)
        return factor * x if shift > 0 else x

    monkeypatch.setattr(solvers, "min_quadratic_over_set", scaled)


def _halve_x_step(monkeypatch):
    # the x-update solved with eta_k/2, a shift of 2/eta_k, while the checks
    # use eta_k: rhs carries x_k/eta_k, to which the extra shift adds its own
    real = solvers.min_quadratic_over_set

    def halved(H0, eig, shift, rhs, *args, x_init=None, **kwargs):
        if shift > 0:
            return real(H0, eig, 2 * shift, rhs + shift * x_init, *args,
                        x_init=x_init, **kwargs)
        return real(H0, eig, shift, rhs, *args, x_init=x_init, **kwargs)

    monkeypatch.setattr(solvers, "min_quadratic_over_set", halved)


def _shrink_dual_step(monkeypatch, factor):
    # lam_{k+1} = lam_k - factor*beta*(residual); the reference solve's 1-D
    # state is left alone
    real = problem.IterateState.advance

    def shrunk(self, x_new, y_new, lam_new):
        if self.x.ndim == 2:
            lam_new = self.lam + factor * (lam_new - self.lam)
        real(self, x_new, y_new, lam_new)

    monkeypatch.setattr(problem.IterateState, "advance", shrunk)


def _scale_y_update(monkeypatch, factor):
    real = solvers.solve_y_update

    def scaled(v, plan):
        y = real(v, plan)
        return factor * y if plan.stochastic else y

    monkeypatch.setattr(solvers, "solve_y_update", scaled)


@pytest.mark.parametrize("preset", ["lasso-split", "fused-lasso-graph"])
def test_clean_run_fires_no_check(tmp_path, preset):
    assert _checked_run(tmp_path, preset) == (0, set())


@pytest.mark.parametrize("preset", ["lasso-split", "fused-lasso-graph"])
def test_scaled_x_update_fires_three_points_only(tmp_path, monkeypatch, preset):
    _scale_x_update(monkeypatch, 1 - 1e-4)
    assert _checked_run(tmp_path, preset) == (1, {"three-points"})


@pytest.mark.parametrize("preset, fired", [
    ("lasso-split", {"three-points", "step-inequality"}),
    ("fused-lasso-graph", {"three-points"})], ids=["lasso-split", "fused-lasso-graph"])
def test_x_update_with_half_eta_fires_three_points(tmp_path, monkeypatch, preset, fired):
    _halve_x_step(monkeypatch)
    assert _checked_run(tmp_path, preset) == (1, fired)


@pytest.mark.parametrize("preset, fired", [
    ("lasso-split", {"dual-identity", "y-optimality"}),
    ("fused-lasso-graph", {"dual-identity"})], ids=["lasso-split", "fused-lasso-graph"])
def test_dual_step_with_0_9_beta_fires_dual_identity(tmp_path, monkeypatch, preset, fired):
    _shrink_dual_step(monkeypatch, 0.9)
    assert _checked_run(tmp_path, preset) == (1, fired)


def test_scaled_y_update_fires_y_optimality_on_a_general_a(tmp_path, monkeypatch):
    _scale_y_update(monkeypatch, 1 + 1e-3)
    assert _checked_run(tmp_path, "fused-lasso-graph") == (1, {"y-optimality"})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the sampled y-optimality and "
                   "step-inequality probes sit far from their worst case, so a y-update "
                   "1% off passes on lasso-split")
def test_scaled_y_update_fires_y_optimality_on_lasso_split(tmp_path, monkeypatch):
    _scale_y_update(monkeypatch, 1 + 1e-2)
    code, fired = _checked_run(tmp_path, "lasso-split")
    assert code == 1 and "y-optimality" in fired
