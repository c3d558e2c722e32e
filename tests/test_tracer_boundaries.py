"""The layer boundaries perfbench/tracing.py wraps by name.

The tracer replaces module attributes of stocadmm by their names and reads
some arguments by name (harness.run's cfg, admm_identity_split's noise).  A
boundary that no longer resolves is listed in Tracer.missing and its metrics
read zero, so a rename would go unnoticed in the benchmark; this test
notices it.  The tracer also counts calls at
some boundaries, so the number of calls one step makes is pinned here too.
"""

import importlib.util
from pathlib import Path

import numpy as np

from stocadmm import kernels, solvers
from stocadmm.problem import IterateState
from stocadmm.solvers import SolverConfig

from conftest import small_lasso_preset

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# boundaries the program no longer has; every other one must resolve
ALREADY_MISSING = {
    "stocadmm.harness:run_replication",
    "stocadmm.oracle:FiniteSumOracle.sample_subgradient",
    "stocadmm.oracle:AdditiveNoiseOracle.sample_subgradient",
    "stocadmm.solvers:solve_x_subproblem",
    "stocadmm.harness:err_rho",
    # exact, it takes no probe count, the argument the tracer reads
    "stocadmm.solvers:check_y_optimality",
}


def test_tracer_boundaries_resolve_but_the_known_missing_ones():
    from stocadmm import harness
    run = harness.run
    tracer = tracing.Tracer()
    with tracer:
        assert harness.run is not run  # wrapped
    assert harness.run is run  # and restored
    assert set(tracer.missing) <= ALREADY_MISSING


def _counted(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, name=name, real=getattr(solvers, name), **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(solvers, name, wrapper)
    return calls


def test_one_step_calls_each_update_boundary_once(monkeypatch):
    """prox.x_update and prox.y_update count the calls of these names, one
    per step() of every variant."""
    spec = small_lasso_preset().spec
    for variant in ("deterministic", "linearized", "stochastic"):
        plan = SolverConfig(variant=variant, G=2.0, t_max=0).validate(spec)
        calls = _counted(monkeypatch, ("min_quadratic_over_set", "solve_y_update"))
        state = IterateState.zeros(spec, 2)
        g = np.ones((2, spec.d1)) if plan.stochastic else None
        solvers.step(state, plan, g, 0.5)
        assert calls == {"min_quadratic_over_set": 1, "solve_y_update": 1}, variant


def test_identity_split_entry_calls_each_update_boundary_once_per_step(monkeypatch):
    """The identity-split entry runs the plan's own update, so it counts as
    step() does: one call of each update boundary per step."""
    spec = small_lasso_preset().spec
    plan = SolverConfig(t_max=3).validate(spec)
    assert plan.takes_identity_split
    calls = _counted(monkeypatch, ("min_quadratic_over_set", "solve_y_update"))
    state = IterateState.zeros(spec, 2)
    kernels.admm_identity_split(plan, None, None, state)
    assert state.k == 3
    assert calls == {"min_quadratic_over_set": 3, "solve_y_update": 3}
