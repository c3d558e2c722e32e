"""The layer boundaries perfbench/tracing.py wraps by name.

The tracer replaces module attributes of stocadmm by their names and reads
some arguments by name (harness.run's cfg, admm_identity_split's noise,
check_y_optimality's probes).  A boundary that no longer resolves is listed
in Tracer.missing and its metrics read zero, so a rename would go unnoticed
in the benchmark; this test notices it.
"""

import importlib.util
from pathlib import Path

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
}


def test_tracer_boundaries_resolve_but_the_known_missing_ones():
    from stocadmm import harness
    run = harness.run
    tracer = tracing.Tracer()
    with tracer:
        assert harness.run is not run  # wrapped
    assert harness.run is run  # and restored
    assert set(tracer.missing) <= ALREADY_MISSING
