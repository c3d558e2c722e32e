"""Microseconds per step of each update form, on the workload configs of the
benchmark.

    python3 tools/step_costs.py [--checkout DIR] [--rounds 7] [--size full]

Plans the config of each workload of ``perfbench/experiment.py`` (its
``WORKLOADS`` and ``make_config``, at preset seed 7, the seed of the committed
benchmark records) with the program and the benchmark of the checkout DIR
(default: this one), and times the solver loop of each alone: the draws are
presampled before the clock starts, and the loop records the rows
of the workload's grid, as its experiment does, so that the time includes
the recording and the metric pass of those rows (4000 rows on
linearized-dense, a sparse grid elsewhere).  The form a workload takes is
read off its plan:

* identity-split: kernel-sweep (lasso-split, stochastic, R = 16), by
  ``kernels.admm_identity_split``;
* general: general-step (fused-lasso-graph, general A, stochastic, R = 3),
  by ``solvers.run`` on the stacked draws;
* checked: checked (lasso-split, stochastic with invariant checks, R = 2),
  the same way, its check passes included;
* linearized: linearized-dense (lasso-split, scalar G, one stream), by
  ``solvers.run``.

The process pins itself to one CPU and runs every loop once per round, in
the reverse order every other round.  It prints one line per form: the form,
the workload, R, T and the least loop time over the rounds divided by T, in
microseconds per step.  Run it once per checkout, for example once with
``--checkout ../parent``, and compare the lines.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def form_of(plan) -> str:
    """The update form the plan's loop takes."""
    if plan.takes_identity_split:
        return "identity-split"
    if not plan.stochastic:
        return plan.cfg.variant
    return "checked" if plan.cfg.check_invariants else "general"


def planned_loop(experiment, workload: str, size: str, seed: int, out_dir: str):
    """(form, R, T, loop) for the config of workload, where loop() runs its
    T steps from zero on draws presampled once."""
    from stocadmm import kernels
    from stocadmm.problem import IterateState

    harness = experiment.harness
    cfg = experiment.make_config(workload, size, seed, out_dir)
    preset, plan = harness.plan_experiment(cfg)
    spec, T = preset.spec, cfg.solver.t_max
    record_at = harness._grid_and_window(cfg)[0]
    if not plan.stochastic:  # the replications of such a run are one run
        return form_of(plan), 1, T, lambda: harness.run(spec, plan.cfg, record_at=record_at)
    R = cfg.replications
    draws = harness._stack_draws(preset, R, T)
    if plan.takes_identity_split:
        def loop():
            kernels.admm_identity_split(plan, draws.indices, draws.noise,
                                        IterateState.zeros(spec, R), None, record_at)
    else:
        def loop():
            harness.run(spec, plan.cfg, record_at=record_at,
                        state=IterateState.zeros(spec, R), draws=draws)
    return form_of(plan), R, T, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout whose program and benchmark run")
    parser.add_argument("--rounds", type=int, default=7,
                        help="runs of every loop; the least time counts")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="the workloads' size in perfbench/experiment.py")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # importing experiment puts the checkout's src/ first on the path
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import experiment

    experiment.pin_to_one_cpu()
    with tempfile.TemporaryDirectory() as out_dir:
        loops = [(workload, *planned_loop(experiment, workload, args.size, SEED, out_dir))
                 for workload in experiment.WORKLOADS]
    best = [math.inf] * len(loops)
    for round_ in range(args.rounds):
        order = range(len(loops)) if round_ % 2 == 0 else reversed(range(len(loops)))
        for i in order:
            t0 = time.perf_counter()
            loops[i][-1]()
            best[i] = min(best[i], time.perf_counter() - t0)
    for (workload, form, R, T, _), seconds in zip(loops, best):
        print(f"{form} {workload} R={R} T={T} {seconds / T * 1e6:.2f} us/step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
