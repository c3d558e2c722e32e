"""Microseconds per step of each update form, on the workload configs of the
benchmark.

    python3 tools/step_costs.py [--checkout DIR] [--rounds 7] [--size full]

Plans the config of each workload of ``perfbench/experiment.py`` (its
``WORKLOADS`` and ``make_config``, at preset seed 7, the seed of the committed
benchmark records) with the program and the benchmark of a checkout, and
times the replications of each alone, by the experiment's own dispatch
(``harness.run_replications``, without theta*).  The time includes the
presampling of the draws, under 2% of kernel-sweep's loop, and, as in the
experiment, the recording and the metric pass of the rows of the workload's
grid (4000 rows on linearized-dense, a sparse grid elsewhere).  The form a
workload takes is read off its plan:

* identity-split: kernel-sweep (lasso-split, stochastic, R = 16), by
  ``kernels.admm_identity_split``;
* general: general-step (fused-lasso-graph, general A, stochastic, R = 3),
  by ``solvers.run`` on the draws of ``oracle.presample_streams``;
* checked: checked (lasso-split, stochastic with invariant checks, R = 2),
  the same way, its check passes included;
* linearized: linearized-dense (lasso-split, scalar G, R = 1), by
  ``solvers.run`` on a 1-D state, which draws nothing.

A fifth line, check-pass, is the time the checked loop spends in its check
passes (``solvers._run_checks``), timed inside the same runs.  Then one setup
line per workload gives, in milliseconds, the set-up that
``perfbench/experiment.py`` times as ``setup_s``: ``build_preset`` plus
``compute_reference`` at the workload's preset and seed, timed in the same
rounds.

Without ``--checkout``, the process pins itself to one CPU and runs every
loop once per round, in the reverse order every other round.  It prints one
line per form: the form, the workload, R, T and the least loop time over the
rounds divided by T, in microseconds per step; the check-pass line takes the
least over the rounds of the checked loop's time in its check passes, and a
setup line the least set-up time, in ms.

With ``--checkout DIR``, it times DIR and this checkout round by round, so
that both see the same drift of the machine's speed.  Each round times each
side in a fresh child process (pinned to one CPU, the least of
``RUNS_PER_CHILD`` runs of every loop), and the side that goes first
alternates.  A shared VM can run a whole process at one of very different
speeds, so each child also times ``experiment.calibrate()`` before and after
its loops and scales its times to the calibration speed recorded in this
checkout's ``perfbench/expected.json``, as ``perfbench/run.py`` scales
``experiment_s``.  It prints one line per form: the form, the workload, R,
T, the least scaled time per step over the rounds of DIR and of this
checkout, the median over the rounds of this checkout's time divided by
DIR's, and the rounds this checkout was faster in:

    FORM WORKLOAD R=.. T=.. DIR_MIN -> THIS_MIN us/step ratio MEDIAN wins N/ROUNDS

with ms in place of us/step on the setup lines.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# runs of every loop in each child process of a comparison; the first run
# of a fresh process is the slowest
RUNS_PER_CHILD = 3


def form_of(plan) -> str:
    """The update form the plan's loop takes."""
    if plan.takes_identity_split:
        return "identity-split"
    if not plan.stochastic:
        return plan.cfg.variant
    return "checked" if plan.cfg.check_invariants else "general"


def planned_loop(experiment, workload: str, size: str, seed: int, out_dir: str):
    """(form, R, T, loop) for the config of workload, where loop() runs its
    T steps from zero as its experiment does, by harness.run_replications,
    the presampling of the draws included."""
    harness = experiment.harness
    cfg = experiment.make_config(workload, size, seed, out_dir)
    preset, plan = harness.plan_experiment(cfg)
    # the replications of a run that draws nothing are one run
    R = cfg.replications if plan.stochastic else 1
    record_at = harness._grid_and_window(cfg)[0]
    return form_of(plan), R, cfg.solver.t_max, lambda: harness.run_replications(
        preset, plan, R, record_at, None)


def setup_of(experiment, workload: str, size: str, seed: int):
    """The set-up of workload's experiment that perfbench times as setup_s:
    its preset's build and reference solve."""
    cfg = experiment.make_config(workload, size, seed, "")

    def setup():
        preset = experiment.build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
        experiment.compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
    return setup


def print_forms(checkout: str, size: str, rounds: int, scaled: bool = False):
    """Print one line per form: the least loop time over rounds in this
    process, with the program and the benchmark of checkout; if scaled, at
    the recorded calibration speed (see the module's docstring)."""
    # importing experiment puts the checkout's src/ first on the path
    sys.path.insert(0, str(Path(checkout).resolve() / "perfbench"))
    import experiment

    from stocadmm import solvers

    experiment.pin_to_one_cpu()
    with tempfile.TemporaryDirectory() as out_dir:
        loops = [(workload, *planned_loop(experiment, workload, size, SEED, out_dir))
                 for workload in experiment.WORKLOADS]
    setups = [setup_of(experiment, workload, size, SEED) for workload in experiment.WORKLOADS]
    # the time of each loop run in the check passes, which the loop finds by
    # its module name
    run_checks, in_checks = solvers._run_checks, [0.0]

    def timed_checks(*args):
        t0 = time.perf_counter()
        run_checks(*args)
        in_checks[0] += time.perf_counter() - t0

    solvers._run_checks = timed_checks
    calibration = experiment.calibrate() if scaled else None
    # the loops, then the set-ups
    runs = [loop[-1] for loop in loops] + setups
    best, best_checks = [math.inf] * len(runs), math.inf
    for round_ in range(rounds):
        order = range(len(runs)) if round_ % 2 == 0 else reversed(range(len(runs)))
        for i in order:
            in_checks[0] = 0.0
            t0 = time.perf_counter()
            runs[i]()
            best[i] = min(best[i], time.perf_counter() - t0)
            if i < len(loops) and loops[i][1] == "checked":
                best_checks = min(best_checks, in_checks[0])
    solvers._run_checks = run_checks
    # the check-pass line, after the checked loop's, then the setup lines
    lines = [(*loop[:4], seconds) for loop, seconds in zip(loops, best)]
    lines += [(workload, "check-pass", R, T, best_checks)
              for workload, form, R, T, _ in loops if form == "checked"]
    lines += [(workload, "setup", R, T, seconds)
              for (workload, _, R, T, _), seconds in zip(loops, best[len(loops):])]
    if scaled:
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        scale = recorded["calibration_s"] / ((calibration + experiment.calibrate()) / 2.0)
        lines = [(*line, seconds * scale) for *line, seconds in lines]
    for workload, form, R, T, seconds in lines:
        value, unit = (seconds * 1e3, "ms") if form == "setup" else (seconds / T * 1e6,
                                                                     "us/step")
        print(f"{form} {workload} R={R} T={T} {value:.2f} {unit}")


def child_forms(checkout: Path, size: str) -> list[tuple]:
    """(form, workload, R, T, unit, scaled time in unit) per line, from
    print_forms of checkout with RUNS_PER_CHILD rounds in a fresh child
    process."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import step_costs; step_costs.print_forms("
            f"{str(checkout)!r}, {size!r}, {RUNS_PER_CHILD}, scaled=True)")
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return [(*fields[:4], fields[5], float(fields[4]))
            for fields in map(str.split, out.splitlines())]


def compare(checkout: Path, size: str, rounds: int):
    """Print, per form, DIR's and this checkout's least time per step, the
    median per-round ratio and this checkout's wins (see the module's
    docstring)."""
    times = ([], [])   # per side, per round, the forms' lines
    for round_ in range(rounds):
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            times[side].append(child_forms((checkout, ROOT)[side], size))
    labels = [line[:5] for line in times[1][0]]
    if any([line[:5] for line in lines] != labels for side in times for lines in side):
        raise SystemExit(f"the two checkouts time different forms: {times[0][0]} "
                         f"against {labels}")
    for i, (form, workload, R, T, unit) in enumerate(labels):
        other, this = ([lines[i][-1] for lines in side] for side in times)
        ratios = [t / o for t, o in zip(this, other)]
        wins = sum(t < o for t, o in zip(this, other))
        print(f"{form} {workload} {R} {T} {min(other):.2f} -> {min(this):.2f} {unit} "
              f"ratio {statistics.median(ratios):.3f} wins {wins}/{rounds}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=None,
                        help="source checkout to time against this one, round by round")
    parser.add_argument("--rounds", type=int, default=7,
                        help="runs of every loop (the least time counts), or with "
                             "--checkout rounds of the two checkouts")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="the workloads' size in perfbench/experiment.py")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.checkout is None:
        print_forms(str(ROOT), args.size, args.rounds)
    else:
        compare(args.checkout.resolve(), args.size, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
