"""One benchmark experiment, run in a fresh process.

    python3 perfbench/experiment.py '<job json>'
    python3 perfbench/experiment.py --record    # rewrite expected.json

The job names a workload, a size, a preset seed, whether to trace, and the
recorded final errors to compare against (or null).  The process times the
set-up a user pays before the first iteration (``build_preset`` plus
``compute_reference``, which also gives an independent theta*), then one call
of the public ``run_experiment`` into a fresh output directory, with a
calibration loop timed before and after.  It checks the outputs and prints
one JSON line with the timings, peak memory, the check failures and, when
traced, the per-layer metrics.

Workloads (R replications of T steps; every one enables the bound gate):

* kernel-sweep: lasso-split, stochastic, convex schedule, many replications,
  sparse grid.  Takes the fused-kernel path, never ``solvers.run`` or prox.
  kernels.*, oracle.presample_* and solvers.schedule_s move experiment_s and
  peak_rss_mb here.
* general-step: fused-lasso-graph (A is a graph difference, so no kernel),
  stochastic, few replications, sparse grid.  Every step goes through
  ``solvers.run``; prox.*, oracle.sample_* and solvers.step_self_us move
  experiment_s here.
* checked: lasso-split with invariant checks, forced onto the step-by-step
  path; solvers.check_us and solvers.probes move experiment_s here only.
* linearized-dense: lasso-split, linearized variant with scalar G, one
  replication recording every iteration.  The only non-stochastic workload;
  problem.err_rho_*, harness.export_* and the per-step psd recheck inside
  solvers.step_self_us move experiment_s here.

On all workloads presets.build_s, metrics.reference_s and
metrics.reference_iters move setup_s, and metrics.aggregate_s stays a small
part of experiment_s.  The slope-band gate is off: at these sizes the fitted
slopes (about -0.8 on kernel-sweep) lie outside [-0.65, -0.35].
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stocadmm import SolverConfig, build_preset, compute_reference  # noqa: E402
from stocadmm import harness  # noqa: E402

from tracing import Tracer  # noqa: E402

# workload -> preset, solver fields, tail-check omegas, (R, T) per size
WORKLOADS = {
    "kernel-sweep": dict(
        preset="lasso-split",
        solver=dict(variant="stochastic", schedule="convex"),
        omegas=[1.0, 2.0], sizes={"full": (16, 2500), "tiny": (2, 200)}),
    "general-step": dict(
        preset="fused-lasso-graph",
        solver=dict(variant="stochastic", schedule="convex"),
        omegas=[1.0, 2.0], sizes={"full": (3, 3000), "tiny": (2, 200)}),
    "checked": dict(
        preset="lasso-split",
        solver=dict(variant="stochastic", schedule="convex", check_invariants=True),
        omegas=[], sizes={"full": (2, 400), "tiny": (2, 50)}),
    "linearized-dense": dict(
        preset="lasso-split",
        solver=dict(variant="linearized", G=2.0),
        omegas=[], every_step=True, sizes={"full": (1, 4000), "tiny": (1, 200)}),
}

THETA_RTOL = 1e-12


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU.

    The program still starts its default thread pool.  On a shared
    2-vCPU Xeon VM, with the pool's threads spread over both cores, the
    calibrated spread between runs was 13-16%; on one core it was about 2%.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return len(os.sched_getaffinity(0))


def calibrate(steps: int = 10_000) -> float:
    """Seconds taken by a fixed loop of small numpy vector operations, the
    kind of work the solvers do.  On a shared 2-vCPU Xeon VM the speed
    drifted by a factor of up to 1.7 within minutes as other tenants loaded
    the host; timed in the same process around each experiment, this loop
    measures that drift so that timings can be scaled to a fixed speed.  It uses no code of the program,
    so a change to the program does not move it."""
    rng = np.random.default_rng(0)
    data, targets = rng.standard_normal((200, 20)), rng.standard_normal(200)
    x, y, lam = np.zeros(20), np.zeros(20), np.zeros(20)
    t0 = time.perf_counter()
    for k in range(steps):
        i = k % 200
        g = data[i] * (np.dot(data[i], x) - targets[i])
        inv_eta = math.sqrt(k + 1.0)
        z = (y + lam + x * inv_eta - g) / (1.0 + inv_eta)
        nz = math.sqrt(np.dot(z, z))
        x = z * (5.0 / nz) if nz > 5.0 else z
        zy = x - lam
        y = np.sign(zy) * np.maximum(np.abs(zy) - 0.1, 0.0)
        lam = lam - (x - y)
    return time.perf_counter() - t0


def replications(workload: str, size: str) -> int:
    return WORKLOADS[workload]["sizes"][size][0]


def make_config(workload: str, size: str, seed: int, out_dir: str):
    w = WORKLOADS[workload]
    reps, t_max = w["sizes"][size]
    return harness.ExperimentConfig(
        preset=w["preset"], preset_seed=seed,
        solver=SolverConfig(t_max=t_max, **w["solver"]),
        replications=reps,
        t_grid=list(range(1, t_max + 1)) if w.get("every_step") else None,
        omegas=list(w["omegas"]), check_bound=True, out_dir=out_dir)


def final_errors(out_dir: str) -> dict:
    """Final mean error under both averaging conventions, from aggregate.csv."""
    with open(os.path.join(out_dir, "aggregate.csv")) as fh:
        last = list(csv.DictReader(fh))[-1]
    return {"eq2": float(last["mean_err_eq2"]), "eq10": float(last["mean_err_eq10"])}


def check_outputs(out_dir: str, code: int, theta_star: float, expected: dict | None,
                  rtol: float) -> tuple[list, dict | None]:
    """Returns (failed checks, final errors) for one finished experiment."""
    errors = []
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    got = report.get("theta_star")
    if got is None or not math.isclose(got, theta_star, rel_tol=THETA_RTOL, abs_tol=0.0):
        errors.append(f"theta_star {got!r} != independent {theta_star!r}")
    if report["invariant_violations"]:
        errors.append(f"{report['invariant_violations']} invariant violations")
    if report["failed_runs"]:
        errors.append(f"failed runs: {report['failed_runs']}")
    failed_gates = [k for k, ok in report["checks"].items() if not ok]
    failed_gates += [f"tail omega={h['omega']}" for h in report.get("high_prob", [])
                     if not h["passed"]]
    if failed_gates or code != 0 or not report["passed"]:
        errors.append(f"gates failed: {failed_gates or 'report not passed'}")
    try:
        final = final_errors(out_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return errors + [f"aggregate.csv unreadable: {exc}"], None
    for tag, value in final.items():
        if not math.isfinite(value):
            errors.append(f"final mean error {tag} is {value}")
        elif expected is not None and not math.isclose(value, expected[tag], rel_tol=rtol):
            errors.append(f"final mean error {tag} {value!r} != recorded {expected[tag]!r}")
    return errors, final


def run_job(job: dict) -> dict:
    """Set-up timing, one experiment, output checks; see the module docstring."""
    workload, size, seed = job["workload"], job["size"], int(job["seed"])
    result = {"replications": replications(workload, size), "errors": []}
    calibration = calibrate()
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=job["scratch"])
    try:
        cfg = make_config(workload, size, seed, out_dir)
        t0 = time.perf_counter()
        preset = build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
        ref = compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
        result["setup_s"] = time.perf_counter() - t0
        tracer = Tracer() if job["trace"] else None
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                _, code = harness.run_experiment(cfg)
                result["experiment_s"] = time.perf_counter() - t0
            result["calibration_s"] = (calibration + calibrate()) / 2.0
        except Exception as exc:  # a failed experiment is counted, not fatal
            result["errors"].append(f"run_experiment raised {type(exc).__name__}: {exc}")
            return result
        errors, final = check_outputs(out_dir, code, ref.theta_star,
                                      job.get("expected"), job.get("rtol", 0.0))
        result["errors"] += errors
        result["final_err"] = final
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["missing"] = tracer.missing
            result["spans"] = tracer.span_table()
            result["layer_self_s"] = tracer.layer_self_s()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def record_expected(path: Path, seeds=(0, 1), rtol=1e-6):
    """Rewrite the recorded final errors from the current program, for a
    change that alters the numerics on purpose.  Seed 0 is the workload seed;
    seed 1 confirms claims on a seed they were not tuned on."""
    pin_to_one_cpu()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    final = {}
    for size in ("full", "tiny"):
        for workload in WORKLOADS:
            for seed in seeds:
                r = run_job({"workload": workload, "size": size, "seed": seed,
                             "trace": False, "scratch": str(scratch)})
                if r["errors"]:
                    raise SystemExit(f"{workload}/{size}/seed {seed}: {r['errors']}")
                final.setdefault(size, {}).setdefault(workload, {})[str(seed)] = r["final_err"]
    calibration_s = statistics.median(calibrate() for _ in range(15))
    path.write_text(json.dumps({"rtol": rtol, "calibration_s": calibration_s,
                                "final_err": final}, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record_expected(Path(__file__).with_name("expected.json"))
    else:
        print(json.dumps(run_job(json.loads(sys.argv[1]))))
