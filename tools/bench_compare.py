"""Paired benchmark of a change against its parent, written to BENCH_<n>.json.

    python3 tools/bench_compare.py --parent ../parent --out BENCH_<n>.json --seed 7

Runs ``perfbench/run.py --trace 0`` of the parent checkout and of this one,
each in its own directory, with the same ``--seed`` and with the run length
``run_seconds`` of this checkout's ``BENCHMARK.json``, on every workload that
file lists.  One pair is one run of each side on one workload; the side that
runs first alternates from pair to pair, and every workload gets ``PAIRS``
pairs.  For each workload and end-to-end metric the output gives each side's
runs, median and quartiles (inclusive method), the number of pairs and the
change's wins, a tie counting for neither side.  ``gain`` holds when there are
at least ``PAIRS`` pairs, the change wins at least nine tenths of them and the
medians differ by more than the parent's interquartile range;
``within_bound`` when the change's median is no worse than the parent's by
more than the metric's bound.  The ``manifest`` lines that each side's runs
print (Python, numpy, CPU, source hash) are kept, one list per side, without
repeats.

Each pair also starts, before its perfbench runs and in the same order, one
fresh child process per side (``measure``).  It imports that side's
``perfbench/experiment.py``, and so its program, pins itself to one CPU and
prints one JSON line with two parts, per workload of ``WORKLOADS``:

* step costs.  The workload's config (``make_config`` at preset seed 7, the
  seed of the committed records) is planned and its replications timed alone
  through the experiment's own dispatch (``harness.run_replications``,
  without theta*, the presampling of the draws and the recording of the
  workload's grid included): ``step_us``, in microseconds per step.  On a
  config that checks invariants, ``check_pass_us`` is the part of that loop
  spent in its check passes (``solvers._run_checks``).  ``setup_ms`` is the
  set-up perfbench times as ``setup_s``: ``build_preset`` plus
  ``compute_reference``.  Each is the least of ``RUNS_PER_CHILD`` runs, in
  alternating order.  A shared VM can run a whole process at one of very
  different speeds, so the child times ``experiment.calibrate()`` before and
  after and scales its times to the calibration speed recorded in this
  checkout's ``perfbench/expected.json``, as perfbench scales
  ``experiment_s``.  The step costs are summarized like the end-to-end
  metrics, under ``step_costs``, each with the bound of the end-to-end
  metric it is a part of.
* output digests.  The workload's experiment runs at each preset seed of
  ``DIGEST_SEEDS`` into a fresh directory; the SHA-256 of every CSV, of
  ``invariants.log`` and of ``report.json`` without its ``config_sha256``
  (which hashes the output directory) is its digest.  ``moved`` lists the
  [seed, file] entries whose digests differ between the sides in some pair,
  or that one side lacks, and ``outputs_identical`` holds when it is empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
# lines of a failed run's stdout and stderr that its error repeats
TAIL_LINES = 10
# what --parent must hold: the benchmark and the program it imports
CHECKOUT_PATHS = ("perfbench/run.py", "perfbench/experiment.py", "src/stocadmm")
COST_SEED = 7
DIGEST_SEEDS = (0, 1, 3)
# runs of every loop in each child process; the first run of a fresh process
# is the slowest
RUNS_PER_CHILD = 3
# step cost -> its unit and the end-to-end metric whose bound it takes
STEP_COSTS = {"step_us": ("us/step", "experiment_s"),
              "check_pass_us": ("us/step", "experiment_s"),
              "setup_ms": ("ms", "setup_s")}
# the report's key that depends on the output directory
PATH_KEY = "config_sha256"


def failure(what: str, proc: subprocess.CompletedProcess) -> RuntimeError:
    """The error of a failed child process: what failed, its exit code, its
    FAILED: lines and its last output lines."""
    lines = proc.stdout.strip().splitlines()
    failed = [line.strip() for line in lines if line.lstrip().startswith("FAILED:")]
    tail = [*lines[-TAIL_LINES:], *proc.stderr.strip().splitlines()[-TAIL_LINES:]]
    return RuntimeError("\n".join([f"{what} failed: exit code {proc.returncode}",
                                   *failed, "last output:", *tail]))


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """One perfbench run: its manifest line and its end-to-end metrics.
    Raises RuntimeError, naming the checkout, the workload, the exit code and
    the run's last output lines (its FAILED: lines among them), when the run
    exits non-zero or reports correct: false."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None or not result.get("correct"):
        raise failure(f"perfbench/run.py of {checkout} on {workload}", proc)
    manifest = next(line for line in lines if line.startswith("manifest "))
    return manifest, {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """The comparison of one metric over paired runs parent[i], change[i]."""
    sign = 1.0 if better == "higher" else -1.0

    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"runs": values, "median": median, "q1": q1, "q3": q3}

    p, c = side(parent), side(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change, strict=True))
    worse_by = sign * (p["median"] - c["median"])
    return {"parent": p, "change": c, "pairs": len(parent), "change_wins": wins,
            "gain": (len(parent) >= PAIRS and wins >= 0.9 * len(parent)
                     and -worse_by > p["q3"] - p["q1"]),
            "within_bound": worse_by <= bound * abs(p["median"])}


def digests(out_dir: Path) -> list[tuple[str, str]]:
    """(file name, sha256) of each output file in out_dir, by name.  The
    report is hashed without PATH_KEY, as run_experiment writes it."""
    out = []
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv" or path.name == "invariants.log":
            data = path.read_bytes()
        elif path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop(PATH_KEY, None)
            data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        else:
            continue
        out.append((path.name, hashlib.sha256(data).hexdigest()))
    return out


def moved(parent: list, change: list) -> list:
    """The [seed, file] entries of two lists of [seed, file, sha256] whose
    digests differ, or that one list lacks."""
    p, c = ({(seed, name): sha for seed, name, sha in side} for side in (parent, change))
    return sorted([*key] for key in p.keys() | c.keys() if p.get(key) != c.get(key))


def outputs(parent: list, change: list, workload: str) -> dict:
    """outputs_identical and the moved [seed, file] entries of workload, over
    the paired results parent[i], change[i] of child."""
    files = sorted({tuple(key) for p, c in zip(parent, change, strict=True)
                    for key in moved(p["digests"][workload], c["digests"][workload])})
    return {"outputs_identical": not files, "moved": [[*key] for key in files]}


def step_costs(experiment, size: str, out_dir: str) -> dict:
    """workload -> step cost -> its scaled value, in this process, with the
    program and the benchmark of experiment's checkout (see the module's
    docstring)."""
    from stocadmm import solvers

    harness = experiment.harness
    cfgs = {w: experiment.make_config(w, size, COST_SEED, out_dir)
            for w in experiment.WORKLOADS}

    def loop(cfg):
        preset, plan = harness.plan_experiment(cfg)
        t_grid = harness._grid_and_window(cfg)[0]
        return lambda: harness.run_replications(preset, plan, cfg.replications, t_grid, None)

    def setup(cfg):
        def run():
            preset = experiment.build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
            experiment.compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
        return run

    runs = {**{(w, "step_us"): loop(cfg) for w, cfg in cfgs.items()},
            **{(w, "setup_ms"): setup(cfg) for w, cfg in cfgs.items()}}
    best = dict.fromkeys(runs, math.inf)
    checked = [w for w, cfg in cfgs.items() if cfg.solver.check_invariants]
    best.update(((w, "check_pass_us"), math.inf) for w in checked)
    # the time of each loop run in the check passes, which the loop finds by
    # its module name
    run_checks, in_checks = solvers._run_checks, [0.0]

    def timed_checks(*args):
        t0 = time.perf_counter()
        run_checks(*args)
        in_checks[0] += time.perf_counter() - t0

    solvers._run_checks = timed_checks
    calibration = experiment.calibrate()
    try:
        for i in range(RUNS_PER_CHILD):
            for w, name in runs if i % 2 == 0 else reversed(runs):
                in_checks[0] = 0.0
                t0 = time.perf_counter()
                runs[w, name]()
                best[w, name] = min(best[w, name], time.perf_counter() - t0)
                if name == "step_us" and w in checked:
                    best[w, "check_pass_us"] = min(best[w, "check_pass_us"], in_checks[0])
    finally:
        solvers._run_checks = run_checks
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    scale = recorded["calibration_s"] / ((calibration + experiment.calibrate()) / 2.0)
    costs = {w: {} for w in cfgs}
    for (w, name), seconds in best.items():
        per = 1e3 if name == "setup_ms" else 1e6 / cfgs[w].solver.t_max
        costs[w][name] = seconds * scale * per
    return costs


def output_digests(experiment, size: str, out_dir: str) -> dict:
    """workload -> [seed, file, sha256] of each output file of its experiment
    at each seed of DIGEST_SEEDS, each run into a fresh directory in out_dir."""
    out = {w: [] for w in experiment.WORKLOADS}
    for w in experiment.WORKLOADS:
        for seed in DIGEST_SEEDS:
            run_dir = Path(out_dir) / f"{w}-{seed}"
            experiment.harness.run_experiment(
                experiment.make_config(w, size, seed, str(run_dir)))
            out[w] += [[seed, name, sha] for name, sha in digests(run_dir)]
    return out


def measure(checkout: str, size: str) -> None:
    """The work of one child process: pin it to one CPU and print one JSON
    line with checkout's step costs and output digests at the workloads'
    size."""
    # importing experiment puts the checkout's src/ first on the path
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    import experiment

    experiment.pin_to_one_cpu()
    with tempfile.TemporaryDirectory() as out_dir:
        print(json.dumps({"step_costs": step_costs(experiment, size, out_dir),
                          "digests": output_digests(experiment, size, out_dir)}))


def child(checkout: Path, size: str = "full") -> dict:
    """measure(checkout, size) in a fresh process, with its output parsed.
    Raises RuntimeError, naming the checkout, when the process fails."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_compare; "
            f"bench_compare.measure({str(checkout)!r}, {size!r})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode != 0:
        raise failure(f"the step-cost and digest child of {checkout}", proc)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    lacking = [name for name in CHECKOUT_PATHS if not (args.parent / name).exists()]
    if lacking:
        parser.error(f"--parent {args.parent} is not a checkout: no {', '.join(lacking)}")
    if not (args.out.parent.is_dir() and os.access(args.out.parent, os.W_OK)):
        parser.error(f"--out {args.out}: {args.out.parent} is not a writable directory")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w["name"]: {s: [] for s in SIDES} for w in spec["workloads"]}
    children = {s: [] for s in SIDES}
    manifests = {s: [] for s in SIDES}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for s in order:
            children[s].append(child(checkouts[s]))
            print(f"pair {i} step costs {s}: {json.dumps(children[s][-1]['step_costs'])}",
                  flush=True)
        for workload, sides in runs.items():
            for s in order:
                manifest, metrics = bench(checkouts[s], workload, args.seed, seconds)
                if manifest not in manifests[s]:
                    manifests[s].append(manifest)
                sides[s].append(metrics)
                print(f"pair {i} {workload} {s}: {json.dumps(metrics)}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def compared(parent, change, unit, better, bound):
        return {"unit": unit, "better": better, "bound": bound,
                **summarize(parent, change, better, bound)}

    def record(workload, sides):
        costs = {s: [c["step_costs"][workload] for c in children[s]] for s in SIDES}
        return {
            **{m["name"]: compared([r[m["name"]] for r in sides["parent"]],
                                   [r[m["name"]] for r in sides["change"]],
                                   m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]},
            "step_costs": {name: compared([r[name] for r in costs["parent"]],
                                          [r[name] for r in costs["change"]],
                                          STEP_COSTS[name][0], "lower",
                                          bounds[STEP_COSTS[name][1]])
                           for name in costs["change"][0]},
            **outputs(children["parent"], children["change"], workload)}

    out = {
        "command": ["python3", "perfbench/run.py", "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", "0"],
        "manifest": manifests,
        "workloads": {workload: record(workload, sides) for workload, sides in runs.items()},
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
