"""Benchmark of full stocadmm experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload kernel-sweep --seed 3 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each experiment runs in a fresh child process
(``perfbench/experiment.py``) with a fresh output directory.  A run first
checks the workload against the final errors recorded in
``perfbench/expected.json`` for the workload seed (0) or, on odd ``--seed``,
the second seed (1), untimed.  Then it runs experiments until ``--seconds``
have passed, the i-th on the problem instance with preset seed
1000*seed + i, and reports medians.  The cost of an experiment depends on its
instance by several percent, so a median over many instances is steadier
than one instance repeated.

``--trace 0`` reports the end-to-end metrics: experiment_s (one
``run_experiment`` call), setup_s (``build_preset`` plus
``compute_reference``), peak_rss_mb (of the child) and ok_share (replications
that passed every check over replications attempted; the complement of the
failed share, which reads 0 and so cannot carry a relative bound).  The two
times are wall times scaled to a fixed machine speed: each is multiplied by
the calibration time recorded in ``expected.json`` over the calibration time
measured around the same experiment (``experiment.calibrate``).  Unscaled
medians are printed too.
``--trace 1`` alternates untraced and traced experiments and reports the
per-layer metrics of ``tracing.py``, with trace.overhead_s the traced minus
the untraced median experiment_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (counted in replications) and metrics.  Lines before it
give the environment manifest, sample counts and failures; results from
different manifests are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPERIMENT = HERE / "experiment.py"
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("kernel-sweep", "general-step", "checked", "linearized-dense")
E2E_UNITS = {"experiment_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
MIN_EXPERIMENTS = 3
INSTANCES_PER_SEED = 1000
CHILD_TIMEOUT_S = 120


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories when the checkout is not a repository)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(ROOT / ".git" / ref)
    if found:
        return found
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def manifest() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "STOCADMM_NO_NUMBA": os.environ.get("STOCADMM_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "cpu": cpu_model(),
    }


def run_child(job: dict, replications: int) -> dict:
    """One experiment in a fresh process; a crash counts as a failed run."""
    try:
        proc = subprocess.run([sys.executable, str(EXPERIMENT), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"replications": replications,
                "errors": [f"experiment exceeded {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-3:]
    return {"replications": replications,
            "errors": [f"experiment exited {proc.returncode}: {' | '.join(tail)}"]}


def tally(results: list) -> tuple[int, int]:
    """(attempted, failed) replications: every replication of an experiment
    with a failed check counts as failed."""
    attempted = sum(r["replications"] for r in results)
    return attempted, sum(r["replications"] for r in results if r["errors"])


def high_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, or the max."""
    n = len(values)
    if n < 20:
        return f"max {max(values)!r} (n={n} supports no percentile above the median)"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stocadmm" / "__init__.py").is_file():
        print(f"error: no stocadmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from experiment import pin_to_one_cpu, replications
    env = manifest()
    env["cpus_used"] = pin_to_one_cpu()  # children inherit the pinning
    print("manifest " + json.dumps(env, sort_keys=True))
    recorded = json.loads(EXPECTED.read_text())
    expected = recorded["final_err"][args.size][args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=SCRATCH)
    reps = replications(args.workload, args.size)

    def job(seed, trace):  # preset seed and tracing of one experiment
        return {"workload": args.workload, "size": args.size, "seed": seed,
                "trace": trace, "scratch": scratch, "rtol": recorded["rtol"],
                "expected": expected.get(str(seed))}

    try:
        recorded_seeds = sorted(expected, key=int)
        check_seed = int(recorded_seeds[args.seed % len(recorded_seeds)])
        checks = [run_child(job(check_seed, False), reps)]
        plain, traced = [], []
        start = time.monotonic()
        while len(plain) < MIN_EXPERIMENTS or time.monotonic() - start < args.seconds:
            seed = args.seed * INSTANCES_PER_SEED + len(plain)
            plain.append(run_child(job(seed, False), reps))
            if args.trace:
                traced.append(run_child(job(seed, True), reps))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = checks + plain + traced
    attempted, failed = tally(results)
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(results)} experiments (one on recorded seed {check_seed}), "
          f"failed share {failed}/{attempted} replications")
    for r in results:
        for err in r["errors"]:
            print(f"  FAILED: {err}")

    ok_plain = [r for r in plain if "experiment_s" in r and "peak_rss_mb" in r]
    ok_traced = [r for r in traced if "layers" in r]
    if not ok_plain or (args.trace and not ok_traced):
        print("error: no experiment completed", file=sys.stderr)
        return 1

    def scaled(r, key):
        # wall time at the recorded calibration speed; see experiment.calibrate
        return r[key] * recorded["calibration_s"] / r["calibration_s"]

    if args.trace:
        names = list(ok_traced[0]["layers"])
        values = {n: statistics.median(r["layers"][n] for r in ok_traced) for n in names}
        values["trace.overhead_s"] = (
            statistics.median(scaled(r, "experiment_s") for r in ok_traced)
            - statistics.median(scaled(r, "experiment_s") for r in ok_plain))
        from tracing import LAYER_UNITS as units
        missing = sorted({m for r in ok_traced for m in r["missing"]})
        print(f"traced experiments: {len(ok_traced)}; missing boundaries: "
              f"{', '.join(missing) or 'none'}")
        busy = {layer: statistics.median(r["layer_self_s"].get(layer, 0.0) for r in ok_traced)
                for layer in sorted({k for r in ok_traced for k in r["layer_self_s"]})}
        print("self time per experiment, summed over threads: " + ", ".join(
            f"{layer} {v:.4f} s ({v / sum(busy.values()):.1%})" for layer, v in busy.items()))
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([r["spans"] for r in ok_traced], indent=1))
        print(f"span tables: {spans_path}")
    else:
        samples = {n: [scaled(r, n) for r in ok_plain] for n in ("experiment_s", "setup_s")}
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in ok_plain]
        values = {n: statistics.median(v) for n, v in samples.items()}
        values["ok_share"] = 1.0 - failed / attempted
        units = E2E_UNITS
        for n, v in samples.items():
            print(f"{n}: median {values[n]!r} {units[n]}, {high_percentile(v)}, n={len(v)}")
        for n in ("experiment_s", "setup_s", "calibration_s"):
            print(f"unscaled {n}: median {statistics.median(r[n] for r in ok_plain)!r} s")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
