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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
# lines of a failed run's stdout and stderr that its error repeats
TAIL_LINES = 10


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
        failed = [line.strip() for line in lines if line.lstrip().startswith("FAILED:")]
        tail = [*lines[-TAIL_LINES:], *proc.stderr.strip().splitlines()[-TAIL_LINES:]]
        raise RuntimeError("\n".join([
            f"perfbench/run.py of {checkout} on {workload} failed: exit code "
            f"{proc.returncode}", *failed, "last output:", *tail]))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {w["name"]: {s: [] for s in SIDES} for w in spec["workloads"]}
    manifests = {s: [] for s in SIDES}
    for i in range(PAIRS):
        for workload, sides in runs.items():
            for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                manifest, metrics = bench(checkouts[s], workload, args.seed, seconds)
                if manifest not in manifests[s]:
                    manifests[s].append(manifest)
                sides[s].append(metrics)
                print(f"pair {i} {workload} {s}: {json.dumps(metrics)}", flush=True)
    out = {
        "command": ["python3", "perfbench/run.py", "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", "0"],
        "manifest": manifests,
        "workloads": {
            workload: {m["name"]: {"unit": m["unit"], "better": m["better"],
                                   "bound": m["bound"],
                                   **summarize([r[m["name"]] for r in sides["parent"]],
                                               [r[m["name"]] for r in sides["change"]],
                                               m["better"], m["bound"])}
                       for m in spec["end_to_end"]}
            for workload, sides in runs.items()},
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
