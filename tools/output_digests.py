"""SHA-256 digests of the output files of the benchmark workloads' experiments.

    python3 tools/output_digests.py [--checkout DIR] [--seeds 0 1 2]

Runs the config of each workload of ``perfbench/experiment.py`` (its
``WORKLOADS`` and ``make_config``, size ``full``) at each preset seed, with the
program and the benchmark of the checkout DIR (default: this one), each into a
fresh directory.  Prints one line ``workload seed file sha256`` per output
file: every CSV, ``invariants.log``, and ``report.json`` without its
``config_sha256``, which hashes the output directory.  Two checkouts whose
outputs are byte-identical print the same lines, so

    diff <(python3 tools/output_digests.py --checkout ../parent) \\
         <(python3 tools/output_digests.py)

prints nothing for a change that keeps every output byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the report's key that depends on the output directory
PATH_KEY = "config_sha256"


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout whose program and benchmark run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="preset seeds")
    args = parser.parse_args(argv)
    # importing experiment puts the checkout's src/ first on the path
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import experiment

    for workload in experiment.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as out_dir:
                cfg = experiment.make_config(workload, "full", seed, out_dir)
                experiment.harness.run_experiment(cfg)
                for name, sha in digests(Path(out_dir)):
                    print(workload, seed, name, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
