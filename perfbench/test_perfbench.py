"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import experiment  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_end_to_end_metrics_present_with_units():
    _assert_metrics(_bench("kernel-sweep", 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_present_and_match_workload_design(workload):
    result = _bench(workload, 1)
    _assert_metrics(result, SPEC["per_layer"])
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert (m["kernels.rep_steps"] > 0) == (workload == "kernel-sweep")
    assert (m["prox.y_update_calls"] > 0) == (workload != "kernel-sweep")
    assert (m["solvers.check_us"] > 0) == (workload == "checked")
    assert m["metrics.reference_iters"] > 0 and 0 < m["trace.coverage"] <= 1


def test_wrong_theta_star_counts_as_failed_run(monkeypatch, tmp_path):
    real = experiment.harness.compute_reference

    def wrong(*args, **kwargs):
        ref = real(*args, **kwargs)
        return dataclasses.replace(ref, theta_star=ref.theta_star + 1e-3)

    monkeypatch.setattr(experiment.harness, "compute_reference", wrong)
    result = experiment.run_job({"workload": "kernel-sweep", "size": "tiny", "seed": 0,
                                 "trace": False, "scratch": str(tmp_path)})
    assert any(err.startswith("theta_star") for err in result["errors"])
    assert run.tally([result]) == (result["replications"], result["replications"])


def test_missing_boundary_is_reported_not_raised():
    from tracing import Tracer
    tracer = Tracer(boundaries=(("x.y", "stocadmm.harness:no_such_function", None),))
    with tracer:
        pass
    assert tracer.missing == ["stocadmm.harness:no_such_function"]
