"""The paired comparison of tools/bench_compare.py: its comparison rule, its
failed runs, its output hashing, its child process and its argument checks."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def test_summary_counts_wins_per_pair_and_applies_the_gain_rule():
    parent = [1.0, 1.1, 1.2, 1.3]
    # pair 1 ties and counts for neither side; pair 2 is a loss
    out = bench_compare.summarize(parent, [0.9, 1.1, 1.3, 1.0], "lower", 0.05)
    assert out["pairs"] == 4 and out["change_wins"] == 2
    assert out["parent"]["median"] == pytest.approx(1.15)
    assert (out["parent"]["q1"], out["parent"]["q3"]) == pytest.approx((1.075, 1.225))
    assert out["change"]["median"] == pytest.approx(1.05)
    assert not out["gain"] and out["within_bound"]
    # every pair won, by more than the parent's interquartile range 0.15, but
    # four pairs are too few for a gain
    out = bench_compare.summarize(parent, [0.8, 0.9, 1.0, 1.1], "lower", 0.05)
    assert out["change_wins"] == 4 and not out["gain"]
    # ten pairs won by more than the parent's IQR 0.175 are a gain; so are 9 of 10
    parent10 = parent * 2 + parent[:2]
    change10 = [a - 0.3 for a in parent10]
    out = bench_compare.summarize(parent10, change10, "lower", 0.05)
    assert out["pairs"] == bench_compare.PAIRS == 10
    assert out["change_wins"] == 10 and out["gain"]
    out = bench_compare.summarize(parent10, change10[:-1] + [2.0], "lower", 0.05)
    assert out["change_wins"] == 9 and out["gain"]
    # for a higher-is-better metric, the four-pair numbers above are a loss past the bound
    out = bench_compare.summarize(parent, [0.8, 0.9, 1.0, 1.1], "higher", 0.05)
    assert out["change_wins"] == 0 and not out["gain"] and not out["within_bound"]


def _fake_checkout(root, body):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(body)
    return root


def test_failed_run_names_checkout_workload_exit_code_and_output(tmp_path):
    checkout = _fake_checkout(tmp_path / "broken", (
        "import sys\n"
        "print('manifest {}')\n"
        "print('  FAILED: final mean error eq2 nan')\n"
        "print('traceback tail', file=sys.stderr)\n"
        "sys.exit(1)\n"))
    with pytest.raises(RuntimeError) as err:
        bench_compare.bench(checkout, "checked", 7, 1.0)
    msg = str(err.value)
    assert str(checkout) in msg and "checked" in msg and "exit code 1" in msg
    assert "FAILED: final mean error eq2 nan" in msg and "traceback tail" in msg


def test_run_reporting_failed_replications_is_an_error(tmp_path):
    checkout = _fake_checkout(tmp_path / "wrong", (
        "import json\n"
        "print('manifest {}')\n"
        "print('  FAILED: gates failed')\n"
        "print(json.dumps({'correct': False, 'attempted': 2, 'failed': 1, 'metrics': {}}))\n"))
    with pytest.raises(RuntimeError, match="exit code 0") as err:
        bench_compare.bench(checkout, "general-step", 7, 1.0)
    assert "FAILED: gates failed" in str(err.value)


def _report(path: Path, report: dict):
    # the format run_experiment writes
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_digests_hash_the_outputs_and_not_the_report_path_hash(tmp_path):
    (tmp_path / "traj_rep000.csv").write_bytes(b"k,err\n1,0.5\n")
    (tmp_path / "aggregate.csv").write_bytes(b"k,mean\n1,0.5\n")
    (tmp_path / "invariants.log").write_bytes(b"")
    (tmp_path / "reference.npz").write_bytes(b"not an output")
    report = {"passed": True, "theta_star": 0.125, "config_sha256": "aa"}
    _report(tmp_path / "report.json", report)

    out = dict(bench_compare.digests(tmp_path))
    assert list(out) == ["aggregate.csv", "invariants.log", "report.json",
                         "traj_rep000.csv"]
    assert out["traj_rep000.csv"] == hashlib.sha256(b"k,err\n1,0.5\n").hexdigest()
    assert out["invariants.log"] == hashlib.sha256(b"").hexdigest()
    # the report's digest is that of its bytes without config_sha256
    without = tmp_path / "without"
    without.mkdir()
    _report(without / "report.json", {"passed": True, "theta_star": 0.125})
    assert out["report.json"] == hashlib.sha256(
        (without / "report.json").read_bytes()).hexdigest()

    # another output directory changes config_sha256 only: the same digests
    _report(tmp_path / "report.json", {**report, "config_sha256": "bb"})
    assert dict(bench_compare.digests(tmp_path)) == out
    # any other change of a report value moves its digest
    _report(tmp_path / "report.json", {**report, "theta_star": 0.25})
    assert dict(bench_compare.digests(tmp_path))["report.json"] != out["report.json"]


def test_moved_names_exactly_the_file_whose_digest_differs():
    parent = [[0, "aggregate.csv", "a0"], [0, "report.json", "r0"], [1, "aggregate.csv", "a1"]]
    change = [[0, "aggregate.csv", "a0"], [0, "report.json", "r0"], [1, "aggregate.csv", "b1"]]
    assert bench_compare.moved(parent, change) == [[1, "aggregate.csv"]]
    assert bench_compare.moved(parent, parent) == []
    # a file that one side lacks has moved too
    assert bench_compare.moved(parent, change[:2]) == [[1, "aggregate.csv"]]


def test_child_pair_of_this_checkout_gives_each_workload_its_costs_and_same_outputs():
    # fresh processes, since a child pins the process that runs it to one CPU
    parent, change = (bench_compare.child(_ROOT, "tiny") for _ in range(2))
    for out in (parent, change):
        assert list(out["step_costs"]) == ["kernel-sweep", "general-step", "checked",
                                           "linearized-dense"]
        for workload, costs in out["step_costs"].items():
            names = {"step_us", "setup_ms"} | ({"check_pass_us"} if workload == "checked"
                                               else set())
            assert set(costs) == names
            assert all(0 < value < 1e5 for value in costs.values())
        # the check passes are a part of the checked loop
        checked = out["step_costs"]["checked"]
        assert checked["check_pass_us"] < checked["step_us"]
    for workload in parent["digests"]:
        assert {seed for seed, _, _ in parent["digests"][workload]} == set(
            bench_compare.DIGEST_SEEDS)
        assert bench_compare.outputs([parent], [change], workload) == {
            "outputs_identical": True, "moved": []}


def _parent_checkout(root):
    # what main checks --parent for
    parent = _fake_checkout(root, "")
    (parent / "perfbench" / "experiment.py").write_text("")
    (parent / "src" / "stocadmm").mkdir(parents=True)
    return parent


def test_record_holds_each_workloads_metrics_step_costs_and_moved_outputs(tmp_path,
                                                                          monkeypatch):
    parent = _parent_checkout(tmp_path / "parent").resolve()
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    started = []

    def child(checkout, size="full"):
        started.append(checkout)
        change = checkout == bench_compare.ROOT
        # the change's child of pair 1 moves one file of kernel-sweep
        sha = "b" if len(started) == 3 else "a"
        return {"step_costs": {w: {"step_us": 19.0 if change else 20.0, "setup_ms": 8.0}
                               for w in workloads},
                "digests": {w: [[1, "aggregate.csv", sha if w == "kernel-sweep" else "a"],
                                [1, "report.json", "r"]] for w in workloads}}

    metrics = {"experiment_s": 0.1, "setup_s": 0.01, "peak_rss_mb": 41.0, "ok_share": 1.0}
    monkeypatch.setattr(bench_compare, "child", child)
    monkeypatch.setattr(bench_compare, "bench", lambda *args: ("manifest {}", metrics))
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", str(parent), "--out", str(out), "--seed", "7"]) == 0

    # one child per side per pair, the side that goes first alternating
    assert started == [parent, bench_compare.ROOT, bench_compare.ROOT, parent] * 5
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == sorted(workloads)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, entry in record["workloads"].items():
        assert set(entry) == {*bounds, "step_costs", "outputs_identical", "moved"}
        assert all(entry[name]["pairs"] == 10 and not entry[name]["gain"] for name in bounds)
        costs = entry["step_costs"]
        assert costs["step_us"]["bound"] == bounds["experiment_s"]
        assert costs["setup_ms"]["bound"] == bounds["setup_s"]
        assert costs["step_us"]["change_wins"] == 10 and costs["step_us"]["gain"]
        assert costs["step_us"]["change"]["median"] == 19.0
        assert entry["moved"] == ([[1, "aggregate.csv"]] if w == "kernel-sweep" else [])
        assert entry["outputs_identical"] == (w != "kernel-sweep")


@pytest.mark.parametrize("bad", ["missing parent", "parent without experiment.py",
                                 "out in a missing directory"])
def test_bad_path_fails_at_parse_time_before_any_run(bad, tmp_path, monkeypatch, capsys):
    parent = _parent_checkout(tmp_path / "parent")
    out = tmp_path / "BENCH.json"
    if bad == "missing parent":
        parent = tmp_path / "nowhere"
    elif bad == "parent without experiment.py":
        (parent / "perfbench" / "experiment.py").unlink()
    else:
        out = tmp_path / "missing" / "BENCH.json"
    started = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kw: started.append(args))
    with pytest.raises(SystemExit) as exit_:
        bench_compare.main(["--parent", str(parent), "--out", str(out)])
    assert exit_.value.code == 2 and started == []
    assert str(parent if "parent" in bad else out) in capsys.readouterr().err
    assert not out.exists()
