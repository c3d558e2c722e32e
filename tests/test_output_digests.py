"""The output hashing of tools/output_digests.py, on a hand-made directory."""

import hashlib
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


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

    out = dict(output_digests.digests(tmp_path))
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
    assert dict(output_digests.digests(tmp_path)) == out
    # any other change of a report value moves its digest
    _report(tmp_path / "report.json", {**report, "theta_star": 0.25})
    assert dict(output_digests.digests(tmp_path))["report.json"] != out["report.json"]
