"""tools/step_costs.py at the benchmark's tiny size: one line per update form."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_costs.py"


def test_step_costs_prints_each_form_per_step():
    # a child process, since the tool pins the process that runs it to one CPU
    out = subprocess.run([sys.executable, str(_TOOL), "--size", "tiny", "--rounds", "1"],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [(form, workload) for form, workload, *_ in lines] == [
        ("identity-split", "kernel-sweep"), ("general", "general-step"),
        ("checked", "checked"), ("linearized", "linearized-dense")]
    for *_, R, T, us, unit in lines:
        assert R.startswith("R=") and T.startswith("T=") and unit == "us/step"
        assert 0 < float(us) < 1e5
