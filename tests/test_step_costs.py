"""tools/step_costs.py at the benchmark's tiny size: one line per update form,
then one setup line per workload."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "step_costs.py"
_FORMS = [("identity-split", "kernel-sweep"), ("general", "general-step"),
          ("checked", "checked"), ("linearized", "linearized-dense"),
          ("check-pass", "checked"), ("setup", "kernel-sweep"), ("setup", "general-step"),
          ("setup", "checked"), ("setup", "linearized-dense")]


def _tool(*args):
    # a child process, since the tool pins the process that runs it to one CPU
    out = subprocess.run([sys.executable, str(_TOOL), "--size", "tiny", *args],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return [line.split() for line in out.splitlines()]


def test_step_costs_prints_each_form_per_step():
    lines = _tool("--rounds", "1")
    assert [(form, workload) for form, workload, *_ in lines] == _FORMS
    for form, _, R, T, value, unit in lines:
        assert R.startswith("R=") and T.startswith("T=")
        assert unit == ("ms" if form == "setup" else "us/step")
        assert 0 < float(value) < 1e5


def test_step_costs_times_a_checkout_against_this_one_round_by_round():
    lines = _tool("--rounds", "2", "--checkout", str(_ROOT))
    assert [(form, workload) for form, workload, *_ in lines] == _FORMS
    for form, _, R, T, other, arrow, this, unit, ratio_, ratio, wins_, wins in lines:
        assert R.startswith("R=") and T.startswith("T=")
        assert (arrow, ratio_, wins_) == ("->", "ratio", "wins")
        assert unit == ("ms" if form == "setup" else "us/step")
        assert 0 < float(other) < 1e5 and 0 < float(this) < 1e5 and float(ratio) > 0
        won, rounds = wins.split("/")
        assert rounds == "2" and 0 <= int(won) <= 2
