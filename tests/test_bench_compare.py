"""The paired comparison of tools/bench_compare.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
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
