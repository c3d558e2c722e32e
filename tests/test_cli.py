"""Command-line front end and experiment harness file contract."""

import json
import math
import os
import time

import numpy as np
import pytest
import yaml

from stocadmm.cli import main
from stocadmm.harness import (ConfigError, ExperimentConfig, config_from_dict,
                              default_t_grid, load_reference, run_experiment,
                              save_reference, validate_config)
from stocadmm.metrics import ReferenceSolution, compute_reference
from stocadmm.presets import build_preset
from stocadmm.solvers import SolverConfig


def _write_config(path, **overrides):
    cfg = {
        "preset": "lasso-split",
        "preset_params": {"n": 30, "d": 4},
        "preset_seed": 1,
        "replications": 1,
        "solver": {"variant": "stochastic", "schedule": "convex", "t_max": 50},
    }
    for key, val in overrides.items():
        if key == "solver":
            cfg["solver"].update(val)
        else:
            cfg[key] = val
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_smoke_run_writes_ten_rows(tmp_path):
    cfg = _write_config(tmp_path / "c.yaml",
                        solver={"variant": "deterministic", "t_max": 10})
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "traj_rep000.csv").read_text().splitlines()
    assert len(lines) == 11  # header + one row per iteration
    assert lines[0] == ("k,eta,obj_gap_eq2,feas_eq2,err_rho_eq2,"
                        "obj_gap_eq10,feas_eq10,err_rho_eq10,step_ms")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert (tmp_path / "out" / "invariants.log").read_text() == ""


def test_run_twice_gives_byte_identical_aggregate(tmp_path):
    cfg = _write_config(tmp_path / "c.yaml", replications=3)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "aggregate.csv").read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "t,mean_err_eq2,stderr_err_eq2,mean_err_eq10,stderr_err_eq10"


def test_validate_accepts_minimal_config(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("preset: lasso-split\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_validate_rejects_unknown_field(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    for field, text in (("bogus", "bogus: 1"), ("workers", "workers: 1"),
                        ("solver.probe_count", "solver: {probe_count: 5}")):
        path.write_text(f"preset: lasso-split\n{text}\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{field}: unknown field" in capsys.readouterr().err


def test_validate_rejects_schedule_without_curvature(tmp_path, capsys):
    # lasso-split has mu = 0, incompatible with the 1/(k*mu) schedule
    cfg = _write_config(tmp_path / "c.yaml",
                        solver={"schedule": "strongly-convex"})
    assert main(["validate", "--config", cfg]) == 2
    assert "mu > 0" in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ("solver: {rho: .inf}", "solver.rho: expected a finite number"),
    ("solver: {beta: .nan}", "solver.beta: expected a finite number"),
    ("solver: {schedule: bogus}", "solver.schedule: expected one of"),
    ("omegas: [-1]", "omegas[0]: must be > 0"),
    ("rate_window: [100, 10]\nslope_band: [-1, 0]", "rate_window: expected 1 <= lo < hi"),
    ("preset: hinge-svm-split\ncheck_bound: true\nomegas: [1]",
     "check_bound: preset hinge-svm-split has no certified optimum"),
    ("check_bound: true\nsolver: {schedule: constant, eta0: 0.1}",
     "check_bound: the constant schedule has no rate bound"),
    ("omegas: [1]\nsolver: {variant: linearized, G: 2.0}", "omegas: the tail bound"),
])
def test_validate_rejects_values_and_gates_a_run_cannot_use(tmp_path, capsys, text, path):
    config = tmp_path / "c.yaml"
    config.write_text(text if text.startswith("preset:")
                      else f"preset: lasso-split\n{text}\n")
    assert main(["validate", "--config", str(config)]) == 2
    assert f"config error: {path}" in capsys.readouterr().err


def test_tail_gate_needs_a_bounded_oracle(monkeypatch):
    from stocadmm.oracle import AdditiveNoiseOracle
    from stocadmm.presets import Preset
    monkeypatch.setattr(Preset, "make_oracle", lambda self, stream=0: AdditiveNoiseOracle(
        self.spec.theta1, sigma=1.0, kind="gaussian", stream=stream))
    with pytest.raises(ConfigError, match="omegas: the tail bound needs a bounded-noise"):
        config_from_dict({"preset": "lasso-split", "omegas": [1.0]})


def test_slope_gate_fails_when_the_fit_does(tmp_path):
    # the default grid of t_max = 50 has fewer than 5 points in [40, 50]
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           solver=SolverConfig(t_max=50), rate_window=(40, 50),
                           slope_band=(-1.0, 0.0), out_dir=str(tmp_path / "o"))
    report, code = run_experiment(cfg)
    assert code == 1 and report["passed"] is False
    assert report["checks"] == {"slope_in_band": False}
    assert "fewer than 5 grid points" in report["rate_fit"]["error"]


def test_validate_rejects_malformed_numeric_field(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("preset: lasso-split\nsolver:\n  beta: hello\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "solver.beta" in capsys.readouterr().err


def test_missing_preset_is_an_error(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("replications: 2\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "preset" in capsys.readouterr().err


def test_run_needs_config_or_preset(capsys):
    assert main(["run"]) == 2
    assert "either --config or --preset" in capsys.readouterr().err


def test_preset_smoke_run(tmp_path):
    code = main(["run", "--preset", "lasso-split", "--seed", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "report.json").exists()


def test_reference_subcommand_and_cache(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["reference", "--preset", "lasso-split", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert "reference cached" in capsys.readouterr().out
    ref = load_reference(str(out))
    assert ref is not None
    assert ref.method == "long-deterministic-admm"
    # a corrupted cache must fail its checksum instead of loading quietly
    with open(out / "reference.npz", "r+b") as fh:
        fh.seek(100)
        fh.write(b"\x00\x01")
    with pytest.raises(RuntimeError, match="checksum"):
        load_reference(str(out))


def test_reference_unavailable_for_hinge(tmp_path, capsys):
    code = main(["reference", "--preset", "hinge-svm-split",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no certified reference" in capsys.readouterr().err


def test_run_without_certified_optimum_writes_no_aggregate(tmp_path):
    # every error column of an aggregate needs theta*, which hinge has not
    out = tmp_path / "o"
    cfg = ExperimentConfig(preset="hinge-svm-split", preset_params={"n": 30, "d": 4},
                           replications=2, solver=SolverConfig(t_max=50),
                           out_dir=str(out))
    report, code = run_experiment(cfg)
    assert code == 0 and report["theta_star"] is None
    assert (out / "traj_rep001.csv").exists()
    assert not (out / "aggregate.csv").exists()


def test_reference_roundtrip_preserves_fields(tmp_path):
    ref = ReferenceSolution(np.array([1.0, 2.0]), np.array([3.0]), -0.5,
                            np.array([0.25]), "grid-search", 1e-4)
    save_reference(str(tmp_path), ref)
    back = load_reference(str(tmp_path))
    assert np.array_equal(back.x_star, ref.x_star)
    assert back.theta_star == ref.theta_star
    assert back.method == "grid-search"
    assert back.certified_tolerance == 1e-4


def test_check_invariants_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.yaml")
    code = main(["check-invariants", "--config", cfg, "--steps", "30",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_default_t_grid_is_unique_and_covers_endpoints():
    grid = default_t_grid(100_000)
    assert grid[0] == 1 and grid[-1] == 100_000
    assert len(np.unique(grid)) == len(grid)
    assert np.all(np.diff(grid) > 0)
    assert np.array_equal(default_t_grid(10), np.arange(1, 11))


def test_t_grid_beyond_t_max_is_rejected(tmp_path):
    cfg = _write_config(tmp_path / "c.yaml", t_grid=[10, 500],
                        out_dir=str(tmp_path / "o"))
    from stocadmm.harness import run_experiment
    with pytest.raises(ConfigError, match="exceeds solver.t_max"):
        run_experiment(validate_config(cfg))


def test_config_validation_limits():
    with pytest.raises(ConfigError, match="replications"):
        config_from_dict({"preset": "lasso-split", "replications": 0})
    with pytest.raises(ConfigError, match="t_max"):
        config_from_dict({"preset": "lasso-split", "solver": {"t_max": 5}})
    # wrong types fail at parse time with the field's path, never truncate
    for raw, path in (
            ({"replications": 1.5}, "replications"),
            ({"solver": {"t_max": 10.9}}, "solver.t_max"),
            ({"t_grid": "abc"}, "t_grid"),
            ({"t_grid": [1, 2.5]}, "t_grid\\[1\\]"),
            ({"rate_window": [1, "x"]}, "rate_window\\[1\\]"),
            ({"omegas": ["a"]}, "omegas\\[0\\]"),
            ({"slope_band": 5}, "slope_band"),
            ({"slope_band": [-0.6]}, "slope_band"),
            ({"preset": "bogus"}, "preset: unknown preset"),
            ({"preset_params": {"nn": 50}}, "preset_params.nn: unknown field"),
            ({"preset_params": {"n": "abc"}}, "preset_params.n: expected int"),
            ({"preset_params": {"d": 4.5}}, "preset_params.d: expected int"),
            # a bool is an int to isinstance, never to a config
            ({"replications": True}, "replications: expected int, got bool"),
            ({"preset_seed": True}, "preset_seed: expected int, got bool"),
            ({"solver": {"t_max": True}}, "solver.t_max: expected int, got bool"),
            ({"preset_params": {"n": True}}, "preset_params.n: expected int, got bool"),
            ({"preset_params": {"oracle": "exakt"}},
             "preset_params.oracle: expected one of .*, got 'exakt'"),
            ({"solver": {"averaging": "bogus"}},
             "solver.averaging: expected one of .*, got 'bogus'"),
            ({"preset": "strongly-convex-lasso", "preset_params": {"mu": -1.0}},
             "preset_params: .*mu > 0"),
            ({"t_grid": [10, 500]}, "t_grid\\[1\\]: .* exceeds solver.t_max"),
            ({"solver": {"schedule": "bogus"}},
             "solver.schedule: expected one of .*, got 'bogus'"),
            # every float field is finite
            ({"solver": {"rho": math.inf}}, "solver.rho: expected a finite number"),
            ({"solver": {"beta": math.nan}}, "solver.beta: expected a finite number"),
            ({"omegas": [-math.inf]}, "omegas\\[0\\]: expected a finite number"),
            ({"preset_params": {"noise": math.inf}},
             "preset_params.noise: expected a finite number"),
            # gate fields in range
            ({"omegas": [1.0, -1]}, "omegas\\[1\\]: must be > 0"),
            ({"rate_window": [100, 10]}, "rate_window: expected 1 <= lo < hi"),
            ({"rate_window": [0, 10]}, "rate_window: expected 1 <= lo < hi"),
            ({"slope_band": [-0.3, -0.6]}, "slope_band: expected lo <= hi"),
            # a requested gate the run could not evaluate
            *(({"preset": "hinge-svm-split", name: value},
               f"{name}: preset hinge-svm-split has no certified optimum")
              for name, value in (("slope_band", [-0.65, -0.35]),
                                  ("check_bound", True), ("omegas", [1.0]))),
            ({"check_bound": True, "solver": {"schedule": "constant", "eta0": 0.1}},
             "check_bound: the constant schedule has no rate bound"),
            *(({"omegas": [1.0], **raw}, "omegas: the tail bound holds for the "
               "stochastic variant with the convex schedule only")
              for raw in ({"solver": {"variant": "linearized", "G": 2.0}},
                          {"solver": {"schedule": "constant", "eta0": 0.1}},
                          {"preset": "strongly-convex-lasso",
                           "solver": {"schedule": "strongly-convex"}}))):
        with pytest.raises(ConfigError, match=path):
            config_from_dict({"preset": "lasso-split", **raw})
    # an empty list leaves an optional list field unset
    cfg = config_from_dict({"preset": "lasso-split", "t_grid": [],
                            "rate_window": [], "slope_band": []})
    assert cfg.t_grid is None and cfg.rate_window is None and cfg.slope_band is None
    # structural mismatches are reported as solver errors
    with pytest.raises(ConfigError, match="solver: .*not psd"):
        config_from_dict({"preset": "lasso-split",
                          "solver": {"variant": "linearized", "G": 1e-6}})


def test_cli_run_builds_and_validates_once(tmp_path, monkeypatch):
    from stocadmm import harness
    calls = {"build": 0, "validate": 0}
    build, validate = harness.build_preset, ExperimentConfig.validate

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counted_validate(self):
        calls["validate"] += 1
        return validate(self)

    monkeypatch.setattr(harness, "build_preset", counted_build)
    monkeypatch.setattr(ExperimentConfig, "validate", counted_validate)
    cfg = _write_config(tmp_path / "c.yaml")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"build": 1, "validate": 1}


def test_validate_leaves_missing_out_dir_absent(tmp_path):
    out = tmp_path / "not" / "yet"
    ExperimentConfig(preset="lasso-split", out_dir=str(out)).validate()
    assert not (tmp_path / "not").exists()
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ConfigError, match="out_dir"):
        ExperimentConfig(preset="lasso-split", out_dir=str(blocker / "o")).validate()


def test_shared_out_dir_recomputes_reference_for_a_new_seed(tmp_path):
    thetas = []
    for seed in (0, 1):
        cfg = ExperimentConfig(
            preset="lasso-split", preset_params={"n": 30, "d": 4},
            preset_seed=seed, solver=SolverConfig(t_max=20),
            out_dir=str(tmp_path / "shared"))
        report, _ = run_experiment(cfg)
        spec = build_preset("lasso-split", seed, n=30, d=4).spec
        expected = compute_reference(spec, "auto", beta=1.0).theta_star
        assert report["theta_star"] == pytest.approx(expected, rel=1e-12)
        thetas.append(report["theta_star"])
    assert thetas[0] != thetas[1]


@pytest.mark.parametrize("replications", [1, 2])
def test_failed_replication_is_reported_not_raised(tmp_path, monkeypatch, replications):
    """An exception in the 30th step ends the run at iteration 29.  One
    batched run() advances every replication, so each of them fails there;
    the aggregate of the completed replications is covered by
    test_non_finite_iterate_fails_its_replication."""
    from stocadmm import solvers
    real, calls = solvers.step, [0]

    def failing_step(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 30:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "step", failing_step)
    out = tmp_path / "o"
    cfg = ExperimentConfig(preset="fused-lasso-graph", preset_params={"n": 30, "d": 4},
                           replications=replications, solver=SolverConfig(t_max=50),
                           out_dir=str(out))
    report, code = run_experiment(cfg)
    assert code == 1 and report["passed"] is False
    assert report["failed_runs"] == [f"rep={r} iteration 29: injected failure"
                                     for r in range(replications)]
    assert json.loads((out / "report.json").read_text()) == report
    # no replication completed
    assert not (out / "aggregate.csv").exists()
    assert "rate_fit" not in report


# numpy may warn on NaN arithmetic; what is under test is the error it ends in
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("checked", [False, True])
def test_non_finite_iterate_fails_its_replication(tmp_path, monkeypatch, checked):
    """A NaN sampled subgradient makes replication 1's x-update of step 20
    NaN, on the batched kernel (unchecked) and in the batched run()
    (checked)."""
    from stocadmm.oracle import SampleBuffer
    real, calls = SampleBuffer.subgradient, [0]

    def nan_at_20(self, theta1, x, k):
        g = np.array(real(self, theta1, x, k))
        calls[0] += 1
        if g.ndim == 2 and calls[0] == 20:  # batched: row 1 of step 20
            g[1] = np.nan
        if g.ndim == 1 and calls[0] == 40 + 20:  # replication 1 runs after 0
            g[:] = np.nan
        return g

    monkeypatch.setattr(SampleBuffer, "subgradient", nan_at_20)
    out = tmp_path / "o"
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=2, t_grid=list(range(1, 41)),
                           solver=SolverConfig(t_max=40, check_invariants=checked),
                           out_dir=str(out))
    report, code = run_experiment(cfg)
    assert code == 1 and report["passed"] is False
    assert report["failed_runs"] == ["rep=1 iteration 20: non-finite iterate"]
    # the rows before the non-finite iterate are kept
    assert len((out / "traj_rep000.csv").read_text().splitlines()) == 1 + 40
    assert len((out / "traj_rep001.csv").read_text().splitlines()) == 1 + 19
    logged = {line.split()[2] for line in (out / "invariants.log").read_text().splitlines()
              if line.startswith("rep=1 k=20 ")}
    ran = {name for name, n in report["invariant_probes"].items() if n}
    assert ran == (set(report["invariant_worst"]) if checked else set())
    assert logged == ran
    assert all(math.isnan(report["invariant_worst"][name]) for name in ran)


def _nan_subgradient_at_step_20(monkeypatch, rows):
    """Make the sampled subgradient of step 20 NaN in the given rows of the
    batch; returns the list whose one entry counts the steps."""
    from stocadmm.oracle import SampleBuffer
    real, calls = SampleBuffer.subgradient, [0]

    def nan_at_20(self, theta1, x, k):
        g = np.array(real(self, theta1, x, k))
        calls[0] += 1
        if calls[0] == 20:
            g[rows] = np.nan
        return g

    monkeypatch.setattr(SampleBuffer, "subgradient", nan_at_20)
    return calls


def _checked_lasso_run(out, t_max=400):
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=2, out_dir=str(out),
                           solver=SolverConfig(t_max=t_max, check_invariants=True))
    t0 = time.perf_counter()
    report, code = run_experiment(cfg)
    return report, code, time.perf_counter() - t0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_replication_stops_its_checks(tmp_path, monkeypatch):
    """After its first non-finite step a replication is no longer checked:
    the run logs that step only and costs no more than a clean one."""
    _, code, clean_s = _checked_lasso_run(tmp_path / "clean")
    assert code == 0
    _nan_subgradient_at_step_20(monkeypatch, 1)
    report, code, nan_s = _checked_lasso_run(tmp_path / "nan")
    assert code == 1 and report["failed_runs"][0].startswith("rep=1 ")
    logged = (tmp_path / "nan" / "invariants.log").read_text().splitlines()
    assert logged and all(line.startswith("rep=1 k=20 ") for line in logged)
    # replication 0 runs on, checked at every step
    assert report["invariant_probes"]["dual-identity"] == 400 + 20
    assert nan_s < 2.0 * clean_s


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("checked", [False, True])
def test_run_ends_at_the_first_row_where_no_replication_is_finite(tmp_path, monkeypatch,
                                                                  checked):
    # fused-lasso-graph takes the batched run(), with or without checks
    calls = _nan_subgradient_at_step_20(monkeypatch, slice(None))
    cfg = ExperimentConfig(preset="fused-lasso-graph", preset_params={"n": 30, "d": 4},
                           replications=2, t_grid=[10, 25, 300], out_dir=str(tmp_path),
                           solver=SolverConfig(t_max=300, check_invariants=checked))
    report, code = run_experiment(cfg)
    assert code == 1 and calls[0] == 25
    assert report["failed_runs"] == [f"rep={r} iteration 25: non-finite iterate"
                                     for r in range(2)]
    assert len((tmp_path / "traj_rep000.csv").read_text().splitlines()) == 1 + 1


def test_tail_check_takes_each_replications_last_row(tmp_path, monkeypatch):
    from stocadmm import harness
    real, seen = harness.high_prob_check, []

    def spy(errs, *args):
        seen.append(list(errs))
        return real(errs, *args)

    monkeypatch.setattr(harness, "high_prob_check", spy)
    out = tmp_path / "o"
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=3, omegas=[1.0], solver=SolverConfig(t_max=50),
                           out_dir=str(out))
    report, code = run_experiment(cfg)
    assert code == 0 and len(report["high_prob"]) == 1
    last = [(out / f"traj_rep{r:03d}.csv").read_text().splitlines()[-1].split(",")
            for r in range(3)]
    assert all(row[0] == "50" for row in last)
    assert seen == [[float(row[4]) for row in last]]  # err_rho_eq2 at k = 50


def test_report_carries_worst_residual_and_probes_per_invariant(tmp_path):
    names = ("dual-identity", "y-optimality", "three-points", "step-inequality")
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=2, out_dir=str(tmp_path / "c"),
                           solver=SolverConfig(t_max=20, check_invariants=True))
    report, code = run_experiment(cfg)
    assert code == 0
    # summed over the two replications: one dual, 20 y, 5 + 5 x-probes a step
    assert report["invariant_probes"] == dict(zip(names, (40, 800, 200, 200)))
    assert all(report["invariant_worst"][name] <= 1e-9 for name in names)
    cfg.solver.check_invariants = False
    cfg.out_dir = str(tmp_path / "u")
    report, _ = run_experiment(cfg)
    assert report["invariant_probes"] == dict.fromkeys(names, 0)
    assert report["invariant_worst"] == dict.fromkeys(names)
