"""Command-line front end and experiment harness file contract."""

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from stocadmm import harness
from stocadmm.cli import main
from stocadmm.harness import (ConfigError, ExperimentConfig, config_from_dict,
                              config_sha256, default_t_grid, parse_config,
                              plan_experiment, run_experiment, validate_config)
from stocadmm.metrics import compute_reference
from stocadmm.presets import PRESET_NAMES, build_preset
from stocadmm.schema import dump
from stocadmm.sets import Ball
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
                        "obj_gap_eq10,feas_eq10,err_rho_eq10")
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


def test_blocked_csv_writer_gives_the_row_by_row_text(tmp_path, monkeypatch):
    """Rows written in blocks, and a column's text kept from one file and
    reused in the next, give the text of one repr per value and row."""
    monkeypatch.setattr(harness, "CSV_BLOCK", 7)
    k = np.arange(1, 31)
    a = np.random.default_rng(0).standard_normal(30)
    a[3], a[11] = np.nan, -0.0
    b = a[::-1] * 1e-300

    def expected(*cols):
        return "h\n" + "".join(",".join(map(repr, row)) + "\n"
                               for row in zip(*(c.tolist() for c in cols)))

    kept = {id(a): []}
    harness._write_csv(str(tmp_path / "one.csv"), ["h"], [k, a], kept)
    assert (tmp_path / "one.csv").read_text() == expected(k, a)
    assert len(kept[id(a)]) == 5  # one string per block of 7 rows
    harness._write_csv(str(tmp_path / "two.csv"), ["h"], [b, a, k], kept)
    assert (tmp_path / "two.csv").read_text() == expected(b, a, k)
    with pytest.raises(ValueError, match="differ in length"):
        harness._write_csv(str(tmp_path / "bad.csv"), ["h"], [k, a[:-1]])


def test_repeated_trajectory_is_formatted_once(tmp_path, monkeypatch):
    """A linearized run draws nothing, so its R replications are one
    trajectory: it is formatted once and its R files are byte-identical,
    the file of a one-replication run."""
    real, calls = harness.write_trajectory_csv, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "write_trajectory_csv", counted)
    texts = {}
    for R in (1, 3):
        out = tmp_path / f"r{R}"
        calls[0] = 0
        _, code = run_experiment(ExperimentConfig(
            preset="lasso-split", preset_params={"n": 30, "d": 4}, replications=R,
            out_dir=str(out), solver=SolverConfig(variant="linearized", G=2.0, t_max=60)))
        assert code == 0 and calls[0] == 1
        texts[R] = [(out / f"traj_rep{r:03d}.csv").read_bytes() for r in range(R)]
    assert texts[3] == texts[1] * 3


@pytest.mark.parametrize("preset", ["lasso-split", "fused-lasso-graph"])
def test_rerun_gives_byte_identical_trajectory_csvs(tmp_path, preset):
    # lasso-split takes the identity-split update, fused-lasso-graph step()
    cfg = _write_config(tmp_path / "c.yaml", preset=preset, replications=2)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        outs.append([(out / f"traj_rep{r:03d}.csv").read_bytes() for r in range(2)])
    assert outs[0] == outs[1] and outs[0][0] != outs[0][1]
    # the report names the facts of the constraint the plan read
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["step_plan"] == {"A_identity": preset == "lasso-split",
                                   "b_zero": True, "B_scale": -1.0}


def test_non_stochastic_replications_are_one_run(tmp_path, monkeypatch):
    """A linearized run draws nothing, so its three replications are one
    run() call.  Every traj_rep###.csv is that run's, and aggregate.csv has
    the bytes that three separate run() calls give: a stderr of zero up to
    the rounding of the mean of three equal values."""
    from stocadmm import harness
    real, calls = harness.run, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run", spy)
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=3, out_dir=str(tmp_path / "one"),
                           solver=SolverConfig(variant="linearized", G=2.0, t_max=200))
    _, code = run_experiment(cfg)
    assert code == 0 and len(calls) == 1
    out = tmp_path / "one"
    assert len({(out / f"traj_rep{r:03d}.csv").read_bytes() for r in range(3)}) == 1
    aggregate = (out / "aggregate.csv").read_bytes()
    stats = np.loadtxt(out / "aggregate.csv", delimiter=",", skiprows=1)
    assert np.all(stats[:, [2, 4]] <= 1e-15 * stats[:, [1, 3]])

    def separate_runs(preset, plan, R, t_grid, theta_star):
        return [real(preset.spec, plan.cfg, theta_star=theta_star, record_at=t_grid)[0]
                for _ in range(R)]

    monkeypatch.setattr(harness, "run_replications", separate_runs)
    run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "three")))
    assert (tmp_path / "three" / "aggregate.csv").read_bytes() == aggregate


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
    ("t_grid: [10, 100, 200, 300, 400, 500]\nsolver: {t_max: 500}\n"
     "rate_window: [250, 500]\nslope_band: [-2, 0]",
     "rate_window: fewer than 5 grid points inside the fit window"),
    # five points in the window, of which the fit's geometric subgrid keeps two
    ("t_grid: [1, 2, 3, 4, 500]\nsolver: {t_max: 500}\n"
     "rate_window: [1, 500]\nslope_band: [-2, 0]",
     "rate_window: fewer than 5 geometrically spaced grid points"),
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


def test_slope_gate_fails_when_the_fit_does(tmp_path, monkeypatch):
    # a theta* raised by 1.0 makes the window's errors nonpositive, which
    # only the run can see
    real = harness.compute_reference
    monkeypatch.setattr(harness, "compute_reference", lambda *args, **kwargs: (
        dataclasses.replace(ref := real(*args, **kwargs), theta_star=ref.theta_star + 1.0)))
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           solver=SolverConfig(t_max=50), rate_window=(10, 50),
                           slope_band=(-1.0, 0.0), out_dir=str(tmp_path / "o"))
    report, code = run_experiment(cfg)
    assert code == 1 and report["passed"] is False
    assert report["checks"] == {"slope_in_band": False}
    assert "nonpositive error values" in report["rate_fit"]["error"]


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


def test_reference_subcommand_prints_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["reference", "--preset", "lasso-split", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("reference: objective=")
    assert "method=long-deterministic-admm" in out
    assert list(tmp_path.iterdir()) == []


def test_run_solves_its_own_reference_whatever_out_dir_holds(tmp_path):
    # a reference.npz and its sidecar from another problem, or arbitrary
    # bytes under those names, are not read: theta* is the run's own
    spec = build_preset("lasso-split", 0, n=30, d=4).spec
    expected = compute_reference(spec, "auto", beta=1.0).theta_star
    for name in ("stale", "garbage"):
        out = tmp_path / name
        out.mkdir()
        npz, digest = out / "reference.npz", "0" * 64
        if name == "stale":
            np.savez(npz, key=np.array("another problem"), x_star=np.zeros(5),
                     y_star=np.zeros(5), theta_star=expected + 1.0, lam_star=np.zeros(5),
                     method=np.array("long-deterministic-admm"),
                     certified_tolerance=1e-10)
            digest = hashlib.sha256(npz.read_bytes()).hexdigest()
        else:
            npz.write_bytes(b"\x00not an npz")
        (out / "reference.npz.sha256").write_text(digest + "\n")
        cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                               solver=SolverConfig(t_max=20), out_dir=str(out))
        report, code = run_experiment(cfg)
        assert code == 0
        assert report["theta_star"] == expected


def test_reference_unavailable_for_hinge(capsys):
    code = main(["reference", "--preset", "hinge-svm-split"])
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


def test_check_invariants_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.yaml")
    code = main(["check-invariants", "--config", cfg, "--steps", "30",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "0 violation(s)" in capsys.readouterr().out


@pytest.mark.parametrize("overrides, rows", [
    # grid points above --steps are dropped
    ({"t_grid": [10, 100, 500], "solver": {"t_max": 500}}, [10, 100]),
    # none within --steps: the default grid
    ({"t_grid": [300, 500], "solver": {"t_max": 500}}, list(default_t_grid(200))),
    # the gates rest on the full horizon and are left out
    ({"solver": {"t_max": 100_000}, "slope_band": [-0.65, -0.35],
      "rate_window": [1000, 100_000], "check_bound": True, "omegas": [1, 2]},
     list(default_t_grid(200))),
], ids=["grid-beyond-steps", "no-grid-point-within-steps", "readme-gates"])
def test_check_invariants_runs_any_valid_config(tmp_path, capsys, overrides, rows):
    cfg = _write_config(tmp_path / "c.yaml", **overrides)
    assert main(["validate", "--config", cfg]) == 0
    out = tmp_path / "o"
    assert main(["check-invariants", "--config", cfg, "--steps", "200",
                 "--out", str(out)]) == 0
    assert "over 200 steps: 0 violation(s)" in capsys.readouterr().out
    traj = np.loadtxt(out / "traj_rep000.csv", delimiter=",", skiprows=1, ndmin=2)
    assert traj[:, 0].astype(int).tolist() == rows
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == {} and "high_prob" not in report


def test_check_invariants_needs_ten_steps(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.yaml")
    assert main(["check-invariants", "--config", cfg, "--steps", "5",
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error: --steps: must be >= 10" in capsys.readouterr().err


def test_check_flag_probes_a_run_and_only_a_run(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.yaml", solver={"t_max": 20})
    assert main(["run", "--config", cfg, "--check", "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    # one dual, 20 y and 5 + 5 x-probes a step
    assert report["invariant_probes"] == {"dual-identity": 20, "y-optimality": 400,
                                          "three-points": 100, "step-inequality": 100}
    for command in ("reference", "check-invariants"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", cfg, "--check"])
        assert exit_.value.code == 2


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


# (raw config fields besides preset: lasso-split, the pattern of the error
# they give); a config built in Python from the same fields gives the same
# error (test_parsed_and_python_built_configs_fail_alike)
VALIDATION_CASES = [
    # wrong types fail with the field's path, never truncate
    ({"replications": 1.5}, "replications"),
    ({"solver": {"t_max": 10.9}}, "solver.t_max"),
    ({"t_grid": "abc"}, "t_grid"),
    ({"t_grid": [1, 2.5]}, "t_grid\\[1\\]"),
    ({"rate_window": [1, "x"]}, "rate_window\\[1\\]"),
    ({"omegas": ["a"]}, "omegas\\[0\\]"),
    ({"slope_band": 5}, "slope_band"),
    ({"slope_band": [-0.6]}, "slope_band"),
    ({"preset": "bogus"}, "preset: expected one of .*, got 'bogus'"),
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
     "preset_params.mu: must be > 0, got -1.0"),
    ({"preset_seed": -1}, "preset_seed: must be >= 0, got -1"),
    ({"preset_params": {"n": 0}}, "preset_params.n: must be >= 1, got 0"),
    ({"preset_params": {"d": 0}}, "preset_params.d: must be >= 1, got 0"),
    # every bounded preset parameter fails at its field, not in the builder
    ({"preset_params": {"cond": -5.0}}, "preset_params.cond: must be >= 1, got -5.0"),
    ({"preset_params": {"noise": -1.0}}, "preset_params.noise: must be >= 0, got -1.0"),
    ({"preset_params": {"sparsity": -1.0}},
     "preset_params.sparsity: must be > 0, got -1.0"),
    ({"preset_params": {"sparsity": 2.0}},
     "preset_params.sparsity: must be <= 1, got 2.0"),
    ({"preset_params": {"lam_reg": -0.1}},
     "preset_params.lam_reg: must be >= 0, got -0.1"),
    ({"preset": "hinge-svm-split", "preset_params": {"lam_reg": -1.0}},
     "preset_params.lam_reg: must be >= 0, got -1.0"),
    ({"preset": "hinge-svm-split", "preset_params": {"radius": 0}},
     "preset_params.radius: must be > 0, got 0.0"),
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
                   "solver": {"schedule": "strongly-convex"}})),
    ({"preset_params": {"n": "30"}}, "preset_params.n: expected int, got str"),
    ({"t_grid": [0, 5]}, "t_grid\\[0\\]: must be >= 1, got 0"),
    ({"t_grid": [2.5, 5]}, "t_grid\\[0\\]: expected int, got 2.5"),
    ({"replications": 2.5}, "replications: expected int, got 2.5"),
    # each edge of the graph joins two distinct nodes of 0..d-1
    *(({"preset": "fused-lasso-graph", "preset_params": {"d": 4, "edges": edges}},
       "preset_params: edges\\[1\\]: expected two distinct node indices in 0..3, got ")
      for edges in ([[0, 1], [0, 99]], [[0, 1], [0, 1.5]], [[0, 1], [-1, 2]],
                    [[0, 1], [0, 0]])),
]


def test_config_validation_limits():
    with pytest.raises(ConfigError, match="replications"):
        config_from_dict({"preset": "lasso-split", "replications": 0})
    with pytest.raises(ConfigError, match="t_max"):
        config_from_dict({"preset": "lasso-split", "solver": {"t_max": 5}})
    for raw, path in VALIDATION_CASES:
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


def _built_in_python(raw):
    """The ExperimentConfig of the fields of raw, built by the constructors,
    each value as given."""
    fields = dict(raw)
    if "solver" in fields:
        fields["solver"] = SolverConfig(**fields["solver"])
    return ExperimentConfig(**fields)


def test_parsed_and_python_built_configs_fail_alike():
    for raw, path in VALIDATION_CASES:
        raw = {"preset": "lasso-split", **raw}
        with pytest.raises(ConfigError, match=path) as parsed:
            config_from_dict(raw)
        with pytest.raises(ConfigError, match=path) as built:
            plan_experiment(_built_in_python(raw))
        assert str(built.value) == str(parsed.value)
        # the preset builder checks its seed and parameters by the same rules
        if path.startswith(("preset_seed:", "preset_params.")):
            with pytest.raises(ConfigError) as direct:
                build_preset(raw["preset"], raw.get("preset_seed", 0),
                             **raw.get("preset_params", {}))
            assert str(direct.value) == str(parsed.value)


def test_negative_seed_flag_fails_at_its_field(tmp_path, capsys):
    assert main(["run", "--preset", "lasso-split", "--seed", "-3",
                 "--out", str(tmp_path / "o")]) == 2
    assert "preset_seed: must be >= 0, got -3" in capsys.readouterr().err


def _every_field_set():
    return {"preset": "fused-lasso-graph",
            "preset_params": {"n": 40, "d": 5, "cond": 3.0, "noise": 0.5,
                              "lam_reg": 0.2, "sparsity": 0.4, "oracle": "exact",
                              "edges": [[0, 1], [1, 3], [2, 4]]},
            "preset_seed": 3, "replications": 4, "t_grid": [1, 7, 50],
            "omegas": [1.0, 2.5], "out_dir": "elsewhere",
            "rate_window": [2.0, 40.0], "slope_band": [-0.9, -0.1],
            "check_bound": True,
            "solver": {"variant": "linearized", "beta": 2.0, "schedule": "constant",
                       "eta0": 0.3, "t_max": 50, "rho": 0.5,
                       "averaging": "eq10-aligned", "check_invariants": True,
                       "G": 9.0}}


@pytest.mark.parametrize("raw", [*({"preset": name} for name in PRESET_NAMES),
                                 _every_field_set()])
def test_dump_parses_back_to_the_config(raw):
    cfg = parse_config(raw)
    assert parse_config(dump(cfg)) == cfg
    # a dump is plain data: its YAML and its JSON read back as the same dump
    assert yaml.safe_load(yaml.safe_dump(dump(cfg))) == dump(cfg)
    assert json.loads(json.dumps(dump(cfg))) == dump(cfg)


def test_config_hash_is_the_same_for_one_config_and_moves_with_any_field():
    base = parse_config(_every_field_set())
    assert config_sha256(base) == config_sha256(parse_config(_every_field_set()))
    # the canonical dump makes an int and the float of it one value
    assert config_sha256(dataclasses.replace(base, omegas=[1, 2.5])) == config_sha256(base)
    changed = [dataclasses.replace(base, preset_seed=4),
               dataclasses.replace(base, t_grid=[1, 7, 49]),
               dataclasses.replace(base, preset_params={**base.preset_params, "n": 41}),
               dataclasses.replace(base, solver=dataclasses.replace(base.solver, rho=0.25))]
    hashes = {config_sha256(cfg) for cfg in [base, *changed]}
    assert len(hashes) == 1 + len(changed)


def test_report_carries_the_config_hash(tmp_path):
    cfg = parse_config({"preset": "lasso-split", "preset_params": {"n": 30, "d": 4},
                        "solver": {"t_max": 20}, "out_dir": str(tmp_path)})
    first, _ = run_experiment(cfg)
    second, _ = run_experiment(cfg)
    assert first["config_sha256"] == second["config_sha256"] == config_sha256(cfg)
    cfg.preset_seed = 1
    third, _ = run_experiment(cfg)
    assert third["config_sha256"] != first["config_sha256"]


def test_readme_config_example_parses_and_round_trips():
    """The README's YAML example is a valid config whose dump keeps each of
    its values, so the example cannot drift from the schema."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("Config files are YAML:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(example)
    cfg = config_from_dict(raw)
    assert parse_config(dump(cfg)) == cfg
    dumped = dump(cfg)
    assert {key: dumped[key] for key in raw if key != "solver"} == {
        key: val for key, val in raw.items() if key != "solver"}
    assert {key: dumped["solver"][key] for key in raw["solver"]} == raw["solver"]


def _b_off_identity(spec):
    B = spec.B.copy()
    B[0, 1] = 5e-9
    return dataclasses.replace(spec, B=B)


def test_plan_refuses_a_y_update_the_prox_cannot_solve(tmp_path, monkeypatch):
    from stocadmm import harness
    real = harness.build_preset
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           out_dir=str(tmp_path))
    for change, message in (
            # an l1 theta2 over a ball Y has no closed-form prox
            (lambda spec: dataclasses.replace(spec, Y=Ball(spec.d2, 1.0)),
             "y-update over a ball Y is exact only for theta2 = 0"),
            # B within rounding of -I is not -I: the steps would ignore B[0, 1]
            (_b_off_identity, r"y-update reduces to a prox only for B = s\*I exactly")):
        def changed(*args, change=change, **kwargs):
            preset = real(*args, **kwargs)
            return dataclasses.replace(preset, spec=change(preset.spec))

        monkeypatch.setattr(harness, "build_preset", changed)
        with pytest.raises(ConfigError, match="solver: " + message):
            plan_experiment(cfg)


def test_plan_refuses_an_unknown_schedule_of_any_variant(tmp_path):
    """A config built in Python gets the schedule check of a parsed one,
    before the run writes anything."""
    for variant in ("stochastic", "linearized", "deterministic"):
        out = tmp_path / variant
        out.mkdir()
        cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                               out_dir=str(out),
                               solver=SolverConfig(variant=variant, schedule="bogus",
                                                   G=2.0))
        with pytest.raises(ConfigError, match="solver.schedule: expected one of "
                                              ".*, got 'bogus'"):
            run_experiment(cfg)
        assert list(out.iterdir()) == []


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
@pytest.mark.parametrize("preset", ["fused-lasso-graph", "lasso-split"])
def test_failed_replication_is_reported_not_raised(tmp_path, monkeypatch, preset,
                                                   replications):
    """An exception in the 30th draw ends the run at iteration 30, with
    step() (fused-lasso-graph) and with the identity-split update
    (lasso-split).  One loop advances every replication, so each of them
    fails there; the aggregate of the completed replications is covered by
    test_non_finite_iterate_fails_its_replication."""
    from stocadmm.oracle import SampleBuffer
    real, calls = SampleBuffer.subgradient, [0]

    def failing_draw(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 30:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(SampleBuffer, "subgradient", failing_draw)
    out = tmp_path / "o"
    cfg = ExperimentConfig(preset=preset, preset_params={"n": 30, "d": 4},
                           replications=replications, solver=SolverConfig(t_max=50),
                           out_dir=str(out))
    report, code = run_experiment(cfg)
    assert code == 1 and report["passed"] is False
    assert report["failed_runs"] == [f"rep={r} iteration 30: injected failure"
                                     for r in range(replications)]
    assert json.loads((out / "report.json").read_text()) == report
    # no replication completed
    assert not (out / "aggregate.csv").exists()
    assert "rate_fit" not in report


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
        if calls[0] == 20:  # row 1 of the batch's step 20
            g[1] = np.nan
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


def _subgradient_at_step_20(monkeypatch, rows, value=np.nan):
    """Set the sampled subgradient of step 20 to value at the given index
    (rows, or one entry) of the batch; returns the list whose one entry
    counts the steps."""
    from stocadmm.oracle import SampleBuffer
    real, calls = SampleBuffer.subgradient, [0]

    def set_at_20(self, theta1, x, k):
        g = np.array(real(self, theta1, x, k))
        calls[0] += 1
        if calls[0] == 20:
            g[rows] = value
        return g

    monkeypatch.setattr(SampleBuffer, "subgradient", set_at_20)
    return calls


def _checked_lasso_run(out, t_max=400):
    cfg = ExperimentConfig(preset="lasso-split", preset_params={"n": 30, "d": 4},
                           replications=2, out_dir=str(out),
                           solver=SolverConfig(t_max=t_max, check_invariants=True))
    return run_experiment(cfg)


def test_non_finite_replication_stops_its_checks(tmp_path, monkeypatch):
    """After its first non-finite step a replication is no longer checked:
    the run logs that step only and probes no step after it."""
    clean, code = _checked_lasso_run(tmp_path / "clean")
    assert code == 0
    _subgradient_at_step_20(monkeypatch, 1)
    report, code = _checked_lasso_run(tmp_path / "nan")
    assert code == 1 and report["failed_runs"][0].startswith("rep=1 ")
    logged = (tmp_path / "nan" / "invariants.log").read_text().splitlines()
    assert logged and all(line.startswith("rep=1 k=20 ") for line in logged)
    # replication 0 runs on, checked at every step, and replication 1 up to
    # step 20: the probes of the clean run's steps (2 x 400), per step
    per_step = {name: n / (2 * 400) for name, n in clean["invariant_probes"].items()}
    assert all(n > 0 for n in per_step.values())
    assert report["invariant_probes"] == {name: n * (400 + 20)
                                          for name, n in per_step.items()}


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("preset", ["lasso-split", "fused-lasso-graph"])
def test_infinite_subgradient_fails_its_replication_without_a_warning(
        tmp_path, monkeypatch, preset, checked):
    """An inf entry of replication 1's subgradient at step 20 makes its
    iterate non-finite, with the identity-split update (lasso-split,
    unchecked) and with step() (checked, or a general A).  The arithmetic
    on it (inf - inf, 0 * inf) would warn, and the suite raises a
    RuntimeWarning: the loop silences it, so the update does not raise and
    only replication 1 fails, as a non-finite iterate."""
    _subgradient_at_step_20(monkeypatch, (1, 0), np.inf)
    cfg = ExperimentConfig(preset=preset, preset_params={"n": 30, "d": 4},
                           replications=2, t_grid=list(range(1, 41)), out_dir=str(tmp_path),
                           solver=SolverConfig(t_max=40, check_invariants=checked))
    report, code = run_experiment(cfg)
    assert code == 1
    assert report["failed_runs"] == ["rep=1 iteration 20: non-finite iterate"]
    assert len((tmp_path / "traj_rep000.csv").read_text().splitlines()) == 1 + 40


@pytest.mark.parametrize("t_grid, k_end", [([10, 25, 300], 25), ([10, 300], 32)],
                         ids=["grid-10-25-300", "grid-10-300"])
@pytest.mark.parametrize("preset, checked", [("fused-lasso-graph", False),
                                             ("fused-lasso-graph", True),
                                             ("lasso-split", False)],
                         ids=["fused-lasso-graph", "fused-lasso-graph-checked",
                              "lasso-split"])
def test_run_ends_at_the_first_row_where_no_replication_is_finite(
        tmp_path, monkeypatch, preset, checked, t_grid, k_end):
    """Every replication is NaN from step 20, so the loop ends at the end of
    its chunk, step 32, with step() (fused-lasso-graph) and with the
    identity-split update (lasso-split).  The error names the first
    recorded row that is not finite, or else step 32; a checked run probes
    each replication's 20 steps up to its first non-finite one."""
    calls = _subgradient_at_step_20(monkeypatch, slice(None))
    cfg = ExperimentConfig(preset=preset, preset_params={"n": 30, "d": 4},
                           replications=2, t_grid=t_grid, out_dir=str(tmp_path),
                           solver=SolverConfig(t_max=300, check_invariants=checked))
    report, code = run_experiment(cfg)
    assert code == 1 and calls[0] == 32
    assert report["failed_runs"] == [f"rep={r} iteration {k_end}: non-finite iterate"
                                     for r in range(2)]
    assert len((tmp_path / "traj_rep000.csv").read_text().splitlines()) == 1 + 1
    assert report["invariant_probes"]["dual-identity"] == (2 * 20 if checked else 0)


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
