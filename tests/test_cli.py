"""Command-line front end and experiment harness file contract."""

import json
import os

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
    for field in ("bogus", "workers"):
        path.write_text(f"preset: lasso-split\n{field}: 1\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{field}: unknown field" in capsys.readouterr().err


def test_validate_rejects_schedule_without_curvature(tmp_path, capsys):
    # lasso-split has mu = 0, incompatible with the 1/(k*mu) schedule
    cfg = _write_config(tmp_path / "c.yaml",
                        solver={"schedule": "strongly-convex"})
    assert main(["validate", "--config", cfg]) == 2
    assert "mu > 0" in capsys.readouterr().err


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
            ({"slope_band": [-0.6]}, "slope_band")):
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
