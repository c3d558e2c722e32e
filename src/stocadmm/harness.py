"""Experiment orchestration: configs, replication running, file export.

A run produces, inside the output directory:

* ``traj_rep###.csv``      one row per recorded iteration and replication,
  with the fixed column order k, eta, obj_gap_eq2, feas_eq2, err_rho_eq2,
  obj_gap_eq10, feas_eq10, err_rho_eq10, step_ms;
* ``aggregate.csv``        mean / stderr of the error measure per grid point;
* ``report.json``          rate fits, bound checks, tail checks, pass/fail;
* ``invariants.log``       one line per violated runtime invariant (empty on
  success);
* ``reference.npz`` + ``reference.sha256``  cached certified optimum, keyed
  by the preset, its parameters and seed, the reference method, beta and the
  package version; a cache with another key is recomputed.

Exit status contract: 0 iff every enabled check passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__, kernels
from .metrics import (ReferenceSolution, compute_reference, convex_rate_bound,
                      deterministic_rate_bound, estimate_expectation, fit_rate,
                      high_prob_check, smooth_rate_bound,
                      strongly_convex_rate_bound)
from .presets import Preset, build_preset
from .problem import IterateState
from .solvers import SolverConfig, Trajectory, empty_rows, record_row, run

__all__ = ["ExperimentConfig", "validate_config", "run_experiment",
           "run_replication", "default_t_grid", "reference_key"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    preset: str
    preset_params: dict = field(default_factory=dict)
    preset_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    replications: int = 1
    t_grid: list | None = None
    omegas: list = field(default_factory=list)
    out_dir: str = "out"
    rate_window: tuple | None = None
    slope_band: tuple | None = None
    check_bound: bool = False

    def validate(self):
        if self.replications < 1:
            raise ConfigError("replications: must be >= 1")
        if self.solver.t_max < 10:
            raise ConfigError("solver.t_max: must be >= 10")
        # the directory is created by the run; here only the nearest
        # existing ancestor must be a writable directory
        base = os.path.abspath(self.out_dir)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        if not (os.path.isdir(base) and os.access(base, os.W_OK)):
            raise ConfigError(f"out_dir: {self.out_dir!r} is not writable")


def default_t_grid(t_max: int, n_points: int = 20) -> np.ndarray:
    grid = np.unique(np.geomspace(1, t_max, num=n_points).round().astype(int))
    return grid


_SOLVER_FIELDS = {
    "variant": str, "beta": float, "schedule": str, "eta0": float, "t_max": int,
    "rho": float, "averaging": str, "check_invariants": bool,
    "probe_count": int, "check_tol": float, "G": float, "probe_seed": int,
}

_TOP_FIELDS = {
    "preset": str, "preset_params": dict, "preset_seed": int,
    "replications": int, "t_grid": list, "omegas": list, "out_dir": str,
    "rate_window": list, "slope_band": list,
    "check_bound": bool, "solver": dict,
}


def _coerce(path, value, typ):
    if typ in (float, int) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if typ is int and not float(value).is_integer():
            raise ConfigError(f"{path}: expected int, got {value!r}")
        return typ(value)
    if not isinstance(value, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {type(value).__name__}")
    return value


def _coerce_list(path, value, typ, length=None):
    value = _coerce(path, value, list)
    if length is not None and len(value) != length:
        raise ConfigError(f"{path}: expected {length} values, got {len(value)}")
    return [_coerce(f"{path}[{i}]", v, typ) for i, v in enumerate(value)]


def _optional_list(raw, key, typ, length=None):
    value = raw.get(key)
    if value is None or value == []:  # an empty list means unset
        return None
    return _coerce_list(key, value, typ, length)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "preset" not in raw:
        raise ConfigError("preset: required field is missing")
    for key in raw:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"{key}: unknown field")
    solver_raw = raw.get("solver", {}) or {}
    for key in solver_raw:
        if key not in _SOLVER_FIELDS:
            raise ConfigError(f"solver.{key}: unknown field")
    solver_kwargs = {
        key: _coerce(f"solver.{key}", val, _SOLVER_FIELDS[key])
        for key, val in solver_raw.items() if val is not None
    }
    solver = SolverConfig(**solver_kwargs)
    t_grid = _optional_list(raw, "t_grid", int)
    if t_grid and min(t_grid) < 1:
        raise ConfigError("t_grid: grid points must be >= 1")
    rate_window = _optional_list(raw, "rate_window", float, 2)
    slope_band = _optional_list(raw, "slope_band", float, 2)
    cfg = ExperimentConfig(
        preset=_coerce("preset", raw["preset"], str),
        preset_params=_coerce("preset_params", raw.get("preset_params", {}) or {}, dict),
        preset_seed=_coerce("preset_seed", raw.get("preset_seed", 0), int),
        solver=solver,
        replications=_coerce("replications", raw.get("replications", 1), int),
        t_grid=t_grid,
        omegas=_coerce_list("omegas", raw.get("omegas") or [], float),
        out_dir=_coerce("out_dir", raw.get("out_dir", "out"), str),
        rate_window=None if rate_window is None else tuple(rate_window),
        slope_band=None if slope_band is None else tuple(slope_band),
        check_bound=_coerce("check_bound", raw.get("check_bound", False), bool),
    )
    cfg.validate()
    # schedule/constant consistency is checked against the actual preset
    preset = build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
    try:
        cfg.solver.validate(preset.spec)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    return cfg


def validate_config(path: str) -> ExperimentConfig:
    """Parse and schema-validate a YAML experiment config, filling defaults."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML: {exc}") from exc
    return config_from_dict(raw or {})


# ---------------------------------------------------------------------------
# replication running


def _kernel_eligible(preset: Preset, cfg: SolverConfig) -> bool:
    return (preset.kernel is not None and cfg.variant == "stochastic"
            and not cfg.check_invariants)


def _kernel_replications(preset: Preset, solver: SolverConfig, streams,
                         t_grid: np.ndarray,
                         theta_star: float | None) -> list[Trajectory]:
    """All streams in one batched kernel call.  The step_ms column is the
    kernel's wall time divided by the replication-steps it advanced."""
    spec = preset.spec
    args = preset.kernel.arguments(spec, solver,
                                   [preset.make_oracle(s) for s in streams], t_grid)
    t0 = time.perf_counter()
    out = kernels.admm_identity_split(**args)
    ms_per_step = ((time.perf_counter() - t0) * 1e3
                   / max(len(out.x) * solver.t_max, 1))

    grid, etas = args["grid"], args["etas"]
    trajectories = []
    for r in range(len(out.x)):
        rows = empty_rows()
        for p, tk in enumerate(grid):
            record_row(rows, spec, solver.rho, theta_star, int(tk), etas[tk - 1],
                       ms_per_step, out.xbar_shifted[r, p], out.xbar_aligned[r, p],
                       out.ybar[r, p])
        final = IterateState.from_sums(
            solver.t_max, out.x[r], out.y[r], out.lam[r], out.sum_x_shifted[r],
            out.sum_x_aligned[r], out.sum_y[r], out.sum_lam[r])
        trajectories.append(Trajectory.from_rows(rows, final_state=final))
    return trajectories


def run_replications(preset: Preset, solver: SolverConfig, R: int,
                     t_grid: np.ndarray, theta_star: float | None) -> list[Trajectory]:
    """Replications on streams 0..R-1: one batched kernel call when the kernel
    applies, otherwise one step-by-step run per stream."""
    if _kernel_eligible(preset, solver):
        return _kernel_replications(preset, solver, range(R), t_grid, theta_star)
    return [run_replication(preset, solver, r, t_grid, theta_star) for r in range(R)]


def run_replication(preset: Preset, solver: SolverConfig, stream: int,
                    t_grid: np.ndarray,
                    theta_star: float | None) -> Trajectory:
    """One solver run; takes the kernel path whenever it applies."""
    if _kernel_eligible(preset, solver):
        return _kernel_replications(preset, solver, [stream], t_grid, theta_star)[0]
    return run(preset.spec, solver, oracle=preset.make_oracle(stream),
               theta_star=theta_star, record_at=t_grid)


# ---------------------------------------------------------------------------
# file export


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_trajectory_csv(path: str, traj: Trajectory):
    with open(path, "w") as fh:
        fh.write(",".join(Trajectory.COLUMNS) + "\n")
        for i in range(len(traj)):
            fh.write(",".join(_fmt(getattr(traj, col)[i])
                              for col in Trajectory.COLUMNS) + "\n")


def write_aggregate_csv(path: str, t_grid, stats: dict):
    cols = ["t", "mean_err_eq2", "stderr_err_eq2", "mean_err_eq10", "stderr_err_eq10"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(t_grid):
            row = [str(int(t))] + [_fmt(stats[c][i]) for c in cols[1:]]
            fh.write(",".join(row) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def reference_key(cfg: ExperimentConfig) -> str:
    """Hash of everything the certified optimum of cfg depends on; the cache
    only ever holds the "auto" reference."""
    blob = json.dumps({"preset": cfg.preset, "params": cfg.preset_params,
                       "seed": cfg.preset_seed, "method": "auto",
                       "beta": cfg.solver.beta, "version": __version__},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_reference(out_dir: str, ref: ReferenceSolution, key: str = ""):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "reference.npz")
    np.savez(path, key=np.array(key), x_star=ref.x_star, y_star=ref.y_star,
             theta_star=ref.theta_star,
             lam_star=(ref.lam_star if ref.lam_star is not None else np.array([])),
             method=np.array(ref.method),
             certified_tolerance=ref.certified_tolerance)
    with open(path + ".sha256", "w") as fh:
        fh.write(_sha256(path) + "\n")
    return path


def load_reference(out_dir: str, key: str | None = None) -> ReferenceSolution | None:
    """The cached reference, or None when there is none or, with a key given,
    when it was saved under another key."""
    path = os.path.join(out_dir, "reference.npz")
    digest_path = path + ".sha256"
    if not (os.path.exists(path) and os.path.exists(digest_path)):
        return None
    with open(digest_path) as fh:
        expected = fh.read().strip()
    if _sha256(path) != expected:
        raise RuntimeError(f"reference cache {path} failed its checksum")
    data = np.load(path, allow_pickle=False)
    if key is not None and ("key" not in data.files or str(data["key"]) != key):
        return None
    lam = data["lam_star"]
    return ReferenceSolution(
        x_star=data["x_star"], y_star=data["y_star"],
        theta_star=float(data["theta_star"]),
        lam_star=(lam if lam.size else None),
        method=str(data["method"]),
        certified_tolerance=float(data["certified_tolerance"]),
    )


# ---------------------------------------------------------------------------
# full experiment


def _bound_fn(cfg: ExperimentConfig, preset: Preset, d_yb: float):
    c = preset.spec.constants
    d_x = preset.spec.diameter_x
    sv = cfg.solver
    if sv.variant != "stochastic":
        return lambda t: deterministic_rate_bound(t, d_yb, sv.beta, sv.rho)
    if sv.schedule == "convex":
        return lambda t: convex_rate_bound(t, c.M, d_x, d_yb, sv.beta, sv.rho)
    if sv.schedule == "strongly-convex":
        return lambda t: strongly_convex_rate_bound(t, c.M, c.mu, d_x, d_yb,
                                                    sv.beta, sv.rho)
    if sv.schedule == "smooth":
        return lambda t: smooth_rate_bound(t, c.sigma, c.L, d_x, d_yb,
                                           sv.beta, sv.rho)
    return None


def run_experiment(cfg: ExperimentConfig, reference: ReferenceSolution | None = None):
    """Execute the configured experiment; returns (report dict, exit code)."""
    cfg.validate()
    preset = build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
    cfg.solver.validate(preset.spec)
    os.makedirs(cfg.out_dir, exist_ok=True)

    if reference is None and preset.supports_reference:
        key = reference_key(cfg)
        reference = load_reference(cfg.out_dir, key)
        if reference is None:
            reference = compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
            save_reference(cfg.out_dir, reference, key)
    theta_star = reference.theta_star if reference else None

    t_grid = (np.asarray(sorted(set(int(t) for t in cfg.t_grid)))
              if cfg.t_grid else default_t_grid(cfg.solver.t_max))
    if t_grid[-1] > cfg.solver.t_max:
        raise ConfigError("t_grid: grid point exceeds solver.t_max")

    trajectories = run_replications(preset, cfg.solver, cfg.replications,
                                    t_grid, theta_star)

    for r, traj in enumerate(trajectories):
        write_trajectory_csv(os.path.join(cfg.out_dir, f"traj_rep{r:03d}.csv"), traj)

    failed_runs = [t.error for t in trajectories if t.error]
    invariant_lines = []
    for r, traj in enumerate(trajectories):
        for (k, name, res) in traj.invariant_log:
            invariant_lines.append(f"rep={r} k={k} {name} residual={res:.6e}")
    with open(os.path.join(cfg.out_dir, "invariants.log"), "w") as fh:
        fh.write("\n".join(invariant_lines) + ("\n" if invariant_lines else ""))

    report = {
        "preset": cfg.preset,
        "replications": cfg.replications,
        "t_max": cfg.solver.t_max,
        "variant": cfg.solver.variant,
        "schedule": cfg.solver.schedule,
        "averaging": cfg.solver.default_averaging(),
        "kernel_path": _kernel_eligible(preset, cfg.solver),
        "theta_star": theta_star,
        "invariant_violations": len(invariant_lines),
        "failed_runs": failed_runs,
        "checks": {},
    }

    if len(trajectories) >= 2:
        stats = {}
        for tag in ("eq2", "eq10"):
            mean, stderr = estimate_expectation(
                trajectories, t_grid,
                "eq2-shifted" if tag == "eq2" else "eq10-aligned")
            stats[f"mean_err_{tag}"] = mean
            stats[f"stderr_err_{tag}"] = stderr
        write_aggregate_csv(os.path.join(cfg.out_dir, "aggregate.csv"), t_grid, stats)
        avg = cfg.solver.default_averaging()
        tag = "eq2" if avg == "eq2-shifted" else "eq10"
        mean = stats[f"mean_err_{tag}"]
        stderr = stats[f"stderr_err_{tag}"]
    elif len(trajectories) == 1 and theta_star is not None:
        avg = cfg.solver.default_averaging()
        mean = trajectories[0].err_curve(avg)
        stderr = np.zeros_like(mean)
        stats = {
            "mean_err_eq2": trajectories[0].err_rho_eq2,
            "stderr_err_eq2": np.zeros_like(mean),
            "mean_err_eq10": trajectories[0].err_rho_eq10,
            "stderr_err_eq10": np.zeros_like(mean),
        }
        write_aggregate_csv(os.path.join(cfg.out_dir, "aggregate.csv"), t_grid, stats)
    else:
        mean = stderr = None

    ok = not failed_runs and not invariant_lines

    if mean is not None and theta_star is not None:
        window = cfg.rate_window or (max(1, cfg.solver.t_max // 100), cfg.solver.t_max)
        try:
            fit = fit_rate(t_grid, mean, window)
            report["rate_fit"] = {
                "slope": fit.slope, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "window": list(fit.window),
                "n_points": fit.n_points,
            }
            if cfg.slope_band:
                lo, hi = cfg.slope_band
                passed = lo <= fit.slope <= hi
                report["checks"]["slope_in_band"] = passed
                ok = ok and passed
        except ValueError as exc:
            report["rate_fit"] = {"error": str(exc)}

        if cfg.check_bound and reference is not None:
            d_yb = reference.d_y_star_b(preset.spec)
            fn = _bound_fn(cfg, preset, d_yb)
            if fn is not None:
                bound = fn(t_grid)
                holds = bool(np.all(mean <= bound + 3.0 * stderr))
                report["checks"]["bound_holds"] = holds
                report["bound_curve"] = [float(v) for v in bound]
                ok = ok and holds

        if cfg.omegas and reference is not None:
            oracle = preset.make_oracle(0)
            d_yb = reference.d_y_star_b(preset.spec)
            t_last = int(t_grid[-1])
            errs = []
            for traj in trajectories:
                pos = int(np.searchsorted(traj.k, t_last))
                errs.append(traj.err_curve(cfg.solver.default_averaging())[pos])
            tail = []
            for omega in cfg.omegas:
                res = high_prob_check(errs, t_last, float(omega),
                                      preset.spec.constants.M,
                                      preset.spec.diameter_x, d_yb,
                                      cfg.solver.beta, cfg.solver.rho,
                                      bounded_oracle=getattr(oracle, "bounded", False))
                tail.append({"omega": res.omega, "threshold": res.threshold,
                             "exceed_fraction": res.exceed_fraction,
                             "bound": res.bound, "slack": res.slack,
                             "passed": res.passed})
                ok = ok and res.passed
            report["high_prob"] = tail

    report["passed"] = ok
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, (0 if ok else 1)
