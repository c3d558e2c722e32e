"""Experiment orchestration: configs, replication running, file export.

A run produces, inside the output directory:

* ``traj_rep###.csv``      one row per recorded iteration and replication,
  with the fixed column order k, eta, obj_gap_eq2, feas_eq2, err_rho_eq2,
  obj_gap_eq10, feas_eq10, err_rho_eq10, step_ms;
* ``aggregate.csv``        mean / stderr of the error measure per grid point,
  over the completed replications; written only with a certified optimum,
  which every error column needs;
* ``report.json``          rate fits, bound checks, tail checks, pass/fail;
* ``invariants.log``       one line per violated runtime invariant (empty on
  success);
* ``reference.npz`` + ``reference.sha256``  cached certified optimum, keyed
  by the preset, its parameters and seed, the reference method, beta and the
  package version; a cache with another key is recomputed.

Gates: slope_band, check_bound (under metrics.rate_bound; the constant
schedule has none) and omegas (the tail check: stochastic convex schedule,
bounded-noise oracle), each on a certified optimum.  plan_experiment refuses a
gate the run could not evaluate, so every requested gate runs.  Exit status 0
iff every gate passed and no replication failed or violated an invariant.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from . import __version__, kernels
from .metrics import (ReferenceSolution, compute_reference, estimate_expectation,
                      fit_rate, high_prob_check, rate_bound, require_tail_bound)
from .oracle import SampleBuffer
from .presets import (ORACLE_MODES, PRESET_NAMES, PRESET_PARAMS, Preset,
                      build_preset)
from .problem import IterateState
from .solvers import AVERAGINGS, INVARIANTS, SCHEDULES, SolverConfig, Trajectory, run

__all__ = ["ExperimentConfig", "validate_config", "plan_experiment", "run_experiment",
           "run_replications", "default_t_grid", "reference_key"]


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
        for i, t in enumerate(self.t_grid or ()):
            if t > self.solver.t_max:
                raise ConfigError(f"t_grid[{i}]: grid point {t} exceeds "
                                  f"solver.t_max = {self.solver.t_max}")
        for i, omega in enumerate(self.omegas):
            if not omega > 0:
                raise ConfigError(f"omegas[{i}]: must be > 0, got {omega}")
        if self.rate_window and not 1 <= self.rate_window[0] < self.rate_window[1]:
            raise ConfigError(f"rate_window: expected 1 <= lo < hi, got {self.rate_window}")
        if self.slope_band and not self.slope_band[0] <= self.slope_band[1]:
            raise ConfigError(f"slope_band: expected lo <= hi, got {self.slope_band}")
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
    "rho": float, "averaging": str, "check_invariants": bool, "G": float,
}

_TOP_FIELDS = {
    "preset": str, "preset_params": dict, "preset_seed": int,
    "replications": int, "t_grid": list, "omegas": list, "out_dir": str,
    "rate_window": list, "slope_band": list,
    "check_bound": bool, "solver": dict,
}


def _coerce(path, value, typ):
    if typ in (float, int) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not np.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if typ is int and not float(value).is_integer():
            raise ConfigError(f"{path}: expected int, got {value!r}")
        return typ(value)
    # bool subclasses int; only a bool field takes one
    if not isinstance(value, typ) or isinstance(value, bool) != (typ is bool):
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


def _preset_params(preset: str, raw) -> dict:
    """raw with each value checked against the type of its default."""
    defaults = PRESET_PARAMS[preset]
    for key, val in _coerce("preset_params", raw, dict).items():
        if key not in defaults:
            raise ConfigError(f"preset_params.{key}: unknown field of {preset}")
        if key == "oracle" and val not in ORACLE_MODES:
            raise ConfigError(f"preset_params.oracle: expected one of {ORACLE_MODES}, "
                              f"got {val!r}")
    return {key: _coerce(f"preset_params.{key}", val, type(defaults[key]))
            for key, val in raw.items()}


def parse_config(raw: dict) -> ExperimentConfig:
    """Type-check a raw config mapping and fill defaults.  The checks that
    need values from several fields or the built preset are left to
    plan_experiment."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "preset" not in raw:
        raise ConfigError("preset: required field is missing")
    for key in raw:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"{key}: unknown field")
    preset = _coerce("preset", raw["preset"], str)
    if preset not in PRESET_PARAMS:
        raise ConfigError(f"preset: unknown preset {preset!r}; choose from "
                          f"{PRESET_NAMES}")
    solver_raw = raw.get("solver", {}) or {}
    for key in solver_raw:
        if key not in _SOLVER_FIELDS:
            raise ConfigError(f"solver.{key}: unknown field")
    solver_kwargs = {
        key: _coerce(f"solver.{key}", val, _SOLVER_FIELDS[key])
        for key, val in solver_raw.items() if val is not None
    }
    for key, choices in (("averaging", AVERAGINGS), ("schedule", SCHEDULES)):
        if solver_kwargs.get(key, choices[0]) not in choices:
            raise ConfigError(f"solver.{key}: expected one of {choices}, "
                              f"got {solver_kwargs[key]!r}")
    solver = SolverConfig(**solver_kwargs)
    t_grid = _optional_list(raw, "t_grid", int)
    if t_grid and min(t_grid) < 1:
        raise ConfigError("t_grid: grid points must be >= 1")
    rate_window = _optional_list(raw, "rate_window", float, 2)
    slope_band = _optional_list(raw, "slope_band", float, 2)
    return ExperimentConfig(
        preset=preset,
        preset_params=_preset_params(preset, raw.get("preset_params", {}) or {}),
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


def plan_experiment(cfg: ExperimentConfig) -> Preset:
    """Validate cfg, build its preset and check the solver against it; a run
    does this once, before its reference solve."""
    cfg.validate()
    try:
        preset = build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
    except ValueError as exc:
        raise ConfigError(f"preset_params: {exc}") from exc
    try:
        cfg.solver.validate(preset.spec)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    # every requested gate must be one the run can evaluate
    for name in [name for name in ("slope_band", "check_bound", "omegas")
                 if getattr(cfg, name)]:
        if not preset.supports_reference:
            raise ConfigError(f"{name}: preset {cfg.preset} has no certified optimum")
        try:
            if name == "check_bound":
                rate_bound(1, cfg.solver, preset.spec, 0.0)
            if name == "omegas":
                require_tail_bound(cfg.solver, preset.make_oracle(0).bounded)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return preset


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse raw and run every check, the preset-dependent ones included."""
    cfg = parse_config(raw)
    plan_experiment(cfg)
    return cfg


def read_config(path: str):
    """The raw mapping of a YAML experiment config."""
    with open(path) as fh:
        try:
            return yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML: {exc}") from exc


def validate_config(path: str) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config, filling defaults."""
    return config_from_dict(read_config(path))


# ---------------------------------------------------------------------------
# replication running


def _kernel_eligible(preset: Preset, cfg: SolverConfig) -> bool:
    return (cfg.variant == "stochastic" and not cfg.check_invariants
            and kernels.identity_split(preset.spec))


def _stack_draws(preset: Preset, R: int, t: int) -> SampleBuffer:
    """The presampled draws of t steps on streams 0..R-1, stacked to (R, t)
    indices and (R, t, d) noise; either is None when the oracle draws none."""
    buffers = [preset.make_oracle(r).presample(t) for r in range(R)]
    return SampleBuffer(*(None if getattr(buffers[0], name) is None
                          else np.stack([getattr(b, name) for b in buffers])
                          for name in ("indices", "noise")))


def run_replications(preset: Preset, solver: SolverConfig, R: int,
                     t_grid: np.ndarray, theta_star: float | None) -> list[Trajectory]:
    """Replications on streams 0..R-1, each from zero on its own presampled
    draws.  A stochastic run advances all of them together: one batched
    kernel call when the kernel applies, otherwise one batched run() call.
    The other variants draw nothing and run once per replication."""
    spec = preset.spec
    if solver.variant != "stochastic":
        return [run(spec, solver, theta_star=theta_star, record_at=t_grid)
                for _ in range(R)]
    draws = _stack_draws(preset, R, solver.t_max)
    state = IterateState.zeros(spec, R)
    if _kernel_eligible(preset, solver):
        return kernels.admm_identity_split(spec, solver, draws.indices, draws.noise,
                                           state, theta_star, t_grid)
    return run(spec, solver, theta_star=theta_star, record_at=t_grid,
               state=state, draws=draws)


# ---------------------------------------------------------------------------
# file export


def _write_csv(path: str, header, columns):
    # tolist() gives Python ints and floats, whose repr round-trips
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(np.asarray(col).tolist() for col in columns), strict=True):
            fh.write(",".join(map(repr, row)) + "\n")


def write_trajectory_csv(path: str, traj: Trajectory):
    _write_csv(path, Trajectory.COLUMNS,
               [getattr(traj, col) for col in Trajectory.COLUMNS])


def write_aggregate_csv(path: str, t_grid, stats: dict):
    cols = ["mean_err_eq2", "stderr_err_eq2", "mean_err_eq10", "stderr_err_eq10"]
    _write_csv(path, ["t", *cols], [t_grid, *(stats[c] for c in cols)])


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


def run_experiment(cfg: ExperimentConfig):
    """Execute the configured experiment; returns (report dict, exit code)."""
    preset = plan_experiment(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)

    reference = None
    if preset.supports_reference:
        key = reference_key(cfg)
        reference = load_reference(cfg.out_dir, key)
        if reference is None:
            reference = compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
            save_reference(cfg.out_dir, reference, key)
    theta_star = reference.theta_star if reference else None

    t_grid = (np.asarray(sorted(set(int(t) for t in cfg.t_grid)))
              if cfg.t_grid else default_t_grid(cfg.solver.t_max))

    trajectories = run_replications(preset, cfg.solver, cfg.replications,
                                    t_grid, theta_star)

    for r, traj in enumerate(trajectories):
        write_trajectory_csv(os.path.join(cfg.out_dir, f"traj_rep{r:03d}.csv"), traj)

    failed_runs = [f"rep={r} {t.error}" for r, t in enumerate(trajectories) if t.error]
    # a replication that ended with an error lacks rows of t_grid
    completed = [t for t in trajectories if not t.error]
    invariant_lines = [f"rep={r} k={k} {name} residual={res:.6e}"
                       for r, traj in enumerate(trajectories)
                       for k, name, res in traj.invariant_log]
    with open(os.path.join(cfg.out_dir, "invariants.log"), "w") as fh:
        fh.write("\n".join(invariant_lines) + ("\n" if invariant_lines else ""))
    # np.max, unlike max, keeps a NaN residual
    worst = {name: [t.invariant_worst[name] for t in trajectories
                    if name in t.invariant_worst] for name in INVARIANTS}
    averaging = cfg.solver.default_averaging()

    report = {
        "preset": cfg.preset,
        "replications": cfg.replications,
        "t_max": cfg.solver.t_max,
        "variant": cfg.solver.variant,
        "schedule": cfg.solver.schedule,
        "averaging": averaging,
        "kernel_path": _kernel_eligible(preset, cfg.solver),
        "theta_star": theta_star,
        "invariant_violations": len(invariant_lines),
        "invariant_probes": {name: sum(t.invariant_probes.get(name, 0)
                                       for t in trajectories)
                             for name in INVARIANTS},
        "invariant_worst": {name: float(np.max(w)) if w else None
                            for name, w in worst.items()},
        "failed_runs": failed_runs,
        "checks": {},
    }

    # the error columns need theta*, so without it there is no aggregate
    mean = stderr = None
    if completed and theta_star is not None:
        stats = {}
        for tag, convention in (("eq2", "eq2-shifted"), ("eq10", "eq10-aligned")):
            if len(completed) >= 2:
                curve, spread = estimate_expectation(completed, t_grid, convention)
            else:  # one replication: its own curve, no spread
                curve = completed[0].err_curve(convention)
                spread = np.zeros_like(curve)
            stats[f"mean_err_{tag}"], stats[f"stderr_err_{tag}"] = curve, spread
            if convention == averaging:
                mean, stderr = curve, spread
        write_aggregate_csv(os.path.join(cfg.out_dir, "aggregate.csv"), t_grid, stats)

    if mean is not None:
        d_yb = reference.d_y_star_b(preset.spec)
        window = cfg.rate_window or (max(1, cfg.solver.t_max // 100), cfg.solver.t_max)
        try:
            fit = fit_rate(t_grid, mean, window)
            report["rate_fit"] = {**asdict(fit), "window": list(fit.window)}
        except ValueError as exc:
            fit = None
            report["rate_fit"] = {"error": str(exc)}
        if cfg.slope_band:
            lo, hi = cfg.slope_band
            report["checks"]["slope_in_band"] = fit is not None and lo <= fit.slope <= hi
        if cfg.check_bound:
            bound = rate_bound(t_grid, cfg.solver, preset.spec, d_yb)
            report["checks"]["bound_holds"] = bool(np.all(mean <= bound + 3.0 * stderr))
            report["bound_curve"] = bound.tolist()
        if cfg.omegas:
            # the last row of a completed replication is t_grid[-1]
            errs = [t.err_curve(averaging)[-1] for t in completed]
            report["high_prob"] = [
                asdict(high_prob_check(errs, int(t_grid[-1]), float(omega),
                                       preset.spec.constants.M, preset.spec.diameter_x,
                                       d_yb, cfg.solver.beta, cfg.solver.rho))
                for omega in cfg.omegas]

    ok = (not failed_runs and not invariant_lines and all(report["checks"].values())
          and all(tail["passed"] for tail in report.get("high_prob", ())))
    report["passed"] = ok
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, (0 if ok else 1)
