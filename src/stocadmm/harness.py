"""Experiment orchestration: configs, replication running, file export.

ExperimentConfig and its SolverConfig declare each field's rule once
(schema.setting), so parse_config and validate check a parsed config and one
built in Python alike; plan_experiment adds the checks across fields and those
that need the built preset.  A run produces, inside the output directory:

* ``traj_rep###.csv``      one row per recorded iteration and replication,
  with the fixed column order k, eta, obj_gap_eq2, feas_eq2, err_rho_eq2,
  obj_gap_eq10, feas_eq10, err_rho_eq10; a rerun writes the same bytes;
* ``aggregate.csv``        mean / stderr of the error measure per grid point,
  over the completed replications; written only with a certified optimum,
  which every error column needs;
* ``report.json``          rate fits, bound and tail checks, pass/fail, the
  constraint's facts (``step_plan``) and the config's hash (``config_sha256``);
* ``invariants.log``       one line per violated runtime invariant (empty on
  success).

The certified optimum theta* is solved in every run from the run's own preset
(metrics.compute_reference); no file holds it between runs.

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
import shutil
from dataclasses import asdict, dataclass

import numpy as np
import yaml

from . import kernels
from .metrics import (compute_reference, estimate_expectation, fit_points,
                      fit_rate, high_prob_check, rate_bound, require_tail_bound)
from .oracle import presample_streams
from .presets import PARAM_RULES, PRESET_NAMES, SEED_RULE, Preset, build_preset
from .problem import IterateState
from .schema import ConfigError, check, dump, parse, setting
from .solvers import INVARIANTS, SolverConfig, StepPlan, Trajectory, run

__all__ = ["ExperimentConfig", "validate_config", "plan_experiment", "run_experiment",
           "run_replications", "default_t_grid", "config_sha256"]

# iteration counts recorded without a t_grid: at most this many, from 1 to
# t_max in geometric steps
T_GRID_POINTS = 20


@dataclass
class ExperimentConfig:
    preset: str = setting(str, choices=PRESET_NAMES)
    preset_params: dict = setting(dict, factory=dict,
                                  keys=lambda values: PARAM_RULES[values["preset"]])
    preset_seed: int = setting(int, 0, **SEED_RULE)
    solver: SolverConfig = setting(SolverConfig, factory=SolverConfig)
    replications: int = setting(int, 1, ge=1)
    t_grid: list | None = setting(list, None, item=dict(type=int, ge=1))
    omegas: list = setting(list, factory=list, item=dict(type=float, gt=0))
    out_dir: str = setting(str, "out")
    rate_window: tuple | None = setting(tuple, None, item=dict(type=float), size=2,
                                        holds=("1 <= lo < hi", lambda lo, hi: 1 <= lo < hi))
    slope_band: tuple | None = setting(tuple, None, item=dict(type=float), size=2,
                                       holds=("lo <= hi", lambda lo, hi: lo <= hi))
    check_bound: bool = setting(bool, False)

    def validate(self):
        check(self)
        if self.solver.t_max < 10:
            raise ConfigError("solver.t_max: must be >= 10")
        for i, t in enumerate(self.t_grid or ()):
            if t > self.solver.t_max:
                raise ConfigError(f"t_grid[{i}]: grid point {t} exceeds "
                                  f"solver.t_max = {self.solver.t_max}")
        # the directory is created by the run; here only the nearest
        # existing ancestor must be a writable directory
        base = os.path.abspath(self.out_dir)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        if not (os.path.isdir(base) and os.access(base, os.W_OK)):
            raise ConfigError(f"out_dir: {self.out_dir!r} is not writable")


def default_t_grid(t_max: int) -> np.ndarray:
    return np.unique(np.geomspace(1, t_max, num=T_GRID_POINTS).round().astype(int))


def _grid_and_window(cfg: ExperimentConfig) -> tuple[np.ndarray, tuple]:
    """The iteration counts a run of cfg records, sorted and unique, and the
    window of its rate fit (by default t_max/100..t_max)."""
    t_max = cfg.solver.t_max
    t_grid = (np.asarray(sorted(set(int(t) for t in cfg.t_grid)))
              if cfg.t_grid else default_t_grid(t_max))
    return t_grid, cfg.rate_window or (max(1, t_max // 100), t_max)


def parse_config(raw: dict) -> ExperimentConfig:
    """The config of raw, without the checks of plan_experiment."""
    return parse(ExperimentConfig, raw)


def config_sha256(cfg: ExperimentConfig) -> str:
    """sha256 of the compact, key-sorted JSON of the config's dump."""
    blob = json.dumps(dump(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def plan_experiment(cfg: ExperimentConfig) -> tuple[Preset, StepPlan]:
    """Validate cfg, build its preset and check the solver against it; a run
    does this once, before its reference solve.  Returns the preset and the
    solver's plan of its steps."""
    cfg.validate()
    try:
        preset = build_preset(cfg.preset, cfg.preset_seed, **cfg.preset_params)
    except ValueError as exc:
        raise ConfigError(f"preset_params: {exc}") from exc
    try:
        plan = cfg.solver.validate(preset.spec)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc
    # every requested gate must be one the run can evaluate; the slope's fit
    # needs enough grid points in its window
    for name in [name for name in ("slope_band", "check_bound", "omegas")
                 if getattr(cfg, name)]:
        if not preset.supports_reference:
            raise ConfigError(f"{name}: preset {cfg.preset} has no certified optimum")
        try:
            if name == "slope_band":
                fit_points(*_grid_and_window(cfg))
            if name == "check_bound":
                rate_bound(1, cfg.solver, preset.spec, 0.0)
            if name == "omegas":
                require_tail_bound(cfg.solver, preset.make_oracle(0).bounded)
        except ValueError as exc:
            field = "rate_window" if name == "slope_band" else name
            raise ConfigError(f"{field}: {exc}") from exc
    return preset, plan


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


def run_replications(preset: Preset, plan: StepPlan, R: int,
                     t_grid: np.ndarray, theta_star: float | None) -> list[Trajectory]:
    """Replications on streams 0..R-1 of the planned run (plan, from
    plan.cfg.validate(preset.spec)), from one solver loop.  A stochastic run
    advances all of them together on their presampled draws
    (presample_streams) from one zero state (IterateState.zeros), both 1-D
    for R = 1 and batched for R > 1, with the plan's update, through the
    identity-split entry (kernels.admm_identity_split) when the plan takes
    it and through run() otherwise.  The other variants draw nothing, so
    all R are one run of one replication, whose trajectory is returned R
    times."""
    spec, cfg = plan.spec, plan.cfg
    if not plan.stochastic:
        return run(spec, cfg, theta_star=theta_star, record_at=t_grid) * R
    draws = presample_streams([preset.make_oracle(r) for r in range(R)], cfg.t_max)
    if plan.takes_identity_split:
        return kernels.admm_identity_split(plan, draws.indices, draws.noise,
                                           IterateState.zeros(spec, R), theta_star,
                                           t_grid)
    return run(spec, cfg, draws, theta_star, t_grid, R)


# ---------------------------------------------------------------------------
# file export


# rows the CSV writer formats and writes at once
CSV_BLOCK = 512


def _write_csv(path: str, header, columns, kept: dict | None = None):
    """Write the header and the rows of the equal-length columns, CSV_BLOCK
    rows at a time, each column of a block formatted at once.  kept maps
    id(col) to the text of col's blocks, one joined string per block: a
    column listed there reuses its text if it has it and stores it if not,
    so that a column that two files share is formatted once."""
    columns = [(np.asarray(col), None if kept is None else kept.get(id(col)))
               for col in columns]
    n = len(columns[0][0])
    if any(len(col) != n for col, _ in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block, i in enumerate(range(0, n, CSV_BLOCK)):
            texts = []
            for col, text in columns:
                if text is not None and block < len(text):
                    texts.append(text[block].split("\n"))
                    continue
                # tolist() gives Python ints and floats, whose repr round-trips
                texts.append(list(map(repr, col[i:i + CSV_BLOCK].tolist())))
                if text is not None:
                    text.append("\n".join(texts[-1]))
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_trajectory_csv(path: str, traj: Trajectory, kept: dict | None = None):
    _write_csv(path, Trajectory.COLUMNS,
               [getattr(traj, col) for col in Trajectory.COLUMNS], kept)


def write_aggregate_csv(path: str, t_grid, stats: dict, kept: dict | None = None):
    cols = ["mean_err_eq2", "stderr_err_eq2", "mean_err_eq10", "stderr_err_eq10"]
    _write_csv(path, ["t", *cols], [t_grid, *(stats[c] for c in cols)], kept)


# ---------------------------------------------------------------------------
# full experiment


def run_experiment(cfg: ExperimentConfig):
    """Execute the configured experiment; returns (report dict, exit code)."""
    preset, plan = plan_experiment(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)

    reference = (compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
                 if preset.supports_reference else None)
    theta_star = reference.theta_star if reference else None

    t_grid, window = _grid_and_window(cfg)
    trajectories = run_replications(preset, plan, cfg.replications, t_grid, theta_star)

    failed_runs = [f"rep={r} {t.error}" for r, t in enumerate(trajectories) if t.error]
    # a replication that ended with an error lacks rows of t_grid
    completed = [t for t in trajectories if not t.error]
    averaging = cfg.solver.default_averaging()
    # the error columns need theta*, so without it there is no aggregate
    stats = mean = stderr = None
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

    # the text of the aggregate's columns that are also a trajectory's, such
    # as the error curves of one replication, is formatted once
    in_trajs = {id(getattr(t, name)) for t in trajectories for name in Trajectory.COLUMNS}
    kept = {id(col): [] for col in (stats or {}).values() if id(col) in in_trajs}
    # a trajectory returned for several replications (a run that draws
    # nothing) is formatted once; its later files are copies of the first
    written = {}
    for r, traj in enumerate(trajectories):
        path = os.path.join(cfg.out_dir, f"traj_rep{r:03d}.csv")
        if id(traj) in written:
            shutil.copyfile(written[id(traj)], path)
        else:
            write_trajectory_csv(path, traj, kept)
            written[id(traj)] = path
    if stats is not None:
        write_aggregate_csv(os.path.join(cfg.out_dir, "aggregate.csv"), t_grid, stats,
                            kept)
    invariant_lines = [f"rep={r} k={k} {name} residual={res:.6e}"
                       for r, traj in enumerate(trajectories)
                       for k, name, res in traj.invariant_log]
    with open(os.path.join(cfg.out_dir, "invariants.log"), "w") as fh:
        fh.write("\n".join(invariant_lines) + ("\n" if invariant_lines else ""))
    # np.max, unlike max, keeps a NaN residual
    worst = {name: [t.invariant_worst[name] for t in trajectories
                    if name in t.invariant_worst] for name in INVARIANTS}

    report = {
        "preset": cfg.preset,
        "replications": cfg.replications,
        "t_max": cfg.solver.t_max,
        "variant": cfg.solver.variant,
        "schedule": cfg.solver.schedule,
        "averaging": averaging,
        "config_sha256": config_sha256(cfg),
        "kernel_path": plan.takes_identity_split,
        "step_plan": plan.facts(),
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

    if mean is not None:
        d_yb = reference.d_y_star_b(preset.spec)
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
                                       cfg.solver, preset.spec, d_yb))
                for omega in cfg.omegas]

    ok = (not failed_runs and not invariant_lines and all(report["checks"].values())
          and all(tail["passed"] for tail in report.get("high_prob", ())))
    report["passed"] = ok
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        # the bytes of json.dump, in far fewer writes
        fh.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(report))
        fh.write("\n")
    return report, (0 if ok else 1)
