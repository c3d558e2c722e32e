"""Command-line front end.

Subcommands:

* ``run``               execute a configured experiment (or a preset smoke run)
* ``validate``          parse and schema-check a config file
* ``reference``         compute and print the certified optimum of a preset
* ``check-invariants``  short run with all runtime invariant probes enabled
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (ConfigError, ExperimentConfig, parse_config,
                      plan_experiment, read_config, run_experiment,
                      validate_config)
from .metrics import compute_reference
from .presets import PRESET_NAMES


def _load_config(args) -> ExperimentConfig:
    """The parsed config with the command-line overrides applied; the run
    validates it (plan_experiment)."""
    if args.config:
        cfg = parse_config(read_config(args.config))
    elif args.preset:
        cfg = ExperimentConfig(preset=args.preset)
    else:
        raise ConfigError("either --config or --preset is required")
    if getattr(args, "out", None):  # reference writes nothing and has no --out
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.preset_seed = args.seed
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.check:
        cfg.solver.check_invariants = True
    report, code = run_experiment(cfg)
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    return code


def _cmd_validate(args) -> int:
    cfg = validate_config(args.config)
    print(f"config OK: preset={cfg.preset} variant={cfg.solver.variant} "
          f"schedule={cfg.solver.schedule} t_max={cfg.solver.t_max} "
          f"R={cfg.replications}")
    return 0


def _cmd_reference(args) -> int:
    cfg = _load_config(args)
    preset, _ = plan_experiment(cfg)
    if not preset.supports_reference:
        print(f"preset {cfg.preset} has no certified reference path",
              file=sys.stderr)
        return 1
    ref = compute_reference(preset.spec, "auto", beta=cfg.solver.beta)
    print(f"reference: objective={ref.theta_star!r} "
          f"method={ref.method} tol={ref.certified_tolerance:.2e}")
    return 0


def _cmd_check_invariants(args) -> int:
    if args.steps < 10:
        raise ConfigError(f"--steps: must be >= 10, got {args.steps}")
    cfg = _load_config(args)
    # the config's problem and solver over at most --steps steps, checked,
    # recording its grid points within them, without the gates, which rest
    # on the config's horizon
    cfg.solver.check_invariants = True
    cfg.solver.t_max = min(cfg.solver.t_max, args.steps)
    cfg.t_grid = [t for t in cfg.t_grid or () if t <= args.steps] or None
    cfg.slope_band = cfg.rate_window = None
    cfg.check_bound, cfg.omegas = False, []
    report, code = run_experiment(cfg)
    n = report["invariant_violations"]
    print(f"invariant probes over {cfg.solver.t_max} steps: "
          f"{n} violation(s)")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stocadmm",
        description="Stochastic ADMM solvers with built-in convergence "
                    "verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="bypass config file for a smoke run")
        if out:
            p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="preset data seed")

    p_run = sub.add_parser("run", help="run an experiment")
    common(p_run)
    p_run.add_argument("--check", action="store_true",
                       help="enable per-iteration invariant probes")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_ref = sub.add_parser("reference", help="compute and print the optimum")
    common(p_ref, out=False)
    p_ref.set_defaults(func=_cmd_reference)

    p_chk = sub.add_parser("check-invariants",
                           help="test-mode run with probes on")
    common(p_chk)
    p_chk.add_argument("--steps", type=int, default=200,
                       help="most steps to run, at least 10")
    p_chk.set_defaults(func=_cmd_check_invariants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
