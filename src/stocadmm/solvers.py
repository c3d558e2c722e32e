"""One ADMM step for all three variants, its per-run plan, the solver loop
and the per-iteration invariant checkers.

Every variant runs the same iteration: an x-update that minimizes a model of
the augmented Lagrangian over X, the exact y-update (a prox of theta2, since
B = s*I), and the dual ascent lam <- lam - beta*(A x + B y - b), which holds
exactly by construction and is still asserted when checks are enabled.  The
variants differ only in the model of theta1 and the prox term of the
x-update:

* deterministic: theta1 itself (a quadratic form, so the update is a linear
  solve over X), no prox term;
* linearized: theta1 itself plus a G-norm prox term, where G = r*I - beta*A'A
  for a scalar r cancels the coupling and leaves an isotropic term;
* stochastic: the first-order model at x_k built from one sampled
  subgradient, with an l2 prox term scaled by the stepsize 1/eta_k.

StepPlan holds everything about the x-update and the y-update that is fixed
for a run, computed and checked once; step() applies it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .problem import IterateState, ProblemSpec, StackedW, eval_F, err_rho
from .prox import min_quadratic_over_set, solve_y_update, three_points_check
from .sets import Ball, WholeSpace

__all__ = [
    "SolverConfig",
    "StepPlan",
    "Trajectory",
    "step",
    "run",
    "step_inequality_check",
    "check_y_optimality",
    "SolverError",
]


class SolverError(ValueError):
    """The problem's structure does not fit the configured variant."""


@dataclass
class SolverConfig:
    variant: str = "stochastic"          # deterministic | linearized | stochastic
    beta: float = 1.0
    schedule: str = "convex"             # convex | strongly-convex | smooth | constant
    eta0: float | None = None            # constant schedule only
    t_max: int = 100
    rho: float = 1.0
    averaging: str | None = None         # eq2-shifted | eq10-aligned
    check_invariants: bool = False
    probe_count: int = 5
    check_tol: float = 1e-9
    G: float | np.ndarray | None = None  # scalar r means G = r*I - beta*A'A
    probe_seed: int = 2024

    def validate(self, spec: ProblemSpec) -> "StepPlan":
        """Check the config against spec and plan the run's steps.

        Raises ValueError for a bad field and SolverError (a ValueError) when
        the problem's structure does not fit the variant.
        """
        if self.variant not in ("deterministic", "linearized", "stochastic"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        c = spec.constants
        if self.variant == "stochastic":
            if self.schedule == "strongly-convex" and not c.mu > 0:
                raise ValueError(
                    "strongly-convex schedule needs mu > 0 (the 1/(k*mu) "
                    "stepsize is undefined otherwise)"
                )
            if self.schedule == "smooth" and c.L is None:
                raise ValueError("smooth schedule needs a declared L")
            if self.schedule == "constant" and not (self.eta0 and self.eta0 > 0):
                raise ValueError("constant schedule needs a positive eta0")
            if self.schedule in ("convex", "smooth"):
                spec.diameter_x  # raises if whole-space X lacks a declared diameter
        return StepPlan(spec, self)

    def eta(self, k: int, spec: ProblemSpec) -> float:
        """Stepsize used by the step from x_{k-1} to x_k (k >= 1)."""
        c = spec.constants
        if self.schedule == "convex":
            return spec.diameter_x / (c.M * math.sqrt(2.0 * k))
        if self.schedule == "strongly-convex":
            return 1.0 / (k * c.mu)
        if self.schedule == "smooth":
            return 1.0 / (c.L + c.sigma * math.sqrt(2.0 * k) / spec.diameter_x)
        if self.schedule == "constant":
            return float(self.eta0)
        raise ValueError(f"unknown schedule {self.schedule!r}")

    def default_averaging(self) -> str:
        if self.averaging is not None:
            return self.averaging
        if self.variant != "stochastic" or self.schedule == "smooth":
            return "eq10-aligned"
        return "eq2-shifted"


def _quadratic_parts(spec: ProblemSpec, message: str):
    try:
        H, c, _ = spec.theta1.quadratic_parts()
    except AttributeError as exc:
        raise SolverError(message) from exc
    return H, c


def _y_prox_scale(spec: ProblemSpec) -> float:
    B, d2 = spec.B, spec.d2
    s = float(B[0, 0]) if B.shape == (d2, d2) and d2 > 0 else 1.0
    if B.shape != (d2, d2) or s == 0 or not np.allclose(B, s * np.eye(d2)):
        raise SolverError(
            "y-update reduces to a prox only for B = s*I; use an inner solver "
            "for general B"
        )
    return s


class StepPlan:
    """The fixed part of every step of one run, built and checked once by
    SolverConfig.validate.

    The x-update minimizes x'(H0 + shift I)x/2 - rhs'x over X with

        rhs = beta A'v - c + G x_k - g,    v = b + lam_k/beta - B y_k,

    where c is the linear term of a quadratic theta1, G the prox term's
    matrix and g the sampled subgradient (stochastic variant only, where the
    model of theta1 is linear, so c = 0):

    * deterministic, or linearized with G = 0: H0 = H + beta A'A, shift 0;
    * linearized, psd matrix G:       H0 = H + beta A'A + G, shift 0;
    * linearized, scalar r:           H0 = H, shift r (G = r I - beta A'A);
    * stochastic:                     H0 = beta A'A, shift 1/eta_k (G = I/eta_k).

    For a scalar r and a theta1 with a prox but no quadratic form, the
    x-update is the prox form argmin theta1(x) + (r/2)||x - rhs/r||^2 (c = 0),
    which needs whole-space X.  The y-update is the prox of theta2 with scale
    s, for B = s*I.
    """

    def __init__(self, spec: ProblemSpec, cfg: SolverConfig):
        self.spec = spec
        self.beta = beta = cfg.beta
        self.s = _y_prox_scale(spec)
        AtA = spec.A.T @ spec.A
        G = cfg.G if cfg.variant == "linearized" else None
        if G is not None and np.isscalar(G) and G == 0:
            G = None
        self.shift = 0.0             # None: 1/eta_k, set per step
        self.G_rest = None           # G - shift*I, when not zero
        self.prox = False
        self.c = 0.0
        H0 = None
        if cfg.variant == "stochastic":
            self.shift = None
            H0 = beta * AtA
        elif G is not None and np.isscalar(G):
            r = float(G)
            top = beta * float(np.linalg.eigvalsh(AtA)[-1])
            if r < top - 1e-12:
                raise SolverError(
                    f"r = {r} < beta*||A'A||_2 = {top}: G = r*I - beta*A'A is "
                    f"not psd"
                )
            self.shift = r
            self.G_rest = -beta * AtA
            theta1 = spec.theta1
            if hasattr(theta1, "prox") and not hasattr(theta1, "quadratic_parts"):
                if not isinstance(spec.X, WholeSpace):
                    raise SolverError(
                        "prox-based linearized x-update supports whole-space X only"
                    )
                self.prox = True
            else:
                H0, self.c = _quadratic_parts(
                    spec, "linearized update needs a first-block objective with "
                          "a quadratic form or a prox")
        else:
            H, self.c = _quadratic_parts(
                spec, "matrix-G linearized update needs a quadratic first-block "
                      "objective" if G is not None else
                      "exact x-minimization needs a quadratic first-block "
                      "objective; use the linearized or stochastic variant instead")
            H0 = H + beta * AtA
            if G is not None:
                G = np.asarray(G, dtype=float)
                if np.linalg.eigvalsh((G + G.T) / 2)[0] < -1e-10:
                    raise SolverError("G must be positive semidefinite")
                H0 = H0 + G
                self.G_rest = G
        self.H0 = H0
        self.eig = None if H0 is None else np.linalg.eigh(H0)
        # the whole-space and ball solves divide by the eigenvalues; projected
        # gradient over a box only needs a nonzero top eigenvalue
        low = 0 if isinstance(spec.X, (WholeSpace, Ball)) else -1
        if (self.shift == 0.0
                and self.eig[0][low] <= 1e-12 * max(abs(self.eig[0][-1]), 1.0)):
            raise SolverError(f"x-update quadratic is singular over "
                              f"{type(spec.X).__name__} X")


def step(state: IterateState, plan: StepPlan, g: np.ndarray | None = None,
         eta: float = math.nan) -> IterateState:
    """One iteration of the planned variant, in place: x-update, y-update,
    dual ascent.  A stochastic plan takes the sampled subgradient g at
    state.x and the stepsize eta; the other variants take neither."""
    spec, beta, x = plan.spec, plan.beta, state.x
    shift = plan.shift
    if shift is None:
        if g is None:
            raise ValueError("a stochastic step needs a sampled subgradient g")
        if not eta > 0:
            raise ValueError("eta must be positive")
        shift = 1.0 / eta
    v = spec.b + state.lam / beta - spec.B @ state.y
    rhs = beta * (spec.A.T @ v) - plan.c + shift * x
    if plan.G_rest is not None:
        rhs = rhs + plan.G_rest @ x
    if g is not None:
        rhs = rhs - g
    if plan.prox:
        x_next = spec.theta1.prox(rhs / shift, shift)
    else:
        x_next = min_quadratic_over_set(plan.H0, plan.eig, shift, rhs, spec.X,
                                        x_init=x)
    y_next = solve_y_update(x_next, state.lam, spec, beta, plan.s)
    state.advance(x_next, y_next, state.lam - beta * spec.residual(x_next, y_next))
    return state


@dataclass
class Trajectory:
    """Per-iteration record of a single solver run."""

    k: np.ndarray
    eta: np.ndarray
    obj_gap_eq2: np.ndarray
    feas_eq2: np.ndarray
    err_rho_eq2: np.ndarray
    obj_gap_eq10: np.ndarray
    feas_eq10: np.ndarray
    err_rho_eq10: np.ndarray
    step_ms: np.ndarray
    final_state: IterateState | None = None
    invariant_log: list = field(default_factory=list)
    max_invariant_residual: float = 0.0
    error: str | None = None

    COLUMNS = ("k", "eta", "obj_gap_eq2", "feas_eq2", "err_rho_eq2",
               "obj_gap_eq10", "feas_eq10", "err_rho_eq10", "step_ms")

    @classmethod
    def from_rows(cls, rows: dict, **extra) -> "Trajectory":
        return cls(**{name: np.asarray(vals) for name, vals in rows.items()}, **extra)

    def __len__(self):
        return len(self.k)

    def err_curve(self, averaging: str) -> np.ndarray:
        if averaging == "eq2-shifted":
            return self.err_rho_eq2
        if averaging == "eq10-aligned":
            return self.err_rho_eq10
        raise ValueError(f"unknown averaging {averaging!r}")


def empty_rows() -> dict:
    return {name: [] for name in Trajectory.COLUMNS}


def record_row(rows: dict, spec: ProblemSpec, rho: float, theta_star: float | None,
               k: int, eta: float, step_ms: float, x_bar_shifted: np.ndarray,
               x_bar_aligned: np.ndarray, y_bar: np.ndarray):
    """Append one trajectory row for the averages after k iterations.
    Objective gaps and errors need theta_star; without it they are NaN."""
    rows["k"].append(k)
    rows["eta"].append(eta)
    rows["step_ms"].append(step_ms)
    for tag, x_bar in (("eq2", x_bar_shifted), ("eq10", x_bar_aligned)):
        u_bar = (x_bar, y_bar)
        if theta_star is None:
            gap = err = math.nan
            feas = float(np.linalg.norm(spec.residual(*u_bar)))
        else:
            err, gap, feas = err_rho(u_bar, spec, theta_star, rho)
        rows[f"obj_gap_{tag}"].append(gap)
        rows[f"feas_{tag}"].append(feas)
        rows[f"err_rho_{tag}"].append(err)


def step_inequality_check(prev: StackedW, curr: StackedW, probe_w: StackedW,
                 g: np.ndarray, delta: np.ndarray, eta: float,
                 spec: ProblemSpec, beta: float):
    """Signed residual of the per-iteration variational bound at one probe.

    The bound compares the linearized Lagrangian decrease against telescoping
    distance terms, the stepsize-weighted subgradient norm and the noise
    pairing term.  Must be <= 0 up to roundoff, for every probe in W.
    Returns (residual, scale) with scale the sum of term magnitudes.
    """
    th1_prev = spec.theta1.value(prev.x)
    th2_curr = spec.theta2.value(curr.y)
    th_probe = spec.theta(probe_w.x, probe_w.y)
    Fw = eval_F(curr, spec)
    lhs = th1_prev + th2_curr - th_probe + (curr - probe_w).dot(Fw)

    def sq(v):
        return float(v @ v)

    t1 = eta * sq(g) / 2.0
    t2 = (sq(prev.x - probe_w.x) - sq(curr.x - probe_w.x)) / (2.0 * eta)
    r_prev = spec.A @ probe_w.x + spec.B @ prev.y - spec.b
    r_curr = spec.A @ probe_w.x + spec.B @ curr.y - spec.b
    t3 = beta * (sq(r_prev) - sq(r_curr)) / 2.0
    t4 = float(delta @ (probe_w.x - prev.x))
    t5 = (sq(probe_w.lam - prev.lam) - sq(probe_w.lam - curr.lam)) / (2.0 * beta)
    rhs = t1 + t2 + t3 + t4 + t5
    scale = 1.0 + abs(lhs) + abs(t1) + abs(t2) + abs(t3) + abs(t4) + abs(t5)
    return lhs - rhs, scale


def check_y_optimality(curr: StackedW, spec: ProblemSpec, rng: np.random.Generator,
                       probes: int = 20):
    """Max signed residual of the y-update optimality inequality over probes.

    For the exact y-minimizer, th2(y_{k+1}) - th2(y') + <y_{k+1} - y',
    -B'lam_{k+1}> <= 0 for every y' in Y.  Returns (max residual, scale).
    """
    grad_term = -spec.B.T @ curr.lam
    worst = -np.inf
    scale = 1.0 + abs(spec.theta2.value(curr.y)) + float(np.linalg.norm(grad_term))
    for _ in range(probes):
        y_probe = spec.Y.project(spec.Y.sample(rng, scale=1.0 + np.linalg.norm(curr.y)))
        res = (spec.theta2.value(curr.y) - spec.theta2.value(y_probe)
               + float((curr.y - y_probe) @ grad_term))
        worst = max(worst, res)
    return worst, scale


def _probe_w(spec: ProblemSpec, rng: np.random.Generator, lam_scale: float) -> StackedW:
    x = spec.X.project(spec.X.sample(rng))
    y = spec.Y.project(spec.Y.sample(rng))
    lam = lam_scale * rng.standard_normal(spec.m)
    return StackedW(x, y, lam)


def run(spec: ProblemSpec, cfg: SolverConfig, oracle=None,
        x0: np.ndarray | None = None, y0: np.ndarray | None = None,
        theta_star: float | None = None,
        record_at: np.ndarray | None = None) -> Trajectory:
    """Execute t_max steps and record the trajectory.

    Structural errors raise before any step; an error during the steps ends
    the run and is returned in the partial trajectory.  record_at restricts
    metric rows to the given iteration counts (sorted, 1-based); by default
    every iteration is recorded.  Objective gaps need theta_star; without it
    only feasibility is populated.
    """
    plan = cfg.validate(spec)
    stochastic = cfg.variant == "stochastic"
    if stochastic and oracle is None:
        raise ValueError("stochastic variant needs an oracle")
    state = IterateState(
        np.zeros(spec.d1) if x0 is None else spec.X.project(np.asarray(x0, float)),
        np.zeros(spec.d2) if y0 is None else np.asarray(y0, dtype=float),
        np.zeros(spec.m),
    )
    buffer = oracle.presample(cfg.t_max) if (stochastic and cfg.t_max) else None
    record_set = None if record_at is None else set(int(t) for t in record_at)
    rng = np.random.default_rng(cfg.probe_seed)

    rows = empty_rows()
    inv_log = []
    max_resid = 0.0
    error = None

    for k in range(cfg.t_max):
        t0 = time.perf_counter()
        prev_w = state.as_w() if cfg.check_invariants else None
        eta = cfg.eta(k + 1, spec) if stochastic else math.nan
        g = None
        try:
            if stochastic:
                g = oracle.sample_subgradient(state.x, k=k, buffer=buffer)
            step(state, plan, g, eta)
        except Exception as exc:  # return the partial trajectory with the error
            error = f"iteration {k}: {exc}"
            break
        step_ms = (time.perf_counter() - t0) * 1e3

        if cfg.check_invariants:
            max_resid = max(
                max_resid, _run_checks(prev_w, state, spec, cfg, g, eta, rng, inv_log))

        if record_set is None or state.k in record_set:
            record_row(rows, spec, cfg.rho, theta_star, state.k, eta, step_ms,
                       state.avg_x_shifted, state.avg_x_aligned, state.avg_y)

    return Trajectory.from_rows(rows, final_state=state, invariant_log=inv_log,
                                max_invariant_residual=max_resid, error=error)


def _run_checks(prev_w, state, spec, cfg, g, eta, rng, inv_log) -> float:
    """All enabled per-iteration invariants; returns the worst scaled residual.
    g is the sampled subgradient of a stochastic step, else None."""
    curr = state.as_w()
    beta = cfg.beta
    worst = 0.0

    # dual-update identity: exact by construction
    dual_res = float(np.linalg.norm(
        curr.lam - prev_w.lam + beta * spec.residual(curr.x, curr.y)))
    worst = max(worst, dual_res)
    if dual_res > 1e-12 * (1.0 + np.linalg.norm(curr.lam)):
        inv_log.append((state.k, "dual-identity", dual_res))

    yres, yscale = check_y_optimality(curr, spec, rng, probes=max(cfg.probe_count, 20))
    worst = max(worst, yres / yscale)
    if yres > cfg.check_tol * yscale:
        inv_log.append((state.k, "y-optimality", yres))

    if g is not None:
        # 3-points relation at the realized x-update
        v = spec.b + prev_w.lam / beta - spec.B @ prev_w.y
        g_l = g + beta * (spec.A.T @ (spec.A @ curr.x - v))
        for _ in range(cfg.probe_count):
            xp = spec.X.project(spec.X.sample(rng))
            ok, res = three_points_check(curr.x, prev_w.x, xp, g_l, 1.0 / eta,
                                         tol=cfg.check_tol)
            worst = max(worst, res)
            if not ok:
                inv_log.append((state.k, "three-points", res))
        # per-iteration variational bound at random probes; delta is the
        # deviation of g from the exact subgradient at the previous iterate
        delta = g - spec.theta1.subgrad(prev_w.x)
        lam_scale = 1.0 + float(np.linalg.norm(curr.lam))
        for _ in range(cfg.probe_count):
            w_probe = _probe_w(spec, rng, lam_scale)
            res, scale = step_inequality_check(prev_w, curr, w_probe, g, delta,
                                               eta, spec, beta)
            worst = max(worst, res / scale)
            if res > cfg.check_tol * scale:
                inv_log.append((state.k, "step-inequality", res))
    return worst
