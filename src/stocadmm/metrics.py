"""Reference solutions, replication statistics, rate fitting, bound checks.

The convergence guarantees under test (rate_bound) are, writing D for the
diameter of X and Dy for ||B(y0 - y*)||, the deterministic term
(beta Dy^2 + rho^2/beta) / (2t) plus, for the stochastic variant, the term of
its schedule:

* convex:          sqrt(2) D M / sqrt(t)
* strongly convex: M^2 log t/(mu t) + mu D^2/(2t)
* smooth:          sqrt(2) D sigma / sqrt(t) + L D^2/(2t)

plus, for the convex schedule on a bounded-noise oracle, a tail statement:
with M1 the convex term and M2 the deterministic one, the measure exceeds
(1 + Omega/2 + 2 sqrt(2 Omega)) * M1(t) + M2(t) with probability at most
2 exp(-Omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import IterateState, ProblemSpec
from .sets import Ball, Box, WholeSpace
from .solvers import SolverConfig, StepPlan, step

__all__ = [
    "ReferenceSolution",
    "RateFit",
    "compute_reference",
    "estimate_expectation",
    "fit_rate",
    "high_prob_check",
    "HighProbResult",
    "rate_bound",
    "require_tail_bound",
    "high_prob_threshold",
]


# ---------------------------------------------------------------------------
# theoretical bounds


def rate_bound(t, solver: SolverConfig, spec: ProblemSpec, d_yb: float):
    """The bound on the expected error measure after t steps of solver on
    spec, with d_yb = Dy; raises for the constant schedule, which has none."""
    t = np.asarray(t, dtype=float)
    bound = (solver.beta * d_yb**2 + solver.rho**2 / solver.beta) / (2.0 * t)
    if solver.variant != "stochastic":
        return bound
    c, D = spec.constants, spec.diameter_x
    if solver.schedule == "convex":
        return math.sqrt(2.0) * D * c.M / np.sqrt(t) + bound
    if solver.schedule == "strongly-convex":
        return c.M**2 * np.log(t) / (c.mu * t) + c.mu * D**2 / (2.0 * t) + bound
    if solver.schedule == "smooth":
        return math.sqrt(2.0) * D * c.sigma / np.sqrt(t) + c.L * D**2 / (2.0 * t) + bound
    raise ValueError(f"the {solver.schedule} schedule has no rate bound")


def require_tail_bound(solver: SolverConfig, bounded_oracle: bool):
    """Raise unless the tail statement covers the runs of solver on the
    oracle: the stochastic variant, the convex schedule, bounded noise (the
    sub-Gaussian moment condition is not certifiable otherwise)."""
    if solver.variant != "stochastic" or solver.schedule != "convex":
        raise ValueError(f"the tail bound holds for the stochastic variant with the "
                         f"convex schedule only, not {solver.variant} {solver.schedule}")
    if not bounded_oracle:
        raise ValueError("the tail bound needs a bounded-noise oracle")


def high_prob_threshold(t, Omega, M, D_X, D_yB, beta, rho):
    m1 = math.sqrt(2.0) * D_X * M / math.sqrt(t)
    m2 = (beta * D_yB**2 + rho**2 / beta) / (2.0 * t)
    return (1.0 + 0.5 * Omega + 2.0 * math.sqrt(2.0 * Omega)) * m1 + m2


# ---------------------------------------------------------------------------
# reference solutions


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    y_star: np.ndarray
    theta_star: float
    lam_star: np.ndarray | None
    method: str
    certified_tolerance: float

    def d_y_star_b(self, spec: ProblemSpec, y0: np.ndarray | None = None) -> float:
        y0 = np.zeros_like(self.y_star) if y0 is None else y0
        return float(np.linalg.norm(spec.B @ (y0 - self.y_star)))


def _theta2_quadratic_parts(spec: ProblemSpec):
    th2 = spec.theta2
    if hasattr(th2, "quadratic_parts"):
        return th2.quadratic_parts()
    if hasattr(th2, "quadratic_parts_for"):
        return th2.quadratic_parts_for(spec.d2)
    raise ValueError("second-block objective is not in quadratic form")


def _kkt_direct(spec: ProblemSpec) -> ReferenceSolution:
    if not (isinstance(spec.X, WholeSpace) and isinstance(spec.Y, WholeSpace)):
        raise ValueError("direct KKT solve needs whole-space feasible sets")
    H1, c1, k1 = spec.theta1.quadratic_parts()
    H2, c2, k2 = _theta2_quadratic_parts(spec)
    d1, d2, m = spec.d1, spec.d2, spec.m
    K = np.zeros((d1 + d2 + m, d1 + d2 + m))
    K[:d1, :d1] = H1
    K[:d1, d1 + d2:] = -spec.A.T
    K[d1:d1 + d2, d1:d1 + d2] = H2
    K[d1:d1 + d2, d1 + d2:] = -spec.B.T
    K[d1 + d2:, :d1] = spec.A
    K[d1 + d2:, d1:d1 + d2] = spec.B
    rhs = np.concatenate([-c1, -c2, spec.b])
    sol = np.linalg.solve(K, rhs)
    x, y, lam = sol[:d1], sol[d1:d1 + d2], sol[d1 + d2:]
    kkt_res = float(np.linalg.norm(K @ sol - rhs))
    return ReferenceSolution(x, y, spec.theta(x, y), lam, "kkt-direct",
                             max(kkt_res, 1e-16))


def step_deterministic(state: IterateState, plan: StepPlan) -> IterateState:
    """One iteration of the reference solve: the deterministic ``step``.

    The reference solve calls it through this module-level name, which is the
    boundary perfbench/tracing.py wraps to count metrics.reference_iters.
    """
    return step(state, plan)


def _long_admm(spec: ProblemSpec, beta: float, tol: float, budget: int) -> ReferenceSolution:
    plan = SolverConfig(variant="deterministic", beta=beta, t_max=0).validate(spec)
    state = IterateState.zeros(spec)
    achieved = np.inf
    for k in range(budget):
        # step() replaces the iterate arrays rather than writing into them
        x_prev, y_prev, lam_prev = state.x, state.y, state.lam
        step_deterministic(state, plan)
        move = float(np.linalg.norm(state.x - x_prev) + np.linalg.norm(state.y - y_prev))
        # the dual step was lam_prev - beta * residual(x, y)
        feas = float(np.linalg.norm(lam_prev - state.lam)) / beta
        achieved = move + feas
        if achieved <= tol:
            return ReferenceSolution(state.x.copy(), state.y.copy(),
                                     spec.theta(state.x, state.y),
                                     state.lam.copy(), "long-deterministic-admm",
                                     achieved)
    raise RuntimeError(
        f"reference solve exhausted budget {budget} with residual {achieved:.3e}"
    )


def _grid_search(spec: ProblemSpec, resolution: float) -> ReferenceSolution:
    if spec.d1 + spec.d2 > 4:
        raise ValueError("grid-search certification supports d1 + d2 <= 4 only")
    if spec.B.shape[0] != spec.d2:
        raise ValueError("grid search needs square invertible B")
    Binv = np.linalg.inv(spec.B)
    if isinstance(spec.X, Box):
        lo, hi = spec.X.lo, spec.X.hi
    elif isinstance(spec.X, Ball):
        lo = -spec.X.radius * np.ones(spec.d1)
        hi = spec.X.radius * np.ones(spec.d1)
    else:
        r = spec.diameter_x / 2.0
        lo, hi = -r * np.ones(spec.d1), r * np.ones(spec.d1)
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution) for i in range(spec.d1)]
    best = (np.inf, None, None)
    for pt in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.d1):
        if not spec.X.contains(pt, tol=1e-12):
            continue
        y = Binv @ (spec.b - spec.A @ pt)
        if not spec.Y.contains(y, tol=1e-9):
            continue
        val = spec.theta(pt, y)
        if val < best[0]:
            best = (val, pt.copy(), y)
    if best[1] is None:
        raise RuntimeError("grid search found no feasible point")
    return ReferenceSolution(best[1], best[2], best[0], None, "grid-search", resolution)


def compute_reference(spec: ProblemSpec, method: str = "auto", beta: float = 1.0,
                      tol: float = 1e-10, budget: int = 1_000_000,
                      resolution: float = 1e-4) -> ReferenceSolution:
    """Certified optimum of the constrained problem.

    'kkt-direct' solves the stationarity system for fully quadratic
    unconstrained-set instances; 'long-admm' iterates deterministic ADMM to
    stationarity; 'grid-search' brute-forces tiny instances.  'auto' prefers
    the KKT solve when applicable.
    """
    if method == "auto":
        quadratic = hasattr(spec.theta1, "quadratic_parts") and (
            hasattr(spec.theta2, "quadratic_parts")
            or hasattr(spec.theta2, "quadratic_parts_for"))
        wholespace = isinstance(spec.X, WholeSpace) and isinstance(spec.Y, WholeSpace)
        method = "kkt-direct" if (quadratic and wholespace) else "long-admm"
    if method == "kkt-direct":
        return _kkt_direct(spec)
    if method == "long-admm":
        return _long_admm(spec, beta, tol, budget)
    if method == "grid-search":
        return _grid_search(spec, resolution)
    raise ValueError(f"unknown reference method {method!r}")


# ---------------------------------------------------------------------------
# replication statistics and rate fitting


def estimate_expectation(trajectories: list, t_grid, averaging: str = "eq2-shifted"):
    """Pointwise sample mean and standard error of the error measure.

    All trajectories must contain rows for every t in t_grid.  Returns
    (mean, stderr) arrays aligned with t_grid.
    """
    if len(trajectories) < 2:
        raise ValueError("need at least two trajectories for an expectation estimate")
    t_grid = np.asarray(t_grid, dtype=int)
    curves = []
    for traj in trajectories:
        pos = np.searchsorted(traj.k, t_grid)
        if np.any(pos >= len(traj.k)) or np.any(traj.k[pos] != t_grid):
            raise ValueError("trajectory is missing rows for the requested grid")
        curves.append(traj.err_curve(averaging)[pos])
    stacked = np.stack(curves)
    mean = stacked.mean(axis=0)
    stderr = stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])
    return mean, stderr


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple
    n_points: int

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError("rate fit needs at least 5 points")


def fit_rate(ts, errs, window, n_points: int = 20) -> RateFit:
    """Least-squares slope of log(err) against log(t) on a geometric subgrid."""
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (ts >= t_lo) & (ts <= t_hi)
    ts_w, errs_w = ts[mask], errs[mask]
    if len(ts_w) < 5:
        raise ValueError("fewer than 5 grid points inside the fit window")
    if np.any(errs_w <= 0):
        raise ValueError(
            "nonpositive error values inside the window (converged below "
            "floating noise); use a smaller window"
        )
    targets = np.geomspace(ts_w[0], ts_w[-1], num=min(n_points, len(ts_w)))
    picks = np.unique(np.searchsorted(ts_w, targets).clip(0, len(ts_w) - 1))
    lt = np.log(ts_w[picks])
    le = np.log(errs_w[picks])
    slope, intercept = np.polyfit(lt, le, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2,
                   (float(ts_w[picks][0]), float(ts_w[picks][-1])), len(picks))


# ---------------------------------------------------------------------------
# high-probability tail check


@dataclass(frozen=True)
class HighProbResult:
    omega: float
    threshold: float
    exceed_fraction: float
    bound: float
    slack: float
    passed: bool


def high_prob_check(err_values, t: int, Omega: float, M: float, D_X: float,
                    D_yB: float, beta: float, rho: float) -> HighProbResult:
    """Empirical tail frequency against the theoretical exceedance bound,
    for runs that require_tail_bound admits.

    err_values holds one realized error measure per replication at iteration
    t.  The check passes when the exceedance fraction is at most
    2 exp(-Omega) plus a binomial 95% confidence slack.
    """
    err_values = np.asarray(err_values, dtype=float)
    R = len(err_values)
    thr = high_prob_threshold(t, Omega, M, D_X, D_yB, beta, rho)
    frac = float(np.mean(err_values > thr))
    bound = min(2.0 * math.exp(-Omega), 1.0)
    slack = 1.96 * math.sqrt(bound * (1.0 - bound) / R) if R else 0.0
    return HighProbResult(Omega, thr, frac, bound, slack, frac <= bound + slack)
