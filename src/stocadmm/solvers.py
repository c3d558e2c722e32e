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

StepPlan, which SolverConfig.validate returns, is the one reader of the
problem's structure: everything about the x-update and the y-update that is
fixed for a run, computed and checked once, with the exact facts of the
constraint (B = s*I, A = I, b = 0) and the update the run takes, which it
builds once as a function of the state with those facts fixed.  step()
applies it, to one iterate or to R replications as (R, d) rows.

loop() is the solver loop of every run and takes a plan, so no run reaches
it unvalidated.  It takes the update of a step, the plan's from run() or
the identity-split update of kernels.admm_identity_split, and owns the rest:
the stepsize, the draw, the capture of a step's error and the recorded rows
(RecordedRows), whose metrics are computed once, after the loop.  A checked
loop stores each step's iterate, subgradient and stepsize too (CheckedSteps).
Every CHECK_CHUNK steps the loop checks the invariants of the chunk, for
every replication still checked in one pass, and ends the run once no
replication is finite.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .functions import matmul_rows
from .oracle import SampleBuffer
from .problem import IterateState, ProblemSpec, StackedW, eval_F, err_rho
from .prox import min_quadratic_over_set, prox_map, three_points_check
from .schema import check, setting
from .sets import Ball, WholeSpace

__all__ = [
    "SolverConfig",
    "StepPlan",
    "Trajectory",
    "step",
    "loop",
    "run",
    "step_inequality_check",
    "check_y_optimality",
    "SolverError",
]


# invariant checks: their names, random probe points per check (three-points
# and step-inequality, then y-optimality), tolerance of the signed residuals,
# seed of the probe generator, steps per chunk of the loop (one check pass,
# and one test whether any replication is finite) and most (step,
# replication) rows one group of a pass evaluates at once.  Longer chunks
# and larger groups cost fewer passes but more memory: a 64-step chunk
# raised the peak memory of a checked run by 7%.
INVARIANTS = ("dual-identity", "y-optimality", "three-points", "step-inequality")
PROBE_COUNT = 5
Y_PROBE_COUNT = 20
CHECK_TOL = 1e-9
PROBE_SEED = 2024
CHECK_CHUNK = 16
CHECK_ROWS = 64
# relative roundoff the declared mu and L of a quadratic theta1 may miss its
# Hessian's extreme eigenvalues by; the presets miss by at most about 1e-15
CURVATURE_RTOL = 1e-12

AVERAGINGS = ("eq2-shifted", "eq10-aligned")
SCHEDULES = ("convex", "strongly-convex", "smooth", "constant")


class SolverError(ValueError):
    """The problem's structure does not fit the configured variant."""


@dataclass
class SolverConfig:
    variant: str = setting(str, "stochastic",
                           choices=("deterministic", "linearized", "stochastic"))
    beta: float = setting(float, 1.0, gt=0)
    schedule: str = setting(str, "convex", choices=SCHEDULES)
    eta0: float | None = setting(float, None)            # constant schedule only
    t_max: int = setting(int, 100, ge=0)
    rho: float = setting(float, 1.0, gt=0)
    averaging: str | None = setting(str, None, choices=AVERAGINGS)
    check_invariants: bool = setting(bool, False)
    # scalar r means G = r*I - beta*A'A; a matrix G only from Python
    G: float | np.ndarray | None = setting(float, None, also=np.ndarray)

    def validate(self, spec: ProblemSpec) -> "StepPlan":
        """Check the config against spec and plan the run's steps.

        Raises ValueError for a bad field and SolverError (a ValueError) when
        the problem's structure does not fit the variant.
        """
        check(self, "solver.")
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

    def eta(self, k, spec: ProblemSpec):
        """Stepsize used by the step from x_{k-1} to x_k (k >= 1); for an
        array of k, the array of their stepsizes.  np.sqrt, like math.sqrt,
        is correctly rounded, so both give the same bits."""
        c = spec.constants
        k = np.asarray(k, dtype=float)
        if self.schedule == "convex":
            eta = spec.diameter_x / (c.M * np.sqrt(2.0 * k))
        elif self.schedule == "strongly-convex":
            eta = 1.0 / (k * c.mu)
        elif self.schedule == "smooth":
            eta = 1.0 / (c.L + c.sigma * np.sqrt(2.0 * k) / spec.diameter_x)
        elif self.schedule == "constant":
            eta = np.full(k.shape, float(self.eta0))
        else:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        return float(eta) if eta.ndim == 0 else eta

    def default_averaging(self) -> str:
        if self.averaging is not None:
            return self.averaging
        if self.variant != "stochastic" or self.schedule == "smooth":
            return "eq10-aligned"
        return "eq2-shifted"


def _y_prox_scale(spec: ProblemSpec) -> float:
    """The s of B = s*I, which must hold exactly: every step multiplies by s
    in place of B, so an entry off s*I, however small, would be ignored."""
    B, d2 = spec.B, spec.d2
    s = float(B[0, 0]) if B.shape == (d2, d2) and d2 > 0 else 1.0
    if B.shape != (d2, d2) or s == 0 or not np.array_equal(B, s * np.eye(d2)):
        raise SolverError(
            "y-update reduces to a prox only for B = s*I exactly; use an inner "
            "solver for general B"
        )
    return s


def _check_curvature(constants, low: float, top: float):
    """The declared mu and L of a quadratic theta1 against the extreme
    eigenvalues low and top of its Hessian H: mu <= lambda_min(H) and
    L >= lambda_max(H), up to CURVATURE_RTOL * max(1, top).  The stepsizes
    and the bounds rest on both."""
    tol = CURVATURE_RTOL * max(1.0, top)
    if constants.mu > low + tol:
        raise SolverError(f"declared mu = {constants.mu} exceeds lambda_min(H) = "
                          f"{low} of theta1's Hessian")
    if constants.L is not None and constants.L < top - tol:
        raise SolverError(f"declared L = {constants.L} is below lambda_max(H) = "
                          f"{top} of theta1's Hessian")


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
    which needs whole-space X.  The y-update, for B = s*I, is the prox of
    theta2 with scale beta*s^2 at v / -s: y_prox, the map prox.prox_map
    builds once, with its checks (a ball Y needs theta2 = 0) and constants
    (the l1 threshold) fixed, so a step only does its arithmetic.

    The plan also reads three exact facts of the constraint off the spec
    once: B = s*I (required), A = I (A_identity) and b = 0 (b_zero).  For a
    scalar r with A = I, G_rest = -beta*A'A is the scalar -beta.  From these
    facts and the variant it builds the run's update once, update(state, g,
    eta) (_build_update): one formula per part of the step, with each
    product these facts make trivial replaced by the scalar operation that
    gives the same values, and the x-solve (the prox form or the eigenbasis
    solve) chosen once.  step() and loop() call it, so a step re-reads none
    of the plan's facts.  y_update is the
    y-update as a map of its point v.  theta1's (H, c, const), None without a
    quadratic form, is read once, for the x-update and the invariant checks,
    and with it the declared mu and L are checked against H's extreme
    eigenvalues (_check_curvature).
    takes_identity_split, an unchecked stochastic run with A = I, B = -I and
    b = 0, selects the update of kernels.admm_identity_split.  cfg is a copy
    of the config the plan was built from.
    """

    def __init__(self, spec: ProblemSpec, cfg: SolverConfig):
        self.spec, self.cfg = spec, dataclasses.replace(cfg)
        self.beta = beta = cfg.beta
        self.stochastic = cfg.variant == "stochastic"
        self.s = s = _y_prox_scale(spec)
        try:
            self.y_prox = prox_map(spec.theta2, spec.Y, beta * s * s)
        except ValueError as exc:
            raise SolverError(str(exc)) from None
        self.A_identity = (spec.A.shape == (spec.d1, spec.d1)
                           and np.array_equal(spec.A, np.eye(spec.d1)))
        self.b_zero = not np.any(spec.b)
        self.takes_identity_split = (self.stochastic and not cfg.check_invariants
                                     and self.A_identity and self.s == -1.0
                                     and self.b_zero)
        self.quadratic = _theta1_quadratic(spec)
        AtA = spec.A.T @ spec.A
        G = cfg.G if cfg.variant == "linearized" else None
        if np.isscalar(G) and G == 0:
            G = None
        scalar_G = np.isscalar(G)
        # None: 1/eta_k, set per step
        self.shift = None if self.stochastic else float(G) if scalar_G else 0.0
        self.G_rest = None           # G - shift*I, when not zero; a scalar for -beta*I
        self.prox = scalar_G and self.quadratic is None and hasattr(spec.theta1, "prox")
        self.c = 0.0
        if not (self.stochastic or self.prox):
            if self.quadratic is None:
                raise SolverError(
                    f"the {cfg.variant} x-update needs a first-block objective with "
                    f"a quadratic form{' or a prox' if scalar_G else ''}; the "
                    f"stochastic variant needs neither")
            H, self.c, _ = self.quadratic
        if self.stochastic:
            H0 = beta * AtA
        elif scalar_G:
            top = beta * float(np.linalg.eigvalsh(AtA)[-1])
            if self.shift < top - 1e-12:
                raise SolverError(
                    f"r = {self.shift} < beta*||A'A||_2 = {top}: G = r*I - beta*A'A "
                    f"is not psd"
                )
            self.G_rest = -beta if self.A_identity else -beta * AtA
            if self.prox and not isinstance(spec.X, WholeSpace):
                raise SolverError(
                    "prox-based linearized x-update supports whole-space X only")
            H0 = None if self.prox else H
        else:
            H0 = H + beta * AtA
            if G is not None:
                G = np.asarray(G, dtype=float)
                if np.linalg.eigvalsh((G + G.T) / 2)[0] < -1e-10:
                    raise SolverError("G must be positive semidefinite")
                H0 = H0 + G
                self.G_rest = G
        self.H0 = H0
        self.eig = None if H0 is None else np.linalg.eigh(H0)
        if self.quadratic is not None:
            H = self.quadratic[0]
            w = self.eig[0] if H0 is H else np.linalg.eigvalsh(H)
            _check_curvature(spec.constants, float(w[0]), float(w[-1]))
        # the whole-space and ball solves divide by the eigenvalues; projected
        # gradient over a box only needs a nonzero top eigenvalue
        low = 0 if isinstance(spec.X, (WholeSpace, Ball)) else -1
        if (self.shift == 0.0
                and self.eig[0][low] <= 1e-12 * max(abs(self.eig[0][-1]), 1.0)):
            raise SolverError(f"x-update quadratic is singular over "
                              f"{type(spec.X).__name__} X")
        # the y-update at its point v: y_prox at v / -s, v itself for s = -1
        y_prox = self.y_prox
        self.y_update = y_prox if s == -1.0 else lambda v: y_prox(v / -s)
        self.update = _build_update(self)

    def facts(self) -> dict:
        """The facts of the constraint the steps use, for the run's report."""
        return {"A_identity": self.A_identity, "b_zero": self.b_zero,
                "B_scale": self.s}


# The update of one step, which _build_update fills in once per run: each
# {field} becomes one formula of the plan's facts, so a step runs straight
# through.  The x-solve and the y-update go through the module names
# min_quadratic_over_set and solve_y_update, looked up at every call.
_UPDATE_TEMPLATE = """\
def build(plan, beta, s, A, At, b, c, G, H0, eig, X, shift, shifted, prox):
    def update(state, g, eta):
{shift}        x, lam = state.x, state.lam
        lam_beta = {lam_beta}
        rhs = {rhs}
        x_next = {x_next}
        Ax = {Ax}
        y_next = solve_y_update({y_point}, plan)
        state.advance(x_next, y_next, lam - {dual})
    return update
"""

# the {shift} field of a stochastic update: its inputs' checks and 1/eta, as
# a 0-d array (see _build_update)
_STOCHASTIC_SHIFT = """\
        if g is None:
            raise ValueError("a stochastic step needs a sampled subgradient g")
        if not eta > 0:
            raise ValueError("eta must be positive")
        shift = np.array(1.0 / eta)
"""


def _build_update(plan: StepPlan):
    """The update(state, g, eta) of plan's steps, which advances state in
    place by one x-update, y-update and dual step (see step()).

    Its formulas are those of the problem, rhs = beta A'v - c + shift x_k +
    G_rest x_k - g with v = b + lam/beta - B y_k, with every product and
    sum that the plan's exact facts make trivial left out: B y is s*y, and
    for s = -1 a sum or difference with -y is the difference or sum with y;
    A v is v for A = I; a product with beta or a quotient by it is its
    operand for beta = 1, so that the scalar G_rest = -beta of A = I is a
    difference with x; b is left out for b = 0, as is c for a stochastic
    plan (c = 0).  Each gives the values of the operation it replaces, and
    every other operation keeps its order.  lam/beta is formed once, for
    the x-update's v and the y-update's point A x_{k+1} - b - lam/beta.

    The x-solve is the prox form or the eigenbasis solve over X
    (prox.min_quadratic_over_set, which takes the solve of X's kind).  A
    shift fixed for the run, that of every variant but the stochastic one,
    is added to the eigenvalues here, once.
    """
    unit, minus_y = plan.beta == 1.0, plan.s == -1.0
    G = plan.G_rest
    v = "lam_beta" if plan.b_zero else "b + lam_beta"
    v += " + state.y" if minus_y else " - s * state.y"
    rhs = v if plan.A_identity else f"({v}) @ A"
    if not unit:
        rhs = f"beta * ({rhs})"
    if not plan.stochastic:
        rhs += " - c"
    rhs += " + shift * x"
    if isinstance(G, np.ndarray):
        rhs += " + x @ G.T"
    elif G is not None:
        rhs += " - x" if unit else " + G * x"
    if plan.stochastic:
        rhs += " - g"
    if plan.prox:
        x_next = "prox(rhs / shift, shift)"
    else:
        fixed = "" if plan.stochastic else ", shifted=shifted"
        x_next = f"min_quadratic_over_set(H0, eig, shift, rhs, X, x_init=x{fixed})"
    residual = "Ax - y_next" if minus_y else "Ax + s * y_next"
    if not plan.b_zero:
        residual += " - b"
    source = _UPDATE_TEMPLATE.format(
        shift=_STOCHASTIC_SHIFT if plan.stochastic else "",
        lam_beta="lam" if unit else "lam / beta", rhs=rhs, x_next=x_next,
        Ax="x_next" if plan.A_identity else "x_next @ At",
        y_point="Ax - lam_beta" if plan.b_zero else "Ax - b - lam_beta",
        dual=f"({residual})" if unit else f"beta * ({residual})")
    spec, eig = plan.spec, plan.eig
    shifted = None if eig is None or plan.stochastic else eig[0] + plan.shift
    # the scalars as 0-d arrays, which a ufunc takes as it takes an array, for
    # about 0.3 us less per operation than a Python float, with the same bits
    shift = None if plan.shift is None else np.array(plan.shift)
    if G is not None and not isinstance(G, np.ndarray):
        G = np.array(G)
    return _update_builder(source)(plan, np.array(plan.beta), np.array(plan.s), spec.A,
                                   spec.A.T, spec.b, plan.c, G, plan.H0, eig, spec.X,
                                   shift, shifted, getattr(spec.theta1, "prox", None))


@functools.lru_cache(maxsize=64)
def _update_builder(source: str):
    """The build function of an update's source, with this module's
    globals, compiled once per source, that is per combination of the
    plan's facts: compiling takes about 0.2 ms, more than the rest of a
    plan."""
    namespace = {}
    exec(compile(source, "<planned update>", "exec"), globals(), namespace)
    return namespace["build"]


def step(state: IterateState, plan: StepPlan, g: np.ndarray | None = None,
         eta: float = math.nan) -> IterateState:
    """One iteration of the planned variant, in place: x-update, y-update,
    dual ascent, by the update the plan built (_build_update).  A
    stochastic plan takes the sampled subgradient g at state.x and the
    stepsize eta; the other variants take neither.  A state of R
    replications with (R, d) arrays (and g with R rows) advances every
    replication by the same formulas, written for rows."""
    plan.update(state, g, eta)
    return state


def solve_y_update(v: np.ndarray, plan: StepPlan) -> np.ndarray:
    """argmin_{y in Y} theta2(y) + (beta/2)||s y + v||^2 for B = s*I: since
    (beta/2)||s y + v||^2 = (beta s^2/2)||y - v/-s||^2, the plan's prox map
    (scale beta*s^2) at v / -s, which for s = -1 is v itself (dividing by
    1.0 is exact): plan.y_update.  Takes the point v = A x_{k+1} - b -
    lam_k/beta, whose parts the update has formed for the x-update and the
    dual step."""
    return plan.y_update(v)


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
    final_state: IterateState | None = None
    invariant_log: list = field(default_factory=list)
    max_invariant_residual: float = 0.0
    # per invariant that ran, its worst residual as max_invariant_residual
    # counts it; per invariant, the number of probes it evaluated
    invariant_worst: dict = field(default_factory=dict)
    invariant_probes: dict = field(default_factory=dict)
    error: str | None = None

    COLUMNS = ("k", "eta", "obj_gap_eq2", "feas_eq2", "err_rho_eq2",
               "obj_gap_eq10", "feas_eq10", "err_rho_eq10")

    def __len__(self):
        return len(self.k)

    def err_curve(self, averaging: str) -> np.ndarray:
        if averaging == "eq2-shifted":
            return self.err_rho_eq2
        if averaging == "eq10-aligned":
            return self.err_rho_eq10
        raise ValueError(f"unknown averaging {averaging!r}")


# most (replication, row) points one err_rho call of the metric pass takes;
# unchunked, the (points, n) residual of a 4000-row run raised its peak memory
METRIC_CHUNK = 256


class RecordedRows:
    """The rows of one loop: the stepsize and the three running sums after
    step k, for each k of record_at within 1..t_max (every k by default),
    stored in one buffer allocated before the loop, each row one copy of
    the state's sums (x shifted, x aligned, y side by side, as
    IterateState.sums holds them): (N, 2*d1 + d2), or (R, N, 2*d1 + d2) for
    a state with a leading replication axis.
    record() only stores; trajectories() divides every row by its k, which
    gives the averages, and computes their metrics once, after the loop."""

    def __init__(self, state: IterateState, t_max: int, record_at=None):
        k = np.arange(1, t_max + 1)
        self.k = k if record_at is None else k[np.isin(k, record_at)]
        self.eta = np.empty(len(self.k))
        d1, sums = state.x.shape[-1], state.sums
        self.buf = np.empty(sums.shape[:-1] + (len(self.k), sums.shape[-1]))
        self.parts = IterateState.sum_slices(d1)
        # the aligned x and y sums, which take in x_k and y_k at row k
        self.latest = slice(d1, None)
        self.n = 0  # rows stored
        # the k of each row as ints, and the k of the next row due; 0 once
        # every row is stored
        self.ks = self.k.tolist()
        self.due = self.ks[0] if self.ks else 0

    def record(self, state: IterateState, eta: float):
        """Store the row of step state.k if it is due."""
        if state.k != self.due:
            return
        n = self.n
        self.eta[n] = eta
        self.buf[..., n, :] = state.sums
        self.n = n + 1
        self.due = self.ks[n + 1] if n + 1 < len(self.ks) else 0

    def trajectories(self, spec: ProblemSpec, rho: float, theta_star: float | None,
                     final_states: list, error: str | None = None,
                     records: list | None = None) -> list[Trajectory]:
        """One trajectory per replication from the rows stored so far, with
        final_states[r] the final state of replication r, error that of the
        loop and records[r] the InvariantRecord of replication r, if checked.
        Called once, at the end of the loop: it turns the stored sums into
        averages in place.  Without theta_star the gaps and errors are NaN.
        A non-finite iterate ends its replication with "iteration k:
        non-finite iterate", at the first row k whose averages are not
        finite, whose rows before it are kept, or else at the step the loop
        stopped at, the final state's k."""
        n, R = self.n, len(final_states)
        star = math.nan if theta_star is None else theta_star
        stored = self.buf[..., :n, :]
        stored /= self.k[:n, None]
        rows = stored.reshape(R * n, self.buf.shape[-1])
        x_shifted, x_aligned, y = (rows[:, part] for part in self.parts)
        finite = np.isfinite(rows[:, self.latest]).all(axis=1).reshape(R, n)
        cols = {}
        for tag, x in (("eq2", x_shifted), ("eq10", x_aligned)):
            out = np.empty((3, R * n))
            for i in range(0, R * n, METRIC_CHUNK):
                part = slice(i, i + METRIC_CHUNK)
                out[:, part] = err_rho((x[part], y[part]), spec, star, rho)
            cols[f"err_rho_{tag}"], cols[f"obj_gap_{tag}"], cols[f"feas_{tag}"] = \
                out.reshape(3, R, n)
        trajs = []
        for r, state in enumerate(final_states):
            fields = {"error": error, **(records[r].fields() if records else {})}
            # m: the first row whose averages are not finite, else n; lam sums
            # every residual, so it is not finite once an iterate was not
            m = int(np.argmin(np.append(finite[r], False)))
            if m < n or not np.isfinite(state.lam).all():
                fields["error"] = (f"iteration {self.k[m] if m < n else state.k}: "
                                   f"non-finite iterate")
            trajs.append(Trajectory(k=self.k[:m], eta=self.eta[:m],
                                    **{name: col[r, :m] for name, col in cols.items()},
                                    final_state=state, **fields))
        return trajs


def _theta1_quadratic(spec: ProblemSpec):
    """(H, c, const) with theta1(x) = x'Hx/2 + c'x + const, for a theta1
    with a quadratic form (LeastSquares, Quadratic), else None."""
    parts = getattr(spec.theta1, "quadratic_parts", None)
    return None if parts is None else parts()


def _theta1_value(x: np.ndarray, spec: ProblemSpec, quadratic):
    """theta1 at the rows of x: through its quadratic form, one (rows, d) @
    (d, d) product, or by theta1.value without one."""
    if quadratic is None:
        return spec.theta1.value(x)
    H, c, const = quadratic
    return np.vecdot(x, 0.5 * matmul_rows(x, H.T) + c) + const


def _theta1_subgrad(x: np.ndarray, spec: ProblemSpec, quadratic):
    """The exact subgradient of theta1 at the rows of x: H x + c through its
    quadratic form, or theta1.subgrad without one."""
    if quadratic is None:
        return spec.theta1.subgrad(x)
    H, c, _ = quadratic
    return matmul_rows(x, H.T) + c


def step_inequality_check(prev: StackedW, curr: StackedW, probe_w: StackedW,
                          g: np.ndarray, delta: np.ndarray, eta: float,
                          spec: ProblemSpec, beta: float, *, quadratic=None):
    """Signed residual of the per-iteration variational bound at the probes.

    The bound compares the linearized Lagrangian decrease against telescoping
    distance terms, the stepsize-weighted subgradient norm and the noise
    pairing term.  Must be <= 0 up to roundoff, for every probe in W.
    probe_w holds one probe, or P probes as (P, d1), (P, d2) and (P, m)
    rows.  Returns (residual, scale), (P,) arrays for P probes, with scale
    the sum of term magnitudes.  The arguments broadcast as rows: (n, 1, d)
    iterates and subgradients, an (n, 1) eta and (n, P, d) probes give
    (n, P) arrays.  theta1 is evaluated through quadratic, its (H, c, const)
    (read from spec.theta1 when not given), if it has a quadratic form.
    """
    def sq(v):
        return np.vecdot(v, v)

    if quadratic is None:
        quadratic = _theta1_quadratic(spec)
    px, py = probe_w.x, probe_w.y
    lhs = (_theta1_value(prev.x, spec, quadratic) + spec.theta2.value(curr.y)
           - (_theta1_value(px, spec, quadratic) + spec.theta2.value(py))
           + (curr - probe_w).dot(eval_F(curr, spec)))
    t1 = eta * sq(g) / 2.0
    t2 = (sq(prev.x - px) - sq(curr.x - px)) / (2.0 * eta)
    t3 = beta * (sq(spec.residual(px, prev.y)) - sq(spec.residual(px, curr.y))) / 2.0
    t4 = np.vecdot(px - prev.x, delta)
    t5 = (sq(probe_w.lam - prev.lam) - sq(probe_w.lam - curr.lam)) / (2.0 * beta)
    rhs = t1 + t2 + t3 + t4 + t5
    scale = 1.0 + abs(lhs) + abs(t1) + abs(t2) + abs(t3) + abs(t4) + abs(t5)
    return lhs - rhs, scale


def check_y_optimality(curr: StackedW, spec: ProblemSpec, draw: np.ndarray,
                       probes: int = Y_PROBE_COUNT):
    """Max signed residual of the y-update optimality inequality over probes.

    For the exact y-minimizer, th2(y_{k+1}) - th2(y') + <y_{k+1} - y',
    -B'lam_{k+1}> <= 0 for every y' in Y.  draw holds Y.sample's points,
    (probes, d2), or (n, probes, d2) for n rows of curr as (n, d) parts;
    each probe y' projects a point of draw, for a whole-space Y at the scale
    1 + ||y_{k+1}|| of its row.  Returns (max residual, scale), (n,) arrays
    for n rows.
    """
    if draw.shape[-2] != probes:
        raise ValueError(f"expected {probes} probes per row, got {draw.shape[-2]}")
    grad_term = -curr.lam @ spec.B
    th2 = spec.theta2.value(curr.y)
    scale = 1.0 + abs(th2) + np.linalg.norm(grad_term, axis=-1)
    if isinstance(spec.Y, WholeSpace):  # a ball's or a box's points have no scale
        draw = (1.0 + np.linalg.norm(curr.y, axis=-1))[..., None, None] * draw
    y_probe = spec.Y.project(draw)
    res = (th2[..., None] - spec.theta2.value(y_probe)
           + np.vecdot(curr.y[..., None, :] - y_probe, grad_term[..., None, :]))
    return np.max(res, axis=-1, initial=-np.inf), scale


def run(spec: ProblemSpec, cfg: SolverConfig, oracle=None,
        theta_star: float | None = None, record_at: np.ndarray | None = None,
        *, state: IterateState | None = None, draws: SampleBuffer | None = None):
    """Plan cfg on spec (SolverConfig.validate), execute t_max calls of the
    plan's update from zero in loop() and record the trajectory.

    Structural errors raise before any step; an error during the steps is
    returned in the partial trajectory.  record_at restricts metric rows to
    the given iteration counts (1-based); by default every iteration is
    recorded.  Objective gaps need theta_star; without it only feasibility
    is populated.

    One stream: a stochastic run presamples its draws from oracle (an oracle
    of spec.theta1), and the result is one Trajectory.  Batched: state holds
    R replications as (R, d) arrays, zero for a run from zero, and draws
    their R streams stacked (None for a variant that draws nothing); every
    step advances all R rows at once, and the result is R trajectories.
    """
    plan = cfg.validate(spec)
    one_stream = state is None
    if one_stream:
        if plan.stochastic and oracle is None:
            raise ValueError("stochastic variant needs an oracle")
        state = IterateState.zeros(spec)
        draws = oracle.presample(cfg.t_max) if (plan.stochastic and cfg.t_max) else None
    elif plan.stochastic and draws is None:
        raise ValueError("a batched stochastic run needs its stacked draws")
    out = loop(plan, state, plan.update, draws, theta_star, record_at)
    return out[0] if one_stream else out


def loop(plan: StepPlan, state: IterateState, update,
         draws: SampleBuffer | None = None, theta_star: float | None = None,
         record_at: np.ndarray | None = None) -> list[Trajectory]:
    """Advance state, one stream or R replications as (R, d) arrays, by
    t_max calls of update(state, g, eta), which advance it in place, and
    return one trajectory per replication.  A stochastic plan passes the
    stepsize and the subgradient sampled from draws at state.x, the others
    g = None and eta = NaN.  An exception in an update ends every
    replication there, with the error in its trajectory.  Every CHECK_CHUNK
    steps it flushes a checked run's chunk, then ends the run if no
    replication's lam is finite."""
    spec, cfg, stochastic = plan.spec, plan.cfg, plan.stochastic
    rows = RecordedRows(state, cfg.t_max, record_at)
    checks = CheckedSteps(state, plan) if cfg.check_invariants else None
    # the stepsizes of steps 1..t_max, computed at once
    etas = cfg.eta(np.arange(1, cfg.t_max + 1), spec).tolist() if stochastic else None
    error = None
    for k in range(cfg.t_max):
        eta = etas[k] if stochastic else math.nan
        try:
            g = draws.subgradient(spec.theta1, state.x, k) if stochastic else None
            update(state, g, eta)
        except Exception as exc:  # return the partial trajectories with the error
            error = f"iteration {k + 1}: {exc}"
            break
        rows.record(state, eta)
        if checks is not None:
            checks.store(state, g, eta)
        if (k + 1) % CHECK_CHUNK == 0:
            if checks is not None:
                checks.flush()
            # lam sums every residual, so it stays non-finite once an
            # iterate was; a finite sum of its entries is the common case
            lam = state.lam
            if (not math.isfinite(np.add.reduce(lam, axis=None))
                    and not np.isfinite(lam).all(axis=-1).any()):
                break
    if checks is not None:  # the steps of the last chunk
        checks.flush()

    finals = ([state] if state.x.ndim == 1
              else [state.replication(r) for r in range(len(state.x))])
    return rows.trajectories(spec, cfg.rho, theta_star, finals, error,
                             None if checks is None else checks.records)


class CheckedSteps:
    """The steps of one checked loop that await their invariant checks: the
    iterate after each step, in (CHECK_CHUNK + 1, R, d) buffers allocated
    before the loop whose slot 0 holds the iterate before the chunk's first
    step, and each step's sampled subgradient (stochastic runs only) and
    stepsize.  A one-stream state counts as R = 1.  The loop calls flush()
    every CHECK_CHUNK steps and when it ends; one _run_checks call then
    checks the stored steps of every replication still checked, a rectangle
    of steps by replications per group, with replication r's record
    records[r]; a replication's checks end after its first non-finite step.
    Every replication shares the probes of one generator, rng, so a run
    draws as many whatever R is.  Every check pass evaluates
    theta1 through the plan's quadratic form, if it has one."""

    def __init__(self, state: IterateState, plan: StepPlan):
        R = 1 if state.x.ndim == 1 else len(state.x)
        lead = (CHECK_CHUNK + 1, R)
        spec = plan.spec
        self.plan = plan
        self.w = StackedW(np.empty(lead + (spec.d1,)), np.empty(lead + (spec.d2,)),
                          np.empty(lead + (spec.m,)))
        self.g = np.empty((CHECK_CHUNK, R, spec.d1)) if plan.stochastic else None
        self.eta = np.empty(CHECK_CHUNK)
        self.records = [InvariantRecord() for _ in range(R)]
        self.rng = np.random.default_rng(PROBE_SEED)
        self.checked = list(range(R))
        self.k0 = state.k  # the k of slot 0
        self.n = 0         # steps stored
        self._put(0, state)

    def _put(self, slot: int, state: IterateState):
        w = self.w
        w.x[slot], w.y[slot], w.lam[slot] = state.x, state.y, state.lam

    def store(self, state: IterateState, g: np.ndarray | None, eta: float):
        """Store step state.k; the loop flushes at most CHECK_CHUNK steps."""
        self.n += 1
        self._put(self.n, state)
        if self.g is not None:
            self.g[self.n - 1] = g
        self.eta[self.n - 1] = eta

    def flush(self):
        """Check the stored steps and start the next chunk after them."""
        n, w = self.n, self.w
        if not n:
            return
        after = w[1:n + 1]
        finite = (np.isfinite(after.x).all(axis=-1) & np.isfinite(after.y).all(axis=-1)
                  & np.isfinite(after.lam).all(axis=-1))
        # per replication checked, its steps to check: up to its first
        # non-finite one, which is checked too
        all_finite = finite.all(axis=0)
        last = np.where(all_finite, n, np.argmin(finite, axis=0) + 1)
        if self.checked:  # none after every replication's first non-finite step
            _run_checks(self, last)
        self.checked = [r for r in self.checked if all_finite[r]]
        for part in (w.x, w.y, w.lam):
            part[0] = part[n]
        self.k0 += n
        self.n = 0


class InvariantRecord:
    """What the checks of one run saw: a (k, name, residual) log entry per
    violating probe and, per invariant, the worst residual and the probe
    count."""

    def __init__(self):
        self.log = []
        self.worst = dict.fromkeys(INVARIANTS, -math.inf)
        self.probes = dict.fromkeys(INVARIANTS, 0)

    def add(self, name: str, probes: int, worst: float):
        """probes more points of the check name, whose worst residual was
        worst; a NaN residual stays (max(nan, w) is nan, max(w, nan) is w)."""
        self.probes[name] += probes
        self.worst[name] = math.nan if math.isnan(worst) else max(self.worst[name], worst)

    def fields(self) -> dict:
        ran = [name for name in INVARIANTS if self.probes[name]]
        # the checks note a chunk one invariant at a time; the log is in
        # (k, INVARIANTS order, probe) order
        order = {name: i for i, name in enumerate(INVARIANTS)}
        return {"invariant_log": sorted(self.log, key=lambda e: (e[0], order[e[1]])),
                "max_invariant_residual": float(np.max([0.0, *self.worst.values()])),
                "invariant_worst": {name: self.worst[name] for name in ran},
                "invariant_probes": dict(self.probes)}


def _run_checks(chunk: CheckedSteps, steps: np.ndarray):
    """All enabled per-iteration invariants at the stored steps of one
    chunk, for each replication r of chunk.checked at its first steps[r]
    steps, into chunk.records[r].  The probes are drawn once, an array per
    kind whose row j step k0 + 1 + j of every replication reads, scaled per
    row after the draw.  A group of replications is one rectangle of at most
    CHECK_ROWS rows, row (i, j) step k0 + 1 + j of replication group[i] for
    all n steps of the chunk.  Each check runs over all its rows and probes
    at once, its results reduced once per group over the rows of the mask
    valid (past its last step, a replication that died in the chunk has
    rows): the worst residual per replication, and a log entry per
    violation."""
    plan, w, g, records, rng = chunk.plan, chunk.w, chunk.g, chunk.records, chunk.rng
    spec, beta = plan.spec, plan.beta
    n = int(steps[chunk.checked].max())
    y_draw = spec.Y.sample(rng, size=(n, Y_PROBE_COUNT))
    if g is not None:
        size = (n, PROBE_COUNT)
        probe_x = spec.X.project(spec.X.sample(rng, size=size))
        probe_w = StackedW(spec.X.project(spec.X.sample(rng, size=size)),
                           spec.Y.project(spec.Y.sample(rng, size=size)),
                           rng.standard_normal((*size, spec.m)))
    per_group = max(1, CHECK_ROWS // CHECK_CHUNK)
    for first in range(0, len(chunk.checked), per_group):
        group = chunk.checked[first:first + per_group]
        valid = np.arange(n) < steps[group][:, None]
        # row i * n + j of the flat rows is row (i, j) of the rectangle
        r = np.repeat(group, n)
        j = np.tile(np.arange(n), len(group))
        k = chunk.k0 + 1 + j
        prev, curr = w[j, r], w[j + 1, r]

        def note(name, res, worst, violated, probes=None):
            """One check at the group's rows: its residuals res, the values
            that enter the worst residual and the violation flags, each
            (rows,) or (rows, P) with a column per probe; probes counts the
            points behind each row's single reduced residual."""
            res, worst, violated = (np.reshape(a, (len(k), -1))
                                    for a in (res, worst, violated))
            per_row = res.shape[1] if probes is None else probes
            # np.max, unlike max, keeps a NaN residual
            rep_worst = np.where(valid, worst.max(axis=1).reshape(valid.shape),
                                 -np.inf).max(axis=1)
            for rep, count, value in zip(group, steps[group].tolist(), rep_worst.tolist()):
                records[rep].add(name, count * per_row, value)
            violated = violated & valid.reshape(-1, 1)
            if violated.any():
                for i, p in zip(*np.nonzero(violated)):
                    records[r[i]].log.append((int(k[i]), name, float(res[i, p])))

        # dual-update identity: exact by construction
        dual_res = np.linalg.norm(
            curr.lam - prev.lam + beta * spec.residual(curr.x, curr.y), axis=-1)
        # each flag is "not res <= tol", so that a NaN residual is a violation
        note("dual-identity", dual_res, dual_res,
             ~(dual_res <= 1e-12 * (1.0 + np.linalg.norm(curr.lam, axis=-1))))

        # y-optimality, every replication's step j at the points of row j
        yres, yscale = check_y_optimality(curr, spec, np.tile(y_draw, (len(group), 1, 1)),
                                          probes=Y_PROBE_COUNT)
        note("y-optimality", yres, yres / yscale, ~(yres <= CHECK_TOL * yscale),
             probes=Y_PROBE_COUNT)
        if g is None:
            continue

        # the rows as (rows, 1, d) parts, against (rows, P, d) probes
        gr, e = g[j, r], chunk.eta[j][:, None]
        prev_c, curr_c = prev[:, None], curr[:, None]
        # 3-points relation at the realized x-update
        v = spec.b + prev.lam / beta - prev.y @ spec.B.T
        g_l = gr + beta * ((curr.x @ spec.A.T - v) @ spec.A)
        ok, res = three_points_check(curr_c.x, prev_c.x, probe_x[j], g_l[:, None],
                                     1.0 / e, tol=CHECK_TOL)
        note("three-points", res, res, ~ok)
        # per-iteration variational bound at random probes, lam's at scale
        # 1 + ||lam_{k+1}||; delta = g - the exact subgradient at prev.x
        delta = gr - _theta1_subgrad(prev.x, spec, plan.quadratic)
        probes = probe_w[j]
        probes.lam[...] *= (1.0 + np.linalg.norm(curr.lam, axis=-1))[:, None, None]
        res, scale = step_inequality_check(prev_c, curr_c, probes, gr[:, None],
                                           delta[:, None], e, spec, beta,
                                           quadratic=plan.quadratic)
        note("step-inequality", res, res / scale, ~(res <= CHECK_TOL * scale))
