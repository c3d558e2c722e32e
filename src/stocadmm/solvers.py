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
builds once as a closure over those facts.  step() applies it, to one
iterate or to R replications as (R, d) rows.

loop() is the solver loop of every run and takes a plan, so no run reaches
it unvalidated.  The replication count alone picks the shape of its state
(IterateState.zeros): 1-D arrays for one replication, (R, d) arrays for R >
1, with the draws of oracle.presample_streams in the same shape.  It takes
the update of a step, the plan's (from run() and from the identity-split
entry kernels.admm_identity_split alike), and owns the rest:
the stepsize, the draw, the capture of a step's error and the recorded rows
(RecordedRows), whose metrics are computed once, after the loop.  A checked
loop stores each step's iterate, subgradient and stepsize too (CheckedSteps).
Every CHECK_CHUNK steps the loop checks the invariants of the chunk, for
every replication still checked in one pass, and ends the run once no
replication is finite.

Three of the four invariants are checked exactly, one value per step: the
dual-update identity; y-optimality, whose supremum over Y is a Fenchel-Young
gap through theta2's conjugate (check_y_optimality); and the 3-points
relation of the x-update, whose supremum over X is a support function
(prox.three_points_check).  Where such a supremum is infinite off the
optimum, over a whole-space set, it is taken over the origin-centered ball
of radius rho = 1 + ||row||, the norm of the row's own y_{k+1} or x_{k+1},
which holds that iterate.  The step inequality is sampled at PROBE_COUNT
random points a step.  invariant_probes counts, per check, the points its
residuals were evaluated at: one a step for an exact check.
"""

from __future__ import annotations

import dataclasses
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


# invariant checks: their names, random probe points per step of the one
# sampled check (step-inequality; the others are exact), tolerance of the
# signed residuals, seed of the probe generator, steps per chunk of the loop
# (one check pass, and one test whether any replication is finite) and most
# (step, replication) rows one group of a pass evaluates at once.  Longer
# chunks and larger groups cost fewer passes but more memory: a 64-step
# chunk raised the peak memory of a checked run by 7%.
INVARIANTS = ("dual-identity", "y-optimality", "three-points", "step-inequality")
PROBE_COUNT = 5
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

    The plan also takes the three exact facts of the constraint that the
    spec read at construction: B = s*I (required), A = I (A_identity) and
    b = 0 (b_zero).  For a scalar r with A = I, G_rest = -beta*A'A is the
    scalar -beta, and a stochastic H0 = beta*I is isotropic: eig is its one
    eigenvalue beta, a 0-d array, and the basis None, so no
    eigendecomposition is made and the x-update is the projection of one
    point onto X (prox.min_quadratic_over_set).  From these
    facts and the variant it builds the run's update once, update(state, g,
    eta) (_build_update): a closure that holds them, and with them the 0-d
    scalars and the fixed shift's eigenvalues, and leaves out each product
    they make trivial.  step() and loop() call it.  y_update is the y-update
    as a map of its point v.  theta1's (H, c, const), None without a
    quadratic form, is read once, for the x-update and the invariant checks,
    and with it the declared mu and L are checked against H's extreme
    eigenvalues (_check_curvature).
    takes_identity_split, an unchecked stochastic run with A = I, B = -I and
    b = 0, selects the entry kernels.admm_identity_split, which runs this
    same update.  cfg is a copy of the config the plan was built from.
    """

    def __init__(self, spec: ProblemSpec, cfg: SolverConfig):
        self.spec, self.cfg = spec, dataclasses.replace(cfg)
        self.beta = beta = cfg.beta
        self.stochastic = cfg.variant == "stochastic"
        # B = s*I must hold exactly: every step multiplies by s in place of
        # B, so an entry off s*I, however small, would be ignored
        self.s = s = spec.B_scale
        if s is None:
            raise SolverError(
                "y-update reduces to a prox only for B = s*I exactly; use an inner "
                "solver for general B"
            )
        try:
            self.y_prox = prox_map(spec.theta2, spec.Y, beta * s * s)
        except ValueError as exc:
            raise SolverError(str(exc)) from None
        self.A_identity, self.b_zero = spec.A_identity, spec.b_zero
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
        if H0 is None:
            self.eig = None
        elif self.stochastic and self.A_identity:  # H0 = beta*I, isotropic
            self.eig = (np.array(beta), None)
        else:
            self.eig = np.linalg.eigh(H0)
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


def _build_update(plan: StepPlan):
    """The update(state, g, eta) of plan's steps, which advances state in
    place by one x-update, y-update and dual step (see step()).

    A closure over the plan's facts, read here once: beta = 1, s = -1, b = 0,
    A = I, stochastic, the kind of G_rest and the prox form.  Each part of
    the step branches on them.  Its formulas are those of the problem, rhs =
    beta A'v - c + shift x_k + G_rest x_k - g with v = b + lam/beta - B y_k,
    with every product and sum that the facts make trivial left out: B y is
    s*y, and for s = -1 a sum or difference with -y is the difference or
    sum with y; A v is v for A = I; a product with beta or a quotient by it
    is its operand for beta = 1, so that the scalar G_rest = -beta of A = I
    is a difference with x; b is left out for b = 0, as is c for a
    stochastic plan (c = 0) and shift x_k for a fixed shift of 0 (that of
    the deterministic variant and of a matrix G).  Each gives the values of
    the operation it replaces, and every other operation keeps its order.
    lam/beta is formed once, for the x-update's v and the y-update's point
    A x_{k+1} - b - lam/beta.  The products with A, A' and G_rest go
    through ndarray.dot (see the functions module).

    The x-solve is the prox form or the eigenbasis solve over X
    (prox.min_quadratic_over_set, which takes the solve of X's kind).  A
    shift fixed for the run, that of every variant but the stochastic one,
    is added to the eigenvalues here, once, and passed as shifted; the solve
    adds a stochastic step's 1/eta_k itself.  The x-solve and the y-update
    go through the module names min_quadratic_over_set and solve_y_update,
    looked up at every call.
    """
    spec, eig, H0, c = plan.spec, plan.eig, plan.H0, plan.c
    A, At, b, X = spec.A, spec.A.T, spec.b, spec.X
    unit, minus_y = plan.beta == 1.0, plan.s == -1.0
    A_identity, b_zero, stochastic = plan.A_identity, plan.b_zero, plan.stochastic
    # the scalars as 0-d arrays, which a ufunc takes as it takes an array, for
    # about 0.3 us less per operation than a Python float, with the same bits
    beta, s = np.array(plan.beta), np.array(plan.s)
    G = plan.G_rest
    G_matrix = isinstance(G, np.ndarray)
    G_scalar = G is not None and not G_matrix
    if G_scalar:
        G = np.array(G)
    Gt = G.T if G_matrix else None
    # a stochastic step's shift is 1/eta_k; a fixed one is added to the
    # eigenvalues once, and to rhs only when it is not zero
    shift = None if stochastic else np.array(plan.shift)
    shift_nonzero = not stochastic and plan.shift != 0.0
    shifted = None if eig is None or stochastic else eig[0] + plan.shift
    prox = spec.theta1.prox if plan.prox else None

    def update(state, g, eta):
        x, lam = state.x, state.lam
        lam_beta = lam if unit else lam / beta
        v = lam_beta if b_zero else b + lam_beta
        v = v + state.y if minus_y else v - s * state.y
        rhs = v if A_identity else v.dot(A)
        if not unit:
            rhs = beta * rhs
        if stochastic:
            if g is None:
                raise ValueError("a stochastic step needs a sampled subgradient g")
            if not eta > 0:
                raise ValueError("eta must be positive")
            inv_eta = np.array(1.0 / eta)
            x_next = min_quadratic_over_set(H0, eig, inv_eta, rhs + inv_eta * x - g, X,
                                            x_init=x)
        else:
            rhs = rhs - c
            if shift_nonzero:
                rhs = rhs + shift * x
            if G_scalar:
                rhs = rhs - x if unit else rhs + G * x
            elif G_matrix:
                rhs = rhs + x.dot(Gt)
            x_next = (prox(rhs / shift, shift) if prox is not None else
                      min_quadratic_over_set(H0, eig, shift, rhs, X, x_init=x,
                                             shifted=shifted))
        Ax = x_next if A_identity else x_next.dot(At)
        y_next = solve_y_update(Ax - lam_beta if b_zero else Ax - b - lam_beta, plan)
        residual = Ax - y_next if minus_y else Ax + s * y_next
        if not b_zero:
            residual = residual - b
        state.advance(x_next, y_next, lam - (residual if unit else beta * residual))

    return update


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
    # per invariant that ran, its worst residual (NaN once a residual was);
    # per invariant, the number of points it evaluated (one a step if exact)
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
# unchunked, the (points, n) residual of a 4000-row run raised its peak
# memory.  At the presets' default n = 200 and d = 20, a chunk's (64, d) @
# (d, n) product is 256 000 multiply-adds, under OpenBLAS's bound for a
# one-thread gemm (m*n*k <= 65 536 * 4), so a process not pinned to one CPU
# does not wake its BLAS threads for it.  At 256 they stalled the pass: on
# linearized-dense's config, unpinned on a 2-vCPU Xeon, 6.5 to 283 ms per
# pass at 256 and 8.6 to 16.2 ms at 64 (three runs in each of three
# processes).  A process started on one CPU runs one BLAS thread, and
# there the smaller chunks cost 8.0 against 6.3 ms per pass
METRIC_CHUNK = 64


class RecordedRows:
    """The rows of one loop: the stepsize and the three running sums after
    step k, for each k of record_at within 1..t_max (every k by default),
    stored in one buffer allocated before the loop, each row one copy of
    the state's sums (x shifted, x aligned, y side by side, as
    IterateState.sums holds them): (N, 2*d1 + d2) for a state of one
    replication, (R, N, 2*d1 + d2) for one of R.
    record() only stores; trajectories() divides every row by its k, which
    gives the averages, and computes their metrics once, after the loop."""

    def __init__(self, state: IterateState, t_max: int, record_at=None):
        k = np.arange(1, t_max + 1)
        self.k = k if record_at is None else k[np.isin(k, record_at)]
        self.eta = np.empty(len(self.k))
        d1, sums = state.x.shape[-1], state.sums
        self.buf = np.empty(sums.shape[:-1] + (len(self.k), sums.shape[-1]))
        # the buffer with its row axis first, so that row n is by_row[n]
        self.by_row = np.moveaxis(self.buf, -2, 0)
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
        self.by_row[n] = state.sums
        self.n = n + 1
        self.due = self.ks[n + 1] if n + 1 < len(self.ks) else 0

    def trajectories(self, spec: ProblemSpec, rho: float, theta_star: float | None,
                     final_states: list, error: str | None = None,
                     checks: CheckedSteps | None = None) -> list[Trajectory]:
        """One trajectory per replication from the rows stored so far, with
        final_states[r] the final state of replication r, error that of the
        loop and checks the CheckedSteps of a checked loop, which holds what
        the checks of replication r saw.
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
            fields = {"error": error,
                      **(checks.fields(r) if checks is not None else {})}
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


def check_y_optimality(curr: StackedW, spec: ProblemSpec):
    """Fenchel-Young gap of the y-update's optimality relation at its rows.

    For the exact y-minimizer, th2(y_{k+1}) - th2(y') + <y_{k+1} - y',
    -B'lam_{k+1}> <= 0 for every y' in Y, which is z = B'lam_{k+1} in
    d th2(y_{k+1}) + N_Y(y_{k+1}).  The supremum over y' of the left side is
    the gap th2(y) + (th2 + i_Y)*(z) - <y, z> >= 0, zero iff the relation
    holds, with the conjugate in closed form (theta2.conjugate); over a
    whole-space Y it is taken over the ball of radius rho = 1 + ||y_{k+1}||
    of the row.  curr holds one point, or rows as (..., d) parts.  Returns
    (gap, scale), arrays of the rows' leading shape.
    """
    z = spec.B_transpose(curr.lam)
    th2 = spec.theta2.value(curr.y)
    scale = 1.0 + abs(th2) + np.linalg.norm(z, axis=-1)
    rho = 1.0 + np.linalg.norm(curr.y, axis=-1)
    gap = th2 + spec.theta2.conjugate(z, spec.Y, rho) - np.vecdot(curr.y, z)
    return gap, scale


def run(spec: ProblemSpec, cfg: SolverConfig, draws: SampleBuffer | None = None,
        theta_star: float | None = None, record_at: np.ndarray | None = None,
        replications: int = 1) -> list[Trajectory]:
    """Plan cfg on spec (SolverConfig.validate), execute t_max calls of the
    plan's update in loop() from the zero state of R = replications
    replications (IterateState.zeros) and return one trajectory per
    replication.

    Structural errors raise before any step; an error during the steps is
    returned in the partial trajectories.  A stochastic plan needs draws,
    its R streams' presampled draws (oracle.presample_streams: one stream's
    own for R = 1, R stacked otherwise); the other variants draw nothing.
    record_at restricts metric rows to the given iteration counts
    (1-based); by default every iteration is recorded.  Objective gaps need
    theta_star; without it only feasibility is populated.
    """
    plan = cfg.validate(spec)
    return loop(plan, IterateState.zeros(spec, replications), plan.update, draws,
                theta_star, record_at)


def loop(plan: StepPlan, state: IterateState, update,
         draws: SampleBuffer | None = None, theta_star: float | None = None,
         record_at: np.ndarray | None = None) -> list[Trajectory]:
    """Advance state, one replication (1-D arrays) or R as (R, d) arrays,
    by t_max calls of update(state, g, eta), which advance it in place, and
    return one trajectory per replication (IterateState.replications).  A
    stochastic plan passes the stepsize and the subgradient sampled from
    draws at state.x, the others g = None and eta = NaN.  An exception in an
    update ends every replication there, with the error in its trajectory.
    Every CHECK_CHUNK steps it flushes a checked run's chunk, then ends the
    run if no replication's lam is finite.  A stochastic plan without draws,
    or with the draws of another number of streams than state has
    replications, raises ValueError before any step."""
    spec, cfg, stochastic = plan.spec, plan.cfg, plan.stochastic
    R = 1 if state.x.ndim == 1 else len(state.x)
    if stochastic and (draws is None or draws.streams not in (None, R)):
        raise ValueError("a stochastic run needs its draws" if draws is None else
                         f"the draws' stream count {draws.streams} differs from the "
                         f"state's replication count {R}")
    rows = RecordedRows(state, cfg.t_max, record_at)
    checks = CheckedSteps(state, plan) if cfg.check_invariants else None
    # the stepsizes of steps 1..t_max, computed at once
    etas = cfg.eta(np.arange(1, cfg.t_max + 1), spec).tolist() if stochastic else None
    # a non-finite iterate is not an error of numpy's: the rows, the checks
    # and the end of the loop find it and end its replication there
    error = None
    with np.errstate(all="ignore"):
        for k in range(cfg.t_max):
            eta = etas[k] if stochastic else math.nan
            try:
                g = (draws.subgradient(spec.theta1, state.x, k) if stochastic
                     else None)
                update(state, g, eta)
            except Exception as exc:  # the partial trajectories, with the error
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
        return rows.trajectories(spec, cfg.rho, theta_star, state.replications(),
                                 error, checks)


class CheckedSteps:
    """The steps of one checked loop that await their invariant checks, in
    buffers allocated before the loop with the replication axis first: the
    iterate before the chunk's first step and after each of its steps, (R,
    CHECK_CHUNK + 1, d), each step's sampled subgradient (stochastic runs
    only), (R, CHECK_CHUNK, d1), and its stepsize, where R counts the
    state's replications (IterateState.replications).  The loop calls
    flush() every CHECK_CHUNK steps and when it ends; one _run_checks call
    then checks the stored steps of every
    replication still checked; a replication's checks end after its first
    non-finite step.  What the checks saw is kept per replication r and
    invariant (INVARIANTS order): worst[r] the worst residual, which keeps a
    NaN, probes[r] the point count, and logs[r] a (k, name, residual) entry
    per violating point (a step, for an exact check).  Every replication
    shares the step inequality's probes of one generator, rng, so a run
    draws as many whatever R is.  Every check pass evaluates theta1 through
    the plan's quadratic form, if it has one."""

    def __init__(self, state: IterateState, plan: StepPlan):
        R = len(state.replications())
        spec = plan.spec
        self.plan = plan
        self.w = StackedW(*(np.empty((R, CHECK_CHUNK + 1, d))
                            for d in (spec.d1, spec.d2, spec.m)))
        self.g = np.empty((R, CHECK_CHUNK, spec.d1)) if plan.stochastic else None
        self.eta = np.empty(CHECK_CHUNK)
        self.worst = np.full((R, len(INVARIANTS)), -np.inf)
        self.probes = np.zeros((R, len(INVARIANTS)), dtype=int)
        self.logs = [[] for _ in range(R)]
        self.rng = np.random.default_rng(PROBE_SEED)
        self.checked = list(range(R))
        self.k0 = state.k  # the k of slot 0
        self.n = 0         # steps stored
        self._put(0, state)

    def _put(self, slot: int, state: IterateState):
        w = self.w
        w.x[:, slot], w.y[:, slot], w.lam[:, slot] = state.x, state.y, state.lam

    def store(self, state: IterateState, g: np.ndarray | None, eta: float):
        """Store step state.k; the loop flushes at most CHECK_CHUNK steps."""
        self.n += 1
        self._put(self.n, state)
        if self.g is not None:
            self.g[:, self.n - 1] = g
        self.eta[self.n - 1] = eta

    def flush(self):
        """Check the stored steps and start the next chunk after them."""
        n, w = self.n, self.w
        if not n:
            return
        after = w[:, 1:n + 1]
        finite = (np.isfinite(after.x).all(axis=-1) & np.isfinite(after.y).all(axis=-1)
                  & np.isfinite(after.lam).all(axis=-1))
        # per replication checked, its steps to check: up to its first
        # non-finite one, which is checked too
        all_finite = finite.all(axis=1)
        last = np.where(all_finite, n, np.argmin(finite, axis=1) + 1)
        if self.checked:  # none after every replication's first non-finite step
            _run_checks(self, last)
        self.checked = [r for r in self.checked if all_finite[r]]
        for part in (w.x, w.y, w.lam):
            part[:, 0] = part[:, n]
        self.k0 += n
        self.n = 0

    def fields(self, r: int) -> dict:
        """Replication r's invariant_log, in (k, INVARIANTS order, probe)
        order, and per invariant its worst residual, if it ran, and its
        probe count."""
        order = {name: i for i, name in enumerate(INVARIANTS)}
        probes = dict(zip(INVARIANTS, self.probes[r].tolist()))
        return {"invariant_log": sorted(self.logs[r], key=lambda e: (e[0], order[e[1]])),
                "invariant_worst": {name: value for name, value
                                    in zip(INVARIANTS, self.worst[r].tolist())
                                    if probes[name]},
                "invariant_probes": probes}


def _run_checks(chunk: CheckedSteps, steps: np.ndarray):
    """All enabled per-iteration invariants at the stored steps of one
    chunk, for each replication r of chunk.checked at its first steps[r]
    steps.  The dual identity, y-optimality and three-points are exact: each
    is one value per step, its supremum over the set in closed form.  The
    step inequality is sampled: its probes are drawn once, an (n, P, d)
    array per part whose row j step k0 + 1 + j of every replication reads.
    A group of at most CHECK_ROWS // CHECK_CHUNK replications takes its
    previous and current iterates as (G, n, d) blocks of the buffers, which
    the step inequality broadcasts as (G, n, 1, d) against its probes, with
    the constraint's exact facts (ProblemSpec).  The group's checks are then
    reduced together over the steps of the mask valid (past its last step, a
    replication that died in the chunk has steps): one stacked maximum gives
    each replication's worst residual per check, one test finds any
    violation, and log entries are built only for one."""
    plan, w, g, rng = chunk.plan, chunk.w, chunk.g, chunk.rng
    spec, beta = plan.spec, plan.beta
    unit, s = beta == 1.0, spec.B_scale
    n = int(steps[chunk.checked].max())
    if g is not None:
        size = (n, PROBE_COUNT)
        probe_w = StackedW(spec.X.project(spec.X.sample(rng, size=size)),
                           spec.Y.project(spec.Y.sample(rng, size=size)),
                           rng.standard_normal((*size, spec.m)))
    # the checks that run, and the points behind each step's residual
    names = INVARIANTS if g is not None else INVARIANTS[:2]
    per_step = np.array((1, 1, 1, PROBE_COUNT)[:len(names)])
    eta = chunk.eta[:n, None]  # step j's stepsize against its (G, n, d) rows
    per_group = max(1, CHECK_ROWS // CHECK_CHUNK)
    for first in range(0, len(chunk.checked), per_group):
        group = chunk.checked[first:first + per_group]
        valid = np.arange(n) < steps[group][:, None]
        prev, curr = w[group, :n], w[group, 1:n + 1]
        # per check, in the order of names: its residuals as (G, n, columns),
        # a column per point (one for an exact check); each step's value
        # that enters the worst residual; and its violation flags, each "not
        # res <= tol", so that a NaN residual is a violation
        res, worst, bad = [], [], []

        # dual-update identity: exact by construction, to 1e-12 at the scale
        # 1 + ||lam_{k+1}||, which the step inequality's lam probes take too
        lam_scale = 1.0 + np.linalg.norm(curr.lam, axis=-1)
        dual = np.linalg.norm(curr.lam - prev.lam + beta * spec.residual(curr.x, curr.y),
                              axis=-1)
        res.append(dual[..., None])
        worst.append(dual)
        bad.append(~(dual <= 1e-12 * lam_scale)[..., None])

        gap, yscale = check_y_optimality(curr, spec)
        res.append(gap[..., None])
        worst.append(gap / yscale)
        bad.append(~(gap <= CHECK_TOL * yscale)[..., None])

        if g is not None:
            gr = g[group, :n]
            # 3-points relation at the realized x-update: g_l = g + beta A'(A
            # x_{k+1} - v), v = b + lam_k/beta - B y_k
            v = prev.lam if unit else prev.lam / beta
            if not spec.b_zero:
                v = spec.b + v
            v = v + prev.y if s == -1.0 else v - s * prev.y
            # the gradient A'(A x_{k+1} - v) of the penalty ||A x - v||^2 / 2
            pen_grad = (curr.x - v if spec.A_identity
                        else matmul_rows(matmul_rows(curr.x, spec.A.T) - v, spec.A))
            g_l = gr + (pen_grad if unit else beta * pen_grad)
            ok, tp = three_points_check(curr.x, prev.x, g_l, 1.0 / eta, spec.X,
                                        tol=CHECK_TOL)
            res.append(tp[..., None])
            worst.append(tp)
            bad.append(~ok[..., None])
            # per-iteration variational bound at random probes, lam's at
            # scale lam_scale; delta = g - the exact subgradient at prev.x
            delta = gr - _theta1_subgrad(prev.x, spec, plan.quadratic)
            probes = StackedW(probe_w.x, probe_w.y,
                              probe_w.lam * lam_scale[..., None, None])
            prev_c, curr_c = prev[..., None, :], curr[..., None, :]
            si, scale = step_inequality_check(prev_c, curr_c, probes, gr[..., None, :],
                                              delta[..., None, :], eta, spec, beta,
                                              quadratic=plan.quadratic)
            res.append(si)
            # np.max, unlike max, keeps a NaN residual
            worst.append((si / scale).max(axis=-1))
            bad.append(~(si <= CHECK_TOL * scale))

        # per replication and check, its worst residual over the valid steps
        rep_worst = np.where(valid, np.stack(worst), -np.inf).max(axis=2).T
        ran = slice(len(names))
        chunk.worst[group, ran] = np.maximum(chunk.worst[group, ran], rep_worst)
        chunk.probes[group, ran] += steps[group][:, None] * per_step
        valid = valid[..., None]
        if (np.concatenate(bad, axis=-1) & valid).any():
            for name, a, flags in zip(names, res, bad):
                for i, j, p in zip(*np.nonzero(flags & valid)):
                    chunk.logs[group[i]].append((chunk.k0 + 1 + int(j), name,
                                                 float(a[i, j, p])))
