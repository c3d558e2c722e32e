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
constraint (B = s*I, A = I, b = 0) and the update the run takes.  step()
applies it, to one iterate or to R replications as (R, d) rows.

loop() is the solver loop of every run and takes a plan, so no run reaches
it unvalidated.  It takes the update of a step, step() from run() or the
identity-split update of kernels.admm_identity_split, and owns the rest:
the stepsize, the draw, the capture of a step's error and the recorded rows
(RecordedRows), whose metrics are computed once, after the loop.  A checked
loop stores each step's iterate, subgradient and stepsize too (CheckedSteps)
and checks the invariants once every CHECK_CHUNK steps, for a whole chunk of
steps and every replication still checked in one pass.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .functions import ZeroFunction, matmul_rows
from .oracle import SampleBuffer
from .problem import IterateState, ProblemSpec, StackedW, eval_F, err_rho
from .prox import min_quadratic_over_set, solve_y_update, three_points_check
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
# seed of the probe generator, steps per check pass and most (step,
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
    if isinstance(spec.Y, Ball) and not isinstance(spec.theta2, ZeroFunction):
        raise SolverError("y-update over a ball Y is exact only for theta2 = 0, "
                          f"not {type(spec.theta2).__name__}")
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

    The plan also reads three exact facts of the constraint off the spec
    once: B = s*I (required), A = I (A_identity) and b = 0 (b_zero).  For a
    scalar r with A = I, G_rest = -beta*A'A is the scalar -beta.  step()
    replaces each product these facts make trivial by the scalar operation
    that gives the same values.  theta1's (H, c, const), None without a
    quadratic form, is read once, for the x-update and the invariant checks.
    takes_identity_split, an unchecked stochastic run with A = I, B = -I and
    b = 0, selects the update of kernels.admm_identity_split.  cfg is a copy
    of the config the plan was built from.
    """

    def __init__(self, spec: ProblemSpec, cfg: SolverConfig):
        self.spec, self.cfg = spec, dataclasses.replace(cfg)
        self.beta = beta = cfg.beta
        self.stochastic = cfg.variant == "stochastic"
        self.s = _y_prox_scale(spec)
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
        # the whole-space and ball solves divide by the eigenvalues; projected
        # gradient over a box only needs a nonzero top eigenvalue
        low = 0 if isinstance(spec.X, (WholeSpace, Ball)) else -1
        if (self.shift == 0.0
                and self.eig[0][low] <= 1e-12 * max(abs(self.eig[0][-1]), 1.0)):
            raise SolverError(f"x-update quadratic is singular over "
                              f"{type(spec.X).__name__} X")

    def facts(self) -> dict:
        """The facts of the constraint the steps use, for the run's report."""
        return {"A_identity": self.A_identity, "b_zero": self.b_zero,
                "B_scale": self.s}


def step(state: IterateState, plan: StepPlan, g: np.ndarray | None = None,
         eta: float = math.nan) -> IterateState:
    """One iteration of the planned variant, in place: x-update, y-update,
    dual ascent.  A stochastic plan takes the sampled subgradient g at
    state.x and the stepsize eta; the other variants take neither.  A state
    of R replications with (R, d) arrays (and g with R rows) advances every
    replication by the same formulas, written for rows.

    B y is s*y, A v is v for a plan with A = I, and b is left out for
    b = 0, as is c for a stochastic plan (c = 0): each gives the values of
    the matrix product, the sum or the difference it replaces, and every
    other operation keeps its order.  lam/beta is formed once, for the
    x-update's v and the y-update's point."""
    spec, beta, x = plan.spec, plan.beta, state.x
    shift = plan.shift
    if shift is None:
        if g is None:
            raise ValueError("a stochastic step needs a sampled subgradient g")
        if not eta > 0:
            raise ValueError("eta must be positive")
        shift = 1.0 / eta
    # v = b + lam/beta - B y_k
    lam_beta = state.lam / beta
    v = lam_beta if plan.b_zero else spec.b + lam_beta
    v = v - plan.s * state.y
    rhs = beta * (v if plan.A_identity else v @ spec.A)
    if not plan.stochastic:  # the stochastic model of theta1 is linear: c = 0
        rhs = rhs - plan.c
    rhs = rhs + shift * x
    G = plan.G_rest
    if G is not None:
        rhs = rhs + (x @ G.T if isinstance(G, np.ndarray) else G * x)
    if g is not None:
        rhs = rhs - g
    if plan.prox:
        x_next = spec.theta1.prox(rhs / shift, shift)
    else:
        x_next = min_quadratic_over_set(plan.H0, plan.eig, shift, rhs, spec.X,
                                        x_init=x)
    Ax_next = x_next if plan.A_identity else x_next @ spec.A.T
    # the y-update's point A x_{k+1} - b - lam/beta
    y_next = solve_y_update((Ax_next if plan.b_zero else Ax_next - spec.b) - lam_beta,
                            spec, beta, plan.s)
    residual = Ax_next + plan.s * y_next
    if not plan.b_zero:
        residual = residual - spec.b
    state.advance(x_next, y_next, state.lam - beta * residual)
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
    stored in one buffer allocated before the loop, each row the sums (x
    shifted, x aligned, y) side by side: (N, 2*d1 + d2), or (R, N, 2*d1 + d2)
    for a state with a leading replication axis.
    trajectories() divides every row by its k, which gives the averages, and
    computes their metrics once, after the loop."""

    def __init__(self, state: IterateState, t_max: int, record_at=None):
        k = np.arange(1, t_max + 1)
        self.k = k if record_at is None else k[np.isin(k, record_at)]
        self.eta = np.empty(len(self.k))
        d1, d2 = state.x.shape[-1], state.y.shape[-1]
        self.buf = np.empty(state.x.shape[:-1] + (len(self.k), 2 * d1 + d2))
        self.parts = (slice(0, d1), slice(d1, 2 * d1), slice(2 * d1, None))
        # the aligned x and y sums, which take in x_k and y_k at row k
        self.latest = slice(d1, None)
        self.n = 0  # rows stored
        # the k of the next row due, as an int; 0 once every row is stored
        self.due = int(self.k[0]) if len(self.k) else 0

    def record(self, state: IterateState, eta: float) -> bool:
        """Store the row of step state.k if it is due.  Returns whether it
        was, and no replication's sums in it are finite: from then on every
        replication has ended (see trajectories).  A sum is finite exactly
        when its average is."""
        if state.k != self.due:
            return False
        n = self.n
        self.eta[n] = eta
        row = self.buf[..., n, :]
        np.concatenate((state.sum_x_shifted, state.sum_x_aligned, state.sum_y),
                       axis=-1, out=row)
        self.n = n + 1
        self.due = int(self.k[n + 1]) if n + 1 < len(self.k) else 0
        # a finite sum of the entries means every entry is finite, which is
        # the common case
        latest = row[..., self.latest]
        if math.isfinite(np.add.reduce(latest, axis=None)):
            return False
        return not np.isfinite(latest).all(axis=-1).any()

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
        finite, whose rows before it are kept, or else at the final state's
        k."""
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
    """Plan cfg on spec (SolverConfig.validate), execute t_max step() calls
    from zero in loop() and record the trajectory.

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
    out = loop(plan, state, lambda state, g, eta: step(state, plan, g, eta),
               draws, theta_star, record_at)
    return out[0] if one_stream else out


def loop(plan: StepPlan, state: IterateState, update,
         draws: SampleBuffer | None = None, theta_star: float | None = None,
         record_at: np.ndarray | None = None) -> list[Trajectory]:
    """Advance state, one stream or R replications as (R, d) arrays, by
    t_max calls of update(state, g, eta), which advance it in place, and
    return one trajectory per replication.  A stochastic plan passes the
    stepsize and the subgradient sampled from draws at state.x, the others
    g = None and eta = NaN.  An exception in an update ends every
    replication there, with the error in its trajectory; the loop also ends
    at a recorded row where no replication is finite."""
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
        ended = rows.record(state, eta)
        if checks is not None:
            checks.store(state, g, eta)
        if ended:
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
    stepsize.  A one-stream state counts as R = 1.  Every CHECK_CHUNK steps,
    and at flush() when the loop ends, one _run_checks call checks the
    stored steps of every replication still checked, with replication r's
    record records[r]; a replication's checks end after its first
    non-finite step.  Every replication shares the probes of one generator,
    rng, so a run draws as many whatever R is.  Every check pass evaluates
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
        """Store step state.k, and check the chunk once it is full."""
        self.n += 1
        self._put(self.n, state)
        if self.g is not None:
            self.g[self.n - 1] = g
        self.eta[self.n - 1] = eta
        if self.n == CHECK_CHUNK:
            self.flush()

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
            _run_checks(self, {r: int(last[r]) for r in self.checked})
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


def _run_checks(chunk: CheckedSteps, steps: dict):
    """All enabled per-iteration invariants at the stored steps of one
    chunk, for each replication r of steps at its first steps[r] steps, into
    chunk.records[r].  The probes are drawn once, an array per kind whose row
    j step k0 + 1 + j of every replication reads, scaled per row after the
    draw.  Each check runs over all rows and probes of a group of at most
    CHECK_ROWS (step, replication) rows at once, its results reduced once per
    group: the worst residual per replication, and a log entry per violation."""
    plan, w, g, records, rng = chunk.plan, chunk.w, chunk.g, chunk.records, chunk.rng
    spec, beta = plan.spec, plan.beta
    n = max(steps.values())
    y_draw = spec.Y.sample(rng, size=(n, Y_PROBE_COUNT))
    if g is not None:
        size = (n, PROBE_COUNT)
        probe_x = spec.X.project(spec.X.sample(rng, size=size))
        probe_w = StackedW(spec.X.project(spec.X.sample(rng, size=size)),
                           spec.Y.project(spec.Y.sample(rng, size=size)),
                           rng.standard_normal((*size, spec.m)))
    reps = list(steps)
    per_group = max(1, CHECK_ROWS // CHECK_CHUNK)
    for first in range(0, len(reps), per_group):
        group = reps[first:first + per_group]
        # the group's rows, replication-major: rep_rows[i] are group[i]'s,
        # row (j, r) is step k0 + 1 + j of replication r
        counts = [steps[rep] for rep in group]
        assert min(counts) >= 1, "a replication checked has a step to check"
        r = np.repeat(group, counts)
        j = np.concatenate([np.arange(c) for c in counts])
        ends = np.cumsum(counts)
        rep_rows = [slice(end - c, end) for c, end in zip(counts, ends.tolist())]
        starts = ends - counts
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
            # np.max and np.maximum, unlike max, keep a NaN residual
            rep_worst = np.maximum.reduceat(worst.max(axis=1), starts)
            for rep, count, value in zip(group, counts, rep_worst.tolist()):
                records[rep].add(name, count * per_row, value)
            if violated.any():
                for i, p in zip(*np.nonzero(violated)):
                    records[r[i]].log.append((int(k[i]), name, float(res[i, p])))

        # dual-update identity: exact by construction
        dual_res = np.linalg.norm(
            curr.lam - prev.lam + beta * spec.residual(curr.x, curr.y), axis=-1)
        # each flag is "not res <= tol", so that a NaN residual is a violation
        note("dual-identity", dual_res, dual_res,
             ~(dual_res <= 1e-12 * (1.0 + np.linalg.norm(curr.lam, axis=-1))))

        # y-optimality, one replication at a time: its first steps' points
        yres, yscale = np.empty((2, len(k)))
        for count, sl in zip(counts, rep_rows):
            yres[sl], yscale[sl] = check_y_optimality(curr[sl], spec, y_draw[:count],
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
