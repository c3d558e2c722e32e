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
for a run, computed and checked once; step() applies it, to one iterate or
to R replications at once as (R, d) rows.

run() is the solver loop of every run the batched kernel
(kernels.admm_identity_split) does not take: one stream on its oracle's
draws, or R replications on their stacked draws, advanced together by one
step() per iteration and checked, when enabled, one replication at a time.  Both loops store the recorded averages
and compute their metrics after the loop (RecordedRows).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .oracle import SampleBuffer
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


# invariant checks: their names, random probe points per check (three-points
# and step-inequality, then y-optimality), tolerance of the signed residuals,
# seed of the probe generator
INVARIANTS = ("dual-identity", "y-optimality", "three-points", "step-inequality")
PROBE_COUNT = 5
Y_PROBE_COUNT = 20
CHECK_TOL = 1e-9
PROBE_SEED = 2024

AVERAGINGS = ("eq2-shifted", "eq10-aligned")
SCHEDULES = ("convex", "strongly-convex", "smooth", "constant")


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
    G: float | np.ndarray | None = None  # scalar r means G = r*I - beta*A'A

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
        if self.averaging not in (None, *AVERAGINGS):
            raise ValueError(f"averaging: expected one of {AVERAGINGS}, "
                             f"got {self.averaging!r}")
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
    state.x and the stepsize eta; the other variants take neither.  A state
    of R replications with (R, d) arrays (and g with R rows) advances every
    replication by the same formulas, written for rows."""
    spec, beta, x = plan.spec, plan.beta, state.x
    shift = plan.shift
    if shift is None:
        if g is None:
            raise ValueError("a stochastic step needs a sampled subgradient g")
        if not eta > 0:
            raise ValueError("eta must be positive")
        shift = 1.0 / eta
    v = spec.b + state.lam / beta - state.y @ spec.B.T
    rhs = beta * (v @ spec.A) - plan.c + shift * x
    if plan.G_rest is not None:
        rhs = rhs + x @ plan.G_rest.T
    if g is not None:
        rhs = rhs - g
    if plan.prox:
        x_next = spec.theta1.prox(rhs / shift, shift)
    else:
        x_next = min_quadratic_over_set(plan.H0, plan.eig, shift, rhs, spec.X,
                                        x_init=x)
    Ax_next = x_next @ spec.A.T
    y_next = solve_y_update(Ax_next, state.lam, spec, beta, plan.s)
    state.advance(x_next, y_next,
                  state.lam - beta * (Ax_next + y_next @ spec.B.T - spec.b))
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
    # per invariant that ran, its worst residual as max_invariant_residual
    # counts it; per invariant, the number of probes it evaluated
    invariant_worst: dict = field(default_factory=dict)
    invariant_probes: dict = field(default_factory=dict)
    error: str | None = None

    COLUMNS = ("k", "eta", "obj_gap_eq2", "feas_eq2", "err_rho_eq2",
               "obj_gap_eq10", "feas_eq10", "err_rho_eq10", "step_ms")

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
    """The rows of one loop: the stepsize, the step's wall time and the three
    averages after step k, for each k of record_at within 1..t_max (every k
    by default), stored in one buffer allocated before the loop, each row
    the averages (x shifted, x aligned, y) side by side: (N, 2*d1 + d2), or
    (R, N, 2*d1 + d2) for a state with a leading replication axis.
    trajectories() computes the metrics of every row once, after the loop."""

    def __init__(self, state: IterateState, t_max: int, record_at=None):
        k = np.arange(1, t_max + 1)
        self.k = k if record_at is None else k[np.isin(k, record_at)]
        self.eta, self.step_ms = np.empty(len(self.k)), np.empty(len(self.k))
        d1, d2 = state.x.shape[-1], state.y.shape[-1]
        self.buf = np.empty(state.x.shape[:-1] + (len(self.k), 2 * d1 + d2))
        self.parts = (slice(0, d1), slice(d1, 2 * d1), slice(2 * d1, None))
        # the aligned x and y averages, which take in x_k and y_k at row k
        self.latest = slice(d1, None)
        self.n = 0  # rows stored

    def record(self, state: IterateState, eta: float, step_ms: float) -> bool:
        """Store the row of step state.k if it is due.  Returns whether it
        was, and no replication's averages in it are finite: from then on
        every replication has ended (see trajectories)."""
        n = self.n
        if n == len(self.k) or self.k[n] != state.k:
            return False
        self.eta[n], self.step_ms[n] = eta, step_ms
        row = self.buf[..., n, :]
        shifted, aligned, y = self.parts
        state.write_averages(row[..., shifted], row[..., aligned], row[..., y])
        self.n += 1
        # a finite sum means every entry is finite, which is the common case
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
        Without theta_star the gaps and errors are NaN.  A non-finite
        iterate ends its replication with "iteration k: non-finite iterate",
        at the first row k whose averages are not finite, whose rows before
        it are kept, or else at the final state's k."""
        n, R = self.n, len(final_states)
        star = math.nan if theta_star is None else theta_star
        rows = self.buf[..., :n, :].reshape(R * n, self.buf.shape[-1])
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
            trajs.append(Trajectory(k=self.k[:m], eta=self.eta[:m], step_ms=self.step_ms[:m],
                                    **{name: col[r, :m] for name, col in cols.items()},
                                    final_state=state, **fields))
        return trajs


def step_inequality_check(prev: StackedW, curr: StackedW, probe_w: StackedW,
                          g: np.ndarray, delta: np.ndarray, eta: float,
                          spec: ProblemSpec, beta: float):
    """Signed residual of the per-iteration variational bound at the probes.

    The bound compares the linearized Lagrangian decrease against telescoping
    distance terms, the stepsize-weighted subgradient norm and the noise
    pairing term.  Must be <= 0 up to roundoff, for every probe in W.
    probe_w holds one probe, or P probes as (P, d1), (P, d2) and (P, m)
    rows.  Returns (residual, scale), (P,) arrays for P probes, with scale
    the sum of term magnitudes.
    """
    def sq(v):
        return np.vecdot(v, v)

    px, py = probe_w.x, probe_w.y
    lhs = (spec.theta1.value(prev.x) + spec.theta2.value(curr.y)
           - spec.theta(px, py) + (curr - probe_w).dot(eval_F(curr, spec)))
    t1 = eta * sq(g) / 2.0
    t2 = (sq(prev.x - px) - sq(curr.x - px)) / (2.0 * eta)
    t3 = beta * (sq(spec.residual(px, prev.y)) - sq(spec.residual(px, curr.y))) / 2.0
    t4 = (px - prev.x) @ delta
    t5 = (sq(probe_w.lam - prev.lam) - sq(probe_w.lam - curr.lam)) / (2.0 * beta)
    rhs = t1 + t2 + t3 + t4 + t5
    scale = 1.0 + abs(lhs) + abs(t1) + abs(t2) + abs(t3) + abs(t4) + abs(t5)
    return lhs - rhs, scale


def check_y_optimality(curr: StackedW, spec: ProblemSpec, rng: np.random.Generator,
                       probes: int = Y_PROBE_COUNT):
    """Max signed residual of the y-update optimality inequality over probes.

    For the exact y-minimizer, th2(y_{k+1}) - th2(y') + <y_{k+1} - y',
    -B'lam_{k+1}> <= 0 for every y' in Y.  The probes y' are drawn as one
    (probes, d2) array.  Returns (max residual, scale).
    """
    grad_term = -spec.B.T @ curr.lam
    th2 = spec.theta2.value(curr.y)
    scale = 1.0 + abs(th2) + float(np.linalg.norm(grad_term))
    y_probe = spec.Y.project(spec.Y.sample(
        rng, scale=1.0 + np.linalg.norm(curr.y), size=probes))
    res = th2 - spec.theta2.value(y_probe) + (curr.y - y_probe) @ grad_term
    return float(np.max(res, initial=-np.inf)), scale


def run(spec: ProblemSpec, cfg: SolverConfig, oracle=None,
        theta_star: float | None = None, record_at: np.ndarray | None = None,
        *, state: IterateState | None = None, draws: SampleBuffer | None = None):
    """Execute t_max steps from zero and record the trajectory.

    Structural errors raise before any step; an error during the steps ends
    the run and is returned in the partial trajectory.  record_at restricts
    metric rows to the given iteration counts (1-based); by default every
    iteration is recorded.  Objective gaps need theta_star; without it only
    feasibility is populated.

    One stream: a stochastic run presamples its draws from oracle (an oracle
    of spec.theta1), and the result is one Trajectory.  Batched: state holds
    R replications as (R, d) arrays, zero for a run from zero, and draws
    their R streams stacked (None for a variant that draws nothing); every
    step advances all R rows at once, and the result is R trajectories.  An
    error in a step then ends every replication at that iteration.  The loop
    ends early at a recorded row where no replication is finite.
    """
    plan = cfg.validate(spec)
    stochastic = cfg.variant == "stochastic"
    one_stream = state is None
    if one_stream:
        if stochastic and oracle is None:
            raise ValueError("stochastic variant needs an oracle")
        state = IterateState.zeros(spec)
        draws = oracle.presample(cfg.t_max) if (stochastic and cfg.t_max) else None
    elif stochastic and draws is None:
        raise ValueError("a batched stochastic run needs its stacked draws")
    R = 1 if one_stream else len(state.x)
    rows = RecordedRows(state, cfg.t_max, record_at)
    # per replication: the index of its rows (all of a one-stream state),
    # its record and its probe generator, each seeded alike; checked lists
    # the replications whose iterate is still finite
    at = [...] if one_stream else range(R)
    records = [InvariantRecord() for _ in range(R)] if cfg.check_invariants else None
    rngs = [np.random.default_rng(PROBE_SEED) for _ in records or ()]
    checked = list(range(R)) if records else []
    error = None

    for k in range(cfg.t_max):
        t0 = time.perf_counter()
        prev = state.as_w() if checked else None
        eta = cfg.eta(k + 1, spec) if stochastic else math.nan
        g = None
        try:
            if stochastic:
                g = draws.subgradient(spec.theta1, state.x, k)
            step(state, plan, g, eta)
        except Exception as exc:  # return the partial trajectories with the error
            error = f"iteration {k}: {exc}"
            break
        ended = rows.record(state, eta, (time.perf_counter() - t0) * 1e3 / R)

        if checked:
            curr = state.as_w()
            for r in checked:
                _run_checks(prev[at[r]], curr[at[r]], state.k, spec, cfg,
                            None if g is None else g[at[r]], eta, rngs[r], records[r])
            # a replication's checks end with its first non-finite step
            finite = (np.isfinite(curr.x).all(axis=-1) & np.isfinite(curr.y).all(axis=-1)
                      & np.isfinite(curr.lam).all(axis=-1))
            checked = [r for r in checked if finite[at[r]]]
        if ended:
            break

    finals = [state] if one_stream else [state.replication(r) for r in range(R)]
    out = rows.trajectories(spec, cfg.rho, theta_star, finals, error, records)
    return out[0] if one_stream else out


class InvariantRecord:
    """What the checks of one run saw: a (k, name, residual) log entry per
    violating probe and, per invariant, the worst residual and the probe
    count."""

    def __init__(self):
        self.log = []
        self.worst = dict.fromkeys(INVARIANTS, -math.inf)
        self.probes = dict.fromkeys(INVARIANTS, 0)

    def note(self, k: int, name: str, res, worst, violated, probes: int | None = None):
        """One check at step k: its residuals res, the values that enter the
        worst residual and the violation flags, one per probe (or scalars);
        probes counts the points behind a single reduced residual."""
        res, worst, violated = np.atleast_1d(res, worst, violated)
        self.probes[name] += len(res) if probes is None else probes
        # np.maximum, unlike max, keeps a NaN residual
        self.worst[name] = float(np.maximum(self.worst[name], worst.max()))
        self.log.extend((k, name, float(r)) for r in res[violated])

    def fields(self) -> dict:
        ran = [name for name in INVARIANTS if self.probes[name]]
        return {"invariant_log": self.log,
                "max_invariant_residual": float(np.max([0.0, *self.worst.values()])),
                "invariant_worst": {name: self.worst[name] for name in ran},
                "invariant_probes": dict(self.probes)}


def _run_checks(prev_w: StackedW, curr: StackedW, k: int, spec, cfg, g, eta, rng,
                checks: InvariantRecord):
    """All enabled per-iteration invariants at step k of one replication,
    from its iterates before (prev_w) and after (curr) the step, each check
    over its probes as one batch.  g is the sampled subgradient of a
    stochastic step, else None."""
    beta = cfg.beta

    # dual-update identity: exact by construction
    dual_res = float(np.linalg.norm(
        curr.lam - prev_w.lam + beta * spec.residual(curr.x, curr.y)))
    # each flag is "not res <= tol", so that a NaN residual is a violation
    checks.note(k, "dual-identity", dual_res, dual_res,
                not dual_res <= 1e-12 * (1.0 + np.linalg.norm(curr.lam)))

    yres, yscale = check_y_optimality(curr, spec, rng, probes=Y_PROBE_COUNT)
    checks.note(k, "y-optimality", yres, yres / yscale, not yres <= CHECK_TOL * yscale,
                probes=Y_PROBE_COUNT)

    if g is not None:
        # 3-points relation at the realized x-update
        v = spec.b + prev_w.lam / beta - spec.B @ prev_w.y
        g_l = g + beta * (spec.A.T @ (spec.A @ curr.x - v))
        xp = spec.X.project(spec.X.sample(rng, size=PROBE_COUNT))
        ok, res = three_points_check(curr.x, prev_w.x, xp, g_l, 1.0 / eta,
                                     tol=CHECK_TOL)
        checks.note(k, "three-points", res, res, ~ok)
        # per-iteration variational bound at random probes; delta is the
        # deviation of g from the exact subgradient at the previous iterate
        delta = g - spec.theta1.subgrad(prev_w.x)
        lam_scale = 1.0 + float(np.linalg.norm(curr.lam))
        probe_w = StackedW(spec.X.project(spec.X.sample(rng, size=PROBE_COUNT)),
                           spec.Y.project(spec.Y.sample(rng, size=PROBE_COUNT)),
                           lam_scale * rng.standard_normal((PROBE_COUNT, spec.m)))
        res, scale = step_inequality_check(prev_w, curr, probe_w, g, delta,
                                           eta, spec, beta)
        checks.note(k, "step-inequality", res, res / scale, ~(res <= CHECK_TOL * scale))
