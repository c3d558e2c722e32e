"""Reproducible synthetic problem presets for the experiment harness.

Each preset generates data deterministically from its seed, wraps it in a
ProblemSpec with certified structural constants, and knows how to build
per-replication oracles.  The spec is the whole description of the problem:
the form of a run's update, and whether a stochastic run enters the loop
through the identity-split entry (solvers.StepPlan.takes_identity_split),
are read off it by the run's plan.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .functions import (HingeLoss, L1Norm, LeastSquares, SquaredL2Penalty,
                        soft_threshold)
from .oracle import AdditiveNoiseOracle, FiniteSumOracle
from .problem import ProblemSpec, StructuralConstants
from .schema import check_value
from .sets import Ball, WholeSpace

__all__ = ["Preset", "build_preset", "PRESET_NAMES", "PRESET_PARAMS", "PARAM_RULES",
           "SEED_RULE"]

# sampled finite-sum component, or the exact (sub)gradient
ORACLE_MODES = ("finite-sum", "exact")

_LASSO_PARAMS = dict(n=200, d=20, cond=10.0, noise=1.0, lam_reg=0.1,
                     sparsity=0.25, oracle="finite-sum")

# preset name -> its parameters with their defaults; edges is a list of
# (i, j) pairs, empty for the chain graph
PRESET_PARAMS = {
    "lasso-split": _LASSO_PARAMS,
    "strongly-convex-lasso": dict(_LASSO_PARAMS, mu=0.1),
    "fused-lasso-graph": dict(_LASSO_PARAMS, noise=0.1, edges=[]),
    "hinge-svm-split": dict(n=200, d=20, noise=0.1, lam_reg=0.1, radius=5.0,
                            oracle="finite-sum"),
}

PRESET_NAMES = tuple(PRESET_PARAMS)

# preset name -> each parameter's schema rule: its default's type, plus a bound
# or the choices where _BOUNDS gives them
_BOUNDS = dict(n=dict(ge=1), d=dict(ge=1), mu=dict(gt=0), cond=dict(ge=1),
               noise=dict(ge=0), lam_reg=dict(ge=0), radius=dict(gt=0),
               sparsity=dict(gt=0, le=1), oracle=dict(choices=ORACLE_MODES))
PARAM_RULES = {name: {key: dict(_BOUNDS.get(key, {}), type=type(val))
                      for key, val in params.items()}
               for name, params in PRESET_PARAMS.items()}
# the rule of a preset's seed, a config's preset_seed
SEED_RULE = dict(type=int, ge=0)

# oracle streams are offset from data-generation streams to keep them disjoint
_ORACLE_SEED_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class Preset:
    name: str
    spec: ProblemSpec
    params: dict  # every parameter, checked (build_preset)
    seed: int
    supports_reference: bool = True

    def make_oracle(self, stream: int = 0):
        oseed = (self.seed + _ORACLE_SEED_OFFSET) % 2**63
        if self.params["oracle"] == "exact":
            return AdditiveNoiseOracle(self.spec.theta1, sigma=0.0, kind="none",
                                       seed=oseed, stream=stream)
        return FiniteSumOracle(self.spec.theta1, seed=oseed, stream=stream)


def _fista_reduced_lasso(design, targets, lam_reg, mu, max_iters=3000):
    """Unconstrained solve of the collapsed (x = y) lasso, used only to size
    the feasible ball around the solution.  Stops once the iterate no longer
    moves in floating point.  The residual and the gradient are written into
    two buffers allocated once, and the ridge term mu * z is added only for
    mu != 0 (it adds zeros at 0)."""
    n, d = design.shape
    H_lip = float(np.linalg.eigvalsh(design.T @ design / n)[-1]) + mu
    step = 1.0 / H_lip
    tau = np.array(step * lam_reg)
    design_t = design.T
    resid, grad = np.empty(n), np.empty(d)
    x = np.zeros(d)
    z = x.copy()
    s = 1.0
    for _ in range(max_iters):
        np.subtract(design.dot(z, out=resid), targets, out=resid)
        np.divide(design_t.dot(resid, out=grad), n, out=grad)
        x_new = soft_threshold(z - step * (grad + mu * z if mu else grad), tau)
        # sqrt(v.dot(v)) is the 2-norm np.linalg.norm(v) takes of a 1-D v
        dx = x_new - x
        moved = math.sqrt(dx.dot(dx))
        s_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * s * s))
        z = x_new + (s - 1.0) / s_new * dx
        x, s = x_new, s_new
        if moved <= 1e-15 * max(math.sqrt(x.dot(x)), 1.0):
            break
    return x


def _make_design(rng, n, d, cond):
    design = rng.standard_normal((n, d))
    if cond > 1:
        design *= np.geomspace(1.0, 1.0 / np.sqrt(cond), num=d)[None, :]
    return design


def _max_quadratic_over_ball(P, q, c, radius):
    """Exact sup of x'Px - 2 q'x + c over ||x|| <= radius (P symmetric psd).

    The maximum of a convex quadratic over a ball sits on the boundary; in
    the eigenbasis of P the stationarity system is separable and reduces to a
    monotone secular equation in the multiplier.
    """
    lam, V = np.linalg.eigh(P)
    qt = V.T @ q
    top = lam[-1]

    def z_norm2(nu):
        return float(np.sum((qt / (lam - nu)) ** 2))

    # multiplier nu > lambda_max: ||z(nu)|| decreases from +inf to 0
    lo = top + 1e-14 * max(top, 1.0)
    if z_norm2(lo) <= radius**2:
        # hard case: no component along the top eigenvector forces the
        # secular root; pad with mass on the top eigenspace
        mask = lam < top - 1e-10 * max(top, 1.0)
        z = np.zeros_like(qt)
        z[mask] = qt[mask] / (lam[mask] - top)
        pad = radius**2 - float(z @ z)
        z[-1] = np.sqrt(max(pad, 0.0))
        zv = z
    else:
        hi = lo + 1.0
        while z_norm2(hi) > radius**2:
            hi = top + 2.0 * (hi - top)
        # a midpoint equal to lo or hi leaves both unchanged, and every
        # later iteration would repeat it: the bisection has converged
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if z_norm2(mid) > radius**2:
                lo = mid
            else:
                hi = mid
        zv = qt / (lam - 0.5 * (lo + hi))
    val = float(zv @ (lam * zv) - 2.0 * qt @ zv + c)
    # interior is dominated by the boundary, but guard the degenerate q = 0 case
    return max(val, c)


def _lsq_constants(design, targets, radius, mu, oracle):
    """Certified structural constants of a least-squares finite sum over an
    origin-centered ball, for the oracle mode oracle: the moment bound M of
    uniform component sampling, the noise bound sigma and the smoothness L.

    E||g||^2 at x is itself a quadratic in x, so its sup over the ball is
    computed exactly instead of via the loose per-row worst case.
    """
    n = design.shape[0]
    row2 = np.einsum("ij,ij->i", design, design)
    weights = row2 + 2.0 * mu
    P = design.T @ (design * weights[:, None]) / n + mu**2 * np.eye(design.shape[1])
    q = design.T @ ((row2 + mu) * targets) / n
    c = float(np.sum(row2 * targets**2)) / n
    M2 = _max_quadratic_over_ball(P, q, c, radius)
    M = float(np.sqrt(M2))
    L = float(np.linalg.eigvalsh(design.T @ design / n)[-1]) + mu
    # E||delta||^2 <= E||g||^2 <= M^2, so sigma = 2M is a valid but loose bound
    # (not one of ||delta|| pointwise); the exact oracle has no noise
    sigma = 0.0 if oracle == "exact" else 2.0 * M
    return StructuralConstants(M=M, sigma=sigma, mu=mu, L=L)


def _sparse_regression(rng, p, signs_first: bool):
    """The design, a sparse x_true with entries +-1 and the noisy targets of
    a least-squares preset, drawn from rng.  signs_first draws the signs of
    x_true before its support, the order of the fused-lasso-graph preset."""
    n, d = p["n"], p["d"]
    design = _make_design(rng, n, d, p["cond"])
    k = max(1, round(p["sparsity"] * d))
    # a tuple's items are drawn left to right
    if signs_first:
        signs, support = rng.choice([-1.0, 1.0], size=k), rng.choice(d, size=k, replace=False)
    else:
        support, signs = rng.choice(d, size=k, replace=False), rng.choice([-1.0, 1.0], size=k)
    x_true = np.zeros(d)
    x_true[support] = signs
    targets = design @ x_true + p["noise"] * rng.standard_normal(n)
    return design, x_true, targets


def _lasso_like(name, seed, p):
    mu = p.get("mu", 0.0)
    design, _, targets = _sparse_regression(np.random.default_rng(seed), p,
                                            signs_first=False)
    d = design.shape[1]
    x_hat = _fista_reduced_lasso(design, targets, p["lam_reg"], mu)
    radius = max(1.0, 2.0 * float(np.linalg.norm(x_hat)))
    spec = ProblemSpec(
        theta1=LeastSquares(design, targets, mu=mu), theta2=L1Norm(p["lam_reg"]),
        A=np.eye(d), B=-np.eye(d), b=np.zeros(d),
        X=Ball(d, radius), Y=WholeSpace(d),
        constants=_lsq_constants(design, targets, radius, mu, p["oracle"]),
    )
    return Preset(name, spec, p, seed)


def _fused_lasso_graph(seed, p):
    design, x_true, targets = _sparse_regression(np.random.default_rng(seed), p,
                                                 signs_first=True)
    d = design.shape[1]
    edges = p["edges"] or [(i, i + 1) for i in range(d - 1)]  # chain graph default
    m = len(edges)
    A = np.zeros((m, d))
    for r, edge in enumerate(edges):
        # an index out of range would raise or wrap; i = j would penalize -x_i
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and edge[0] != edge[1]
                and all(type(i) is int and 0 <= i < d for i in edge)):
            raise ValueError(f"edges[{r}]: expected two distinct node indices in "
                             f"0..{d - 1}, got {edge!r}")
        i, j = edge
        A[r, i] = 1.0
        A[r, j] = -1.0

    radius = max(1.0, 2.0 * float(np.linalg.norm(x_true)) + 1.0)
    spec = ProblemSpec(
        theta1=LeastSquares(design, targets), theta2=L1Norm(p["lam_reg"]),
        A=A, B=-np.eye(m), b=np.zeros(m),
        X=Ball(d, radius), Y=WholeSpace(m),
        constants=_lsq_constants(design, targets, radius, 0.0, p["oracle"]),
    )
    return Preset("fused-lasso-graph", spec, p, seed)


def _hinge_svm_split(seed, p):
    rng = np.random.default_rng(seed)
    n, d = p["n"], p["d"]
    design = rng.standard_normal((n, d)) / np.sqrt(d)
    w_true = rng.standard_normal(d)
    w_true /= np.linalg.norm(w_true)
    labels = np.sign(design @ w_true + p["noise"] * rng.standard_normal(n))
    labels[labels == 0] = 1.0

    theta1 = HingeLoss(design, labels)
    M = float(np.max(np.linalg.norm(design, axis=1)))
    spec = ProblemSpec(
        theta1=theta1, theta2=SquaredL2Penalty(p["lam_reg"]),
        A=np.eye(d), B=-np.eye(d), b=np.zeros(d),
        X=Ball(d, p["radius"]), Y=WholeSpace(d),
        constants=StructuralConstants(M=M, sigma=2.0 * M, mu=0.0, L=None),
    )
    # exact Line-1 minimization of the hinge sum has no closed form, so the
    # deterministic reference path is unavailable for this preset
    return Preset("hinge-svm-split", spec, p, seed, supports_reference=False)


def build_preset(name: str, seed: int = 0, **params) -> Preset:
    """Preset name built from seed, with params (checked as a config's, then
    over a copy of PRESET_PARAMS[name], the preset's params) as overrides."""
    check_value("preset", name, dict(type=str, choices=PRESET_NAMES), {})
    check_value("preset_seed", seed, SEED_RULE, {})
    rule = dict(type=dict, keys=lambda _: PARAM_RULES[name])
    p = copy.deepcopy({**PRESET_PARAMS[name],
                       **check_value("preset_params", params, rule, {})})
    if name == "fused-lasso-graph":
        return _fused_lasso_graph(seed, p)
    if name == "hinge-svm-split":
        return _hinge_svm_split(seed, p)
    return _lasso_like(name, seed, p)
