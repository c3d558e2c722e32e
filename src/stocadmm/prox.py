"""Proximal operators and the constrained quadratic x-update.

The x-update of every solver variant minimizes over X a quadratic

    x'(H0 + shift I)x/2 - rhs'x,

with H0 fixed for the run and only the isotropic shift varying (1/eta_k in
the stochastic variant).  Given the eigendecomposition of H0, computed once
per run, the whole-space solve is a diagonal solve in that basis; over a ball
the same basis gives an exact trust-region style scalar root-find on the
boundary multiplier; over a box a projected-gradient inner loop runs to a
declared tolerance.  Each solve also takes R right-hand sides as (R, d) rows
and returns the R minimizers as rows: the ball's root-find runs on the rows
outside the ball only, and the box loop stops once every row has converged.
Both inner loops raise SubproblemError at their iteration cap
(SECULAR_MAX_ITERS, INNER_MAX_ITERS) rather than return an unconverged
point.  A caller whose shift is fixed for the run passes the shifted
eigenvalues, computed once.
"""

from __future__ import annotations

import numpy as np

from .functions import L1Norm, ZeroFunction, soft_threshold
from .sets import Ball, Box, SetDescriptor, WholeSpace

__all__ = [
    "prox_map",
    "three_points_check",
    "min_quadratic_over_set",
    "SubproblemError",
]

INNER_TOL = 1e-10
INNER_MAX_ITERS = 10_000
# most Newton iterations of the ball solve's boundary multiplier
SECULAR_MAX_ITERS = 200


class SubproblemError(RuntimeError):
    """Inner solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def prox_map(theta2, Y: SetDescriptor, c: float):
    """The map z -> argmin_{y in Y} theta2(y) + (c/2)||y - z||^2 of a catalog
    entry at a fixed scale c, with its checks and constants fixed once.

    For L1Norm it is the soft threshold at coef / c, with coef / c computed
    here.  The entries are separable, so over a box Y the clamp follows the
    prox; over a ball Y only the indicator-only entry is exact, and its map
    is the projection, which returns a copy of the rows inside the ball.
    The map is a closure of one argument, which a step calls once.
    """
    if not c > 0:
        raise ValueError("prox scaling c must be positive")
    if isinstance(Y, Ball):
        if not isinstance(theta2, ZeroFunction):
            raise ValueError("y-update over a ball Y is exact only for theta2 = 0 "
                             f"(the indicator-only entry), not {type(theta2).__name__}")
        return Y.project
    if not isinstance(Y, (WholeSpace, Box)):
        raise TypeError(f"unsupported set descriptor {type(Y).__name__}")
    # a closure, not functools.partial, whose keyword call costs about 0.15 us more
    if isinstance(theta2, L1Norm):
        tau = np.array(theta2.coef / c)

        def prox(z):
            return soft_threshold(z, tau)
    else:
        def prox(z):
            return theta2.prox(z, c)
    if isinstance(Y, Box):
        return lambda z: Y.project(prox(z))
    return prox


def _ball_constrained_solve(w, eigvecs, rhs, radius):
    """Exact argmin of x'(Q)x/2 - rhs'x over ||x|| <= radius, Q = V diag(w) V',
    for one rhs or for each row of an (R, d) rhs; eigvecs None is V = I."""
    q = rhs if eigvecs is None else rhs.dot(eigvecs)
    x = q / w
    # the rows outside the ball; a row that is not finite stays as it is.  For
    # one rhs, out is a numpy bool, whose truth value costs far less than a count
    out = np.vecdot(x, x) > radius * radius
    if out if out.ndim == 0 else np.count_nonzero(out):
        x[out] = _secular_newton(q[out], w, radius)
    return x if eigvecs is None else x.dot(eigvecs.T)


def _secular_newton(q, w, radius):
    """The boundary solutions q / (w + nu) of the (n, d) rows q: per row the
    nu > 0 with ||q / (w + nu)|| = radius.  The secular function
    1/||x(nu)|| - 1/radius is concave increasing, so Newton converges; nu is
    an (n, 1) column, and the loop stops once every row has converged.
    Raises SubproblemError, with the largest |phi| left, if some row has not
    converged after SECULAR_MAX_ITERS iterations."""
    q2 = q * q
    nu = np.zeros((len(q), 1))
    tol, inv_r = 1e-15 / radius, 1.0 / radius
    for _ in range(SECULAR_MAX_ITERS):
        d = w + nu
        t = q2 / (d * d)
        x2 = t.sum(axis=1, keepdims=True)
        nx = np.sqrt(x2)
        phi = 1.0 / nx - inv_r
        # fmax skips NaN, so a row that is not finite counts as converged
        worst = np.fmax.reduce(abs(phi), axis=None)
        if not worst >= tol:
            return q / (w + nu)
        # Newton step phi / phi', with phi' = sum(q^2 / d^3) / ||x||^3
        nu = np.maximum(nu - phi * (nx * x2) / (t / d).sum(axis=1, keepdims=True), 0.0)
    raise SubproblemError("ball-constrained Newton iteration did not converge",
                          float(worst))


def _box_projected_gradient(H0, shift, lip, rhs, box: Box, x_init: np.ndarray,
                            tol: float = INNER_TOL, max_iters: int = INNER_MAX_ITERS):
    """Projected gradient on x'(H0 + shift I)x/2 - rhs'x over a box, for one
    rhs or for each row of an (R, d) rhs, monitored by each row's
    projected-gradient residual.  A row keeps its iterate of the first
    iteration whose residual is <= tol (or not finite), and the loop stops
    once every row has."""
    x = box.project(x_init)
    step = 1.0 / lip
    live = np.ones(x.shape[:-1], dtype=bool)
    for _ in range(max_iters):
        x_new = box.project(x - step * (x.dot(H0.T) + shift * x - rhs))
        resid = np.linalg.norm((x - x_new) / step, axis=-1)
        x = np.where(live[..., None], x_new, x)
        live &= resid > tol
        if not live.any():
            return x
    raise SubproblemError("projected-gradient inner loop did not converge",
                          float(np.max(resid[live])))


def min_quadratic_over_set(H0: np.ndarray, eig, shift: float, rhs: np.ndarray,
                           X: SetDescriptor, x_init: np.ndarray | None = None,
                           shifted: np.ndarray | None = None) -> np.ndarray:
    """Minimize x'(H0 + shift I)x/2 - rhs'x over X exactly where possible.

    eig = (eigvals, eigvecs) is the eigendecomposition of H0, computed once
    per run; the whole-space and ball solves happen in that basis, so a
    moving shift costs no refactorization.  eigvecs None stands for the
    identity basis (a diagonal H0), whose products the solves skip: that
    gives the same values for a finite rhs, and keeps a non-finite entry in
    its place where the products spread it over the row.  shifted is
    eigvals + shift, for a caller whose shift is fixed for the run and who
    adds it once.  rhs is one right-hand side, or R of them as (R, d) rows,
    whose R minimizers are the rows of the result.
    """
    eigvals, eigvecs = eig
    w = eigvals + shift if shifted is None else shifted
    if isinstance(X, WholeSpace):
        return rhs / w if eigvecs is None else (rhs.dot(eigvecs) / w).dot(eigvecs.T)
    if isinstance(X, Ball):
        return _ball_constrained_solve(w, eigvecs, rhs, X.radius)
    if isinstance(X, Box):
        lip = float(w[-1])
        init = rhs / lip if x_init is None else x_init
        return _box_projected_gradient(H0, shift, lip, rhs, X, init)
    raise TypeError(f"unsupported set descriptor {type(X).__name__}")


def three_points_check(x_star: np.ndarray, u: np.ndarray, probe_x: np.ndarray,
                       g_at_xstar: np.ndarray, s: float, tol: float = 1e-9):
    """Bregman 3-points inequality for the Euclidean prox-regularized minimizer.

    Checks  <g(x*), x* - x>  <=  s [ D(x,u) - D(x,x*) - D(x*,u) ] + tol
    with D(a, b) = ||a - b||^2 / 2.  Returns (holds, signed residual), each
    a (P,) array for (P, d) rows of probe_x.  The arguments broadcast as
    rows: (n, 1, d) iterates and subgradients, an (n, 1) s and (n, P, d)
    probes give (n, P) arrays.
    """

    def D(a, b):
        d = a - b
        return 0.5 * np.vecdot(d, d)

    lhs = np.vecdot(x_star - probe_x, g_at_xstar)
    rhs = s * (D(probe_x, u) - D(probe_x, x_star) - D(x_star, u))
    return lhs <= rhs + tol, lhs - rhs
