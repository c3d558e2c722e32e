"""Proximal operators and the constrained quadratic x-update.

The x-update of every solver variant minimizes over X a quadratic

    x'(H0 + shift I)x/2 - rhs'x,

with H0 fixed for the run and only the isotropic shift varying (1/eta_k in
the stochastic variant).  Given the eigendecomposition of H0, computed once
per run, the whole-space solve is a diagonal solve in that basis; over a ball
the same basis gives an exact trust-region style scalar root-find on the
boundary multiplier; over a box a projected-gradient inner loop runs to a
declared tolerance.
"""

from __future__ import annotations

import numpy as np

from .functions import ZeroFunction
from .problem import ProblemSpec
from .sets import Ball, Box, SetDescriptor, WholeSpace

__all__ = [
    "prox_theta2",
    "solve_y_update",
    "three_points_check",
    "min_quadratic_over_set",
    "SubproblemError",
]

INNER_TOL = 1e-10
INNER_MAX_ITERS = 10_000


class SubproblemError(RuntimeError):
    """Inner solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def prox_theta2(z: np.ndarray, c: float, theta2, Y: SetDescriptor) -> np.ndarray:
    """argmin_{y in Y} theta2(y) + (c/2)||y - z||^2 for catalog entries.

    Separable entries restricted to a box clamp componentwise; a ball Y is
    only exact for the indicator-only entry (projection).
    """
    if c <= 0:
        raise ValueError("prox scaling c must be positive")
    y = theta2.prox(z, c)
    if isinstance(Y, WholeSpace):
        return y
    if isinstance(Y, Box):
        return Y.project(y)
    if isinstance(Y, Ball):
        if isinstance(theta2, ZeroFunction):
            return Y.project(z)
        raise ValueError(
            "ball-constrained y-update is only exact for the indicator-only "
            "entry; use the inner-solver mode"
        )
    raise TypeError(f"unsupported set descriptor {type(Y).__name__}")


def _ball_constrained_solve(eigvals, eigvecs, shift, rhs, radius):
    """Exact argmin of x'(Q)x/2 - rhs'x over ||x|| <= radius, Q = V diag(w+shift) V'."""
    q = eigvecs.T @ rhs
    w = eigvals + shift
    x_free = q / w
    if np.sqrt(float(x_free @ x_free)) <= radius:
        return eigvecs @ x_free
    # boundary case: find nu > 0 with ||q / (w + nu)|| = radius; the secular
    # function 1/||x(nu)|| - 1/radius is concave increasing, Newton converges
    nu = 0.0
    for _ in range(200):
        d = w + nu
        x2 = float(np.sum((q / d) ** 2))
        nx = np.sqrt(x2)
        phi = 1.0 / nx - 1.0 / radius
        if abs(phi) < 1e-15 / radius:
            break
        dphi = float(np.sum(q**2 / d**3)) / (nx * x2)
        step = phi / dphi
        nu = max(nu - step, 0.0)
        if step == 0.0:
            break
    return eigvecs @ (q / (w + nu))


def _box_projected_gradient(matvec, lip, rhs, box: Box, x_init: np.ndarray,
                            tol: float = INNER_TOL, max_iters: int = INNER_MAX_ITERS):
    """Projected gradient on x'Qx/2 - rhs'x over a box, monitored by the
    projected-gradient residual."""
    x = box.project(x_init)
    step = 1.0 / lip
    resid = np.inf
    for _ in range(max_iters):
        grad = matvec(x) - rhs
        x_new = box.project(x - step * grad)
        resid = float(np.linalg.norm((x - x_new) / step))
        x = x_new
        if resid <= tol:
            return x
    raise SubproblemError("projected-gradient inner loop did not converge", resid)


def min_quadratic_over_set(H0: np.ndarray, eig, shift: float, rhs: np.ndarray,
                           X: SetDescriptor,
                           x_init: np.ndarray | None = None) -> np.ndarray:
    """Minimize x'(H0 + shift I)x/2 - rhs'x over X exactly where possible.

    eig = (eigvals, eigvecs) is the eigendecomposition of H0, computed once
    per run; the whole-space and ball solves happen in that basis, so a
    moving shift costs no refactorization.
    """
    eigvals, eigvecs = eig
    if isinstance(X, WholeSpace):
        return eigvecs @ ((eigvecs.T @ rhs) / (eigvals + shift))
    if isinstance(X, Ball):
        return _ball_constrained_solve(eigvals, eigvecs, shift, rhs, X.radius)
    if isinstance(X, Box):
        lip = float(eigvals[-1] + shift)
        matvec = lambda v: H0 @ v + shift * v
        init = rhs / lip if x_init is None else x_init
        return _box_projected_gradient(matvec, lip, rhs, X, init)
    raise TypeError(f"unsupported set descriptor {type(X).__name__}")


def solve_y_update(x_next: np.ndarray, lam: np.ndarray, spec: ProblemSpec,
                   beta: float, s: float) -> np.ndarray:
    """argmin_{y in Y} theta2(y) + (beta/2)||A x_{k+1} + B y - b - lam/beta||^2
    for B = s*I, which makes the update an exact prox of theta2.  The caller
    has checked B = s*I once for the run.
    """
    v = spec.A @ x_next - spec.b - lam / beta
    # beta/2 ||s y + v||^2 = (beta s^2/2) ||y + v/s||^2
    return prox_theta2(-v / s, beta * s * s, spec.theta2, spec.Y)


def three_points_check(x_star: np.ndarray, u: np.ndarray, probe_x: np.ndarray,
                       g_at_xstar: np.ndarray, s: float, tol: float = 1e-9):
    """Bregman 3-points inequality for the Euclidean prox-regularized minimizer.

    Checks  <g(x*), x* - x>  <=  s [ D(x,u) - D(x,x*) - D(x*,u) ] + tol
    with D(a, b) = ||a - b||^2 / 2.  Returns (holds, signed residual).
    """

    def D(a, b):
        d = a - b
        return 0.5 * float(d @ d)

    lhs = float(g_at_xstar @ (x_star - probe_x))
    rhs = s * (D(probe_x, u) - D(probe_x, x_star) - D(x_star, u))
    return lhs <= rhs + tol, lhs - rhs
