"""Replication-batched iteration kernel for identity-split problems
(A = I, B = -I, b = 0).

For the identity-split presets every subproblem has a closed form, so a whole
stochastic run collapses into one loop of O(d) vector work per step.  The
kernel advances R independent replications together: the iterates and the
running sums are (R, d) arrays and each step is a handful of numpy calls on
them, so the interpreter overhead of a step is paid once for all R
replications.  The replications consume their own pre-drawn randomness
(stacked per-stream oracle buffers), so the draws are those of the
step-by-step path and each replication's trajectory agrees with it up to
floating-point summation order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "KernelOutput",
    "admm_identity_split",
    "THETA1_LSQ",
    "THETA1_HINGE",
    "THETA2_L1",
    "THETA2_SQL2",
]

THETA1_LSQ = 0
THETA1_HINGE = 1
THETA2_L1 = 0
THETA2_SQL2 = 1


class KernelOutput(NamedTuple):
    """Snapshots (R, len(grid), d) and final states (R, d) of a batched run.

    The sums are the running sums after the last step: x over indices
    0..t-1 (shifted), x over 1..t (aligned), y and lam over 1..t.
    """

    xbar_shifted: np.ndarray
    xbar_aligned: np.ndarray
    ybar: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    sum_x_shifted: np.ndarray
    sum_x_aligned: np.ndarray
    sum_y: np.ndarray
    sum_lam: np.ndarray


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("rd,rd->r", a, b)


def admm_identity_split(data, targets, theta1_kind, mu, theta2_coef, theta2_kind,
                        radius, beta, etas, idx, noise, grid, x0, y0) -> KernelOutput:
    """Run t = len(etas) stochastic ADMM steps of R replications at once.

    data/targets: n x d design and per-row targets (labels for the hinge).
    idx: (R, t) sampled component indices, idx[r, k] for step k of
    replication r; None means the exact averaged (sub)gradient at every step.
    noise: (R, t, d) rows added to the subgradient, or None for no noise.
    radius <= 0 means whole-space X, otherwise an origin-centered ball.
    grid holds sorted 1-based iteration counts at which running averages of
    both conventions are snapshotted.  x0, y0: (R, d) starting points.
    """
    n = data.shape[0]
    t = etas.shape[0]
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    lam = np.zeros_like(x)
    sx_shift = np.zeros_like(x)
    sx_align = np.zeros_like(x)
    sy = np.zeros_like(y)
    slam = np.zeros_like(lam)
    n_grid = grid.shape[0]
    xbar_shift = np.zeros((x.shape[0], n_grid, x.shape[1]))
    xbar_align = np.zeros_like(xbar_shift)
    ybar = np.zeros((y.shape[0], n_grid, y.shape[1]))
    p = 0
    for k in range(t):
        sx_shift += x
        # sampled (or exact) subgradient of the first block at x
        if theta1_kind == THETA1_LSQ:
            if idx is not None:
                i = idx[:, k]
                rows = data[i]
                g = rows * (_rowdot(rows, x) - targets[i])[:, None] + mu * x
            else:
                g = ((x @ data.T - targets) @ data) / n + mu * x
        else:
            if idx is not None:
                i = idx[:, k]
                rows = data[i]
                active = targets[i] * _rowdot(rows, x) < 1.0
                g = mu * x - np.where(active, targets[i], 0.0)[:, None] * rows
            else:
                active = (x @ data.T) * targets < 1.0
                g = mu * x - (np.where(active, targets, 0.0) @ data) / n
        if noise is not None:
            g = g + noise[:, k]
        eta = etas[k]
        # x-update: isotropic quadratic, then exact ball projection
        c = beta + 1.0 / eta
        z = (beta * y + lam + x / eta - g) / c
        if radius > 0.0:
            # radius / max(||z||, radius) is exactly 1 inside the ball
            z *= (radius / np.maximum(np.sqrt(_rowdot(z, z)), radius))[:, None]
        x = z
        # y-update: exact prox of the second block
        zy = x - lam / beta
        if theta2_kind == THETA2_L1:
            tau = theta2_coef / beta
            y = np.sign(zy) * np.maximum(np.abs(zy) - tau, 0.0)
        else:
            y = beta * zy / (beta + theta2_coef)
        # dual ascent
        lam = lam - beta * (x - y)
        sx_align += x
        sy += y
        slam += lam
        if p < n_grid and k + 1 == grid[p]:
            inv = 1.0 / (k + 1)
            xbar_shift[:, p] = sx_shift * inv
            xbar_align[:, p] = sx_align * inv
            ybar[:, p] = sy * inv
            p += 1
    return KernelOutput(xbar_shift, xbar_align, ybar, x, y, lam,
                        sx_shift, sx_align, sy, slam)
