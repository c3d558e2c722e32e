"""Convex objective handles.

Two families of handles:

* first-block objectives: evaluate the exact (expected) value and an exact
  subgradient, and for finite sums also the per-component value/subgradient
  used by the sampling oracle;
* second-block objectives: evaluate a value and a proximal operator
  ``argmin_y f(y) + (c/2)||y - z||^2``.

All proximal operators here are coordinate-separable, so restriction to a box
is a componentwise clamp of the unconstrained solution (1-D strictly convex
minimization over an interval).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LeastSquares",
    "HingeLoss",
    "Quadratic",
    "L1Norm",
    "SquaredL2Penalty",
    "HingeSumPenalty",
    "ZeroFunction",
    "soft_threshold",
]


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise soft-thresholding, the prox of tau*||.||_1."""
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


class LeastSquares:
    """(1/2n) ||D x - t||^2 + (mu/2) ||x||^2 as an average of n components.

    Component i is (1/2)(d_i^T x - t_i)^2 + (mu/2)||x||^2, so sampling a
    uniform index gives an unbiased estimate of value and gradient.
    """

    def __init__(self, design: np.ndarray, targets: np.ndarray, mu: float = 0.0):
        self.design = np.asarray(design, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.design.shape[0] != self.targets.shape[0]:
            raise ValueError("design rows and targets must agree")
        self.mu = float(mu)
        self._hessian = None

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def value(self, x: np.ndarray) -> float:
        r = self.design @ x - self.targets
        return 0.5 * float(r @ r) / self.n + 0.5 * self.mu * float(x @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        r = self.design @ x - self.targets
        return self.design.T @ r / self.n + self.mu * x

    # exact subgradient == gradient (smooth)
    subgrad = grad

    def component_value(self, x: np.ndarray, i: int) -> float:
        r = float(self.design[i] @ x - self.targets[i])
        return 0.5 * r * r + 0.5 * self.mu * float(x @ x)

    def component_grad(self, x: np.ndarray, i: int) -> np.ndarray:
        r = float(self.design[i] @ x - self.targets[i])
        return self.design[i] * r + self.mu * x

    def hessian(self) -> np.ndarray:
        if self._hessian is None:
            d = self.dim
            self._hessian = self.design.T @ self.design / self.n + self.mu * np.eye(d)
        return self._hessian

    def quadratic_parts(self):
        """(H, c, const) with value(x) = x'Hx/2 + c'x + const."""
        c = -self.design.T @ self.targets / self.n
        const = 0.5 * float(self.targets @ self.targets) / self.n
        return self.hessian(), c, const


class HingeLoss:
    """(1/n) sum_i max(0, 1 - l_i d_i^T x); subgradient 0 at the kink."""

    def __init__(self, design: np.ndarray, labels: np.ndarray):
        self.design = np.asarray(design, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.design.shape[0] != self.labels.shape[0]:
            raise ValueError("design rows and labels must agree")

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    def value(self, x: np.ndarray) -> float:
        margins = self.labels * (self.design @ x)
        return float(np.mean(np.maximum(0.0, 1.0 - margins)))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        margins = self.labels * (self.design @ x)
        active = margins < 1.0
        if not np.any(active):
            return np.zeros(self.dim)
        return -(self.labels[active, None] * self.design[active]).sum(axis=0) / self.n

    def component_value(self, x: np.ndarray, i: int) -> float:
        return max(0.0, 1.0 - self.labels[i] * float(self.design[i] @ x))

    def component_grad(self, x: np.ndarray, i: int) -> np.ndarray:
        if self.labels[i] * float(self.design[i] @ x) < 1.0:
            return -self.labels[i] * self.design[i]
        return np.zeros(self.dim)


class Quadratic:
    """x'Hx/2 + c'x with symmetric positive semidefinite H."""

    def __init__(self, H: np.ndarray, c: np.ndarray | None = None):
        self.H = np.asarray(H, dtype=float)
        self.c = np.zeros(self.H.shape[0]) if c is None else np.asarray(c, dtype=float)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ (self.H @ x)) + float(self.c @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.H @ x + self.c

    subgrad = grad

    def hessian(self) -> np.ndarray:
        return self.H

    def quadratic_parts(self):
        return self.H, self.c, 0.0

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return np.linalg.solve(self.H + c * np.eye(self.dim), c * z - self.c)


class L1Norm:
    """coef * ||.||_1; usable on either block (has both subgrad and prox)."""

    def __init__(self, coef: float = 1.0):
        if coef < 0:
            raise ValueError("l1 coefficient must be nonnegative")
        self.coef = float(coef)

    def value(self, x: np.ndarray) -> float:
        return self.coef * float(np.sum(np.abs(x)))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.coef * np.sign(x)

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return soft_threshold(np.asarray(z, dtype=float), self.coef / c)


class SquaredL2Penalty:
    """(coef/2) ||.||^2."""

    def __init__(self, coef: float = 1.0):
        self.coef = float(coef)

    def value(self, y: np.ndarray) -> float:
        return 0.5 * self.coef * float(y @ y)

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.coef * y

    subgrad = grad

    def quadratic_parts_for(self, dim: int):
        return self.coef * np.eye(dim), np.zeros(dim), 0.0

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return c * np.asarray(z, dtype=float) / (c + self.coef)


class HingeSumPenalty:
    """sum_i max(0, 1 - y_i), scaled by coef.

    The prox is piecewise linear per coordinate; ties at the kink resolve to
    the kink point y_i = 1 itself.
    """

    def __init__(self, coef: float = 1.0):
        self.coef = float(coef)

    def value(self, y: np.ndarray) -> float:
        return self.coef * float(np.sum(np.maximum(0.0, 1.0 - y)))

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        shift = self.coef / c
        out = np.where(z >= 1.0, z, np.minimum(z + shift, 1.0))
        return out


class ZeroFunction:
    """The zero function; prox is the identity (set handling is elsewhere)."""

    def value(self, y: np.ndarray) -> float:
        return 0.0

    def subgrad(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(y, dtype=float))

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return np.asarray(z, dtype=float)
