"""Convex objective handles.

Two families of handles:

* first-block objectives: evaluate the exact (expected) value and an exact
  subgradient, and for finite sums also the per-component subgradient used
  by the sampling oracle: one formula (parts_grad) over the data of the
  sampled components (parts), which the oracle gathers for a block of
  steps at once;
* second-block objectives: evaluate a value and a proximal operator
  ``argmin_y f(y) + (c/2)||y - z||^2``.

Values, subgradients, component subgradients and proximal operators also
take a leading axis: an (R, d) x (with (R,) component indices) gives the R
values or the (R, d) rows of the R one-point calls.  That is how the solver
loop advances R replications, and how a run evaluates the metrics of all
its recorded averages, with the same formulas.

All proximal operators here are coordinate-separable, so restriction to a box
is a componentwise clamp of the unconstrained solution (1-D strictly convex
minimization over an interval).

The second-block entries also give the convex conjugate of their sum with
the indicator of a set Y, (f + i_Y)*(z) = sup_{y in Y} <y, z> - f(y), in
closed form at a point or at each row of z (conjugate(z, Y, rho)), which the
y-optimality check reads its Fenchel-Young gap from.  Where that conjugate
is an indicator (an entry that is not strongly convex, on the whole space),
it is taken over the origin-centered ball of radius rho instead, through
the set's support function (sets module).

A matrix or vector product made once per step, per inner iteration or per
check pass is spelled a.dot(b) (or matmul_rows), not a @ b.  On operands of
the solvers' sizes @ pays the dispatch of numpy's matmul gufunc; for 1-D
and 2-D operands dot makes the same BLAS call with the same bits, in about
half the time (tests/test_problem.py checks the bits on the update's
shapes).  A product made once per run, such as a preset's constants, keeps
the @ of the formula.
"""

from __future__ import annotations

import numpy as np

from .sets import Box

__all__ = [
    "LeastSquares",
    "HingeLoss",
    "Quadratic",
    "L1Norm",
    "SquaredL2Penalty",
    "ZeroFunction",
    "soft_threshold",
]


# 0.0 as a read-only 0-d array, which a ufunc takes faster than the float
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise soft-thresholding, the prox of tau*||.||_1; tau may be
    a 0-d array, which the y-update's map passes for speed."""
    return np.sign(z) * np.maximum(np.abs(z) - tau, _ZERO)


def matmul_rows(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M for a (d, k) matrix or a (d,) vector M, by x.dot(M); for x with
    more than two axes as one 2-D product of all its rows: numpy's stacked
    matmul runs one small product per leading index, several times slower
    for the (n, P, d) probes of the invariant checks."""
    if x.ndim <= 2:
        return x.dot(M)
    return x.reshape(-1, x.shape[-1]).dot(M).reshape(*x.shape[:-1], *M.shape[1:])


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

    def value(self, x: np.ndarray):
        r = matmul_rows(x, self.design.T) - self.targets
        return 0.5 * np.vecdot(r, r) / self.n + 0.5 * self.mu * np.vecdot(x, x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        r = matmul_rows(x, self.design.T) - self.targets
        return matmul_rows(r, self.design) / self.n + self.mu * x

    # exact subgradient == gradient (smooth)
    subgrad = grad

    def parts(self, i) -> tuple:
        """The data of components i: their design rows and targets."""
        return self.design[i], self.targets[i]

    def parts_grad(self, x: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The gradient of the components whose parts are rows and targets,
        with the ridge term mu * x only for mu != 0 (it adds zeros at 0)."""
        g = rows * (np.vecdot(rows, x) - targets)[..., None]
        return g + self.mu * x if self.mu else g

    def component_grad(self, x: np.ndarray, i) -> np.ndarray:
        return self.parts_grad(x, *self.parts(i))

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

    def value(self, x: np.ndarray):
        margins = self.labels * matmul_rows(x, self.design.T)
        return np.mean(np.maximum(0.0, 1.0 - margins), axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        active = self.labels * matmul_rows(x, self.design.T) < 1.0
        return -matmul_rows(np.where(active, self.labels, 0.0), self.design) / self.n

    def parts(self, i) -> tuple:
        """The data of components i: their design rows and labels."""
        return self.design[i], self.labels[i]

    def parts_grad(self, x: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The subgradient of the components whose parts are rows and labels."""
        active = labels * np.vecdot(rows, x) < 1.0
        return -np.where(active, labels, 0.0)[..., None] * rows

    def component_grad(self, x: np.ndarray, i) -> np.ndarray:
        return self.parts_grad(x, *self.parts(i))


class Quadratic:
    """x'Hx/2 + c'x with symmetric positive semidefinite H."""

    def __init__(self, H: np.ndarray, c: np.ndarray | None = None):
        self.H = np.asarray(H, dtype=float)
        self.c = np.zeros(self.H.shape[0]) if c is None else np.asarray(c, dtype=float)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def value(self, x: np.ndarray):
        return 0.5 * np.vecdot(x, matmul_rows(x, self.H.T)) + matmul_rows(x, self.c)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return matmul_rows(x, self.H.T) + self.c

    subgrad = grad

    def quadratic_parts(self):
        return self.H, self.c, 0.0

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        # transposed, so the rows of an (R, d) z are R right-hand sides
        return np.linalg.solve(self.H + c * np.eye(self.dim), (c * z - self.c).T).T


class L1Norm:
    """coef * ||.||_1; usable on either block (has both subgrad and prox)."""

    def __init__(self, coef: float = 1.0):
        if coef < 0:
            raise ValueError("l1 coefficient must be nonnegative")
        self.coef = float(coef)

    def value(self, x: np.ndarray):
        return self.coef * np.sum(np.abs(x), axis=-1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.coef * np.sign(x)

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return soft_threshold(np.asarray(z, dtype=float), self.coef / c)

    def conjugate(self, z: np.ndarray, Y, rho=None) -> np.ndarray:
        """(coef ||.||_1 + i_Y)*(z).  Over a box, each coordinate's term
        t z_i - coef |t| is concave and piecewise linear, so its maximum is
        at lo_i, hi_i or, inside the box, the kink 0.  Over a ball of radius
        r the maximizer has the signs of z on the entries above coef, which
        gives r ||soft(z, coef)||: the ball's support at soft(z, coef); the
        whole space's at radius rho."""
        if not isinstance(Y, Box):
            return Y.support(soft_threshold(z, self.coef), rho)
        c, lo, hi = self.coef, Y.lo, Y.hi
        best = np.maximum(lo * z - c * abs(lo), hi * z - c * abs(hi))
        return np.sum(np.where((lo <= 0) & (hi >= 0), np.maximum(best, 0.0), best),
                      axis=-1)


class SquaredL2Penalty:
    """(coef/2) ||.||^2."""

    def __init__(self, coef: float = 1.0):
        self.coef = float(coef)

    def value(self, y: np.ndarray):
        return 0.5 * self.coef * np.vecdot(y, y)

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.coef * y

    subgrad = grad

    def quadratic_parts_for(self, dim: int):
        return self.coef * np.eye(dim), np.zeros(dim), 0.0

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return c * np.asarray(z, dtype=float) / (c + self.coef)

    def conjugate(self, z: np.ndarray, Y, rho=None) -> np.ndarray:
        """((coef/2)||.||^2 + i_Y)*(z): the maximizer of <t, z> -
        (coef/2)||t||^2 over Y is the projection t of z / coef onto Y, on the
        whole space z / coef itself, which gives ||z||^2 / (2 coef).  For
        coef = 0 the entry is the zero function, whose conjugate is Y's
        support (ZeroFunction.conjugate)."""
        if not self.coef:
            return Y.support(z, rho)
        t = Y.project(z / self.coef)
        return np.vecdot(t, z) - 0.5 * self.coef * np.vecdot(t, t)


class ZeroFunction:
    """The zero function; prox is the identity (set handling is elsewhere)."""

    def value(self, y: np.ndarray):
        return np.zeros(np.shape(y)[:-1])[()]  # a scalar for one point

    def subgrad(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(y, dtype=float))

    def prox(self, z: np.ndarray, c: float) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def conjugate(self, z: np.ndarray, Y, rho=None) -> np.ndarray:
        """(i_Y)*(z), the support function of Y (of the rho-ball for the
        whole space)."""
        return Y.support(z, rho)
