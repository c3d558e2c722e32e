"""Core data model: problem specification, stacked iterates, running averages.

The linearly constrained two-block problem is

    min  f1(x) + f2(y)   s.t.  A x + B y = b,  x in X,  y in Y,

where f1 is (possibly) stochastic with a known exact expectation and f2 is
deterministic.  The affine map F(w) = (-A'lam, -B'lam, A x + B y - b) over the
stacked variable w = (x, y, lam) has a skew-symmetric linear part, which is
what the runtime invariant checkers exploit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .sets import SetDescriptor

__all__ = [
    "StructuralConstants",
    "ProblemSpec",
    "StackedW",
    "IterateState",
    "eval_F",
    "err_rho",
]


@dataclass(frozen=True)
class StructuralConstants:
    """Declared structural constants entering stepsize schedules and bounds.

    M bounds the second moment of sampled subgradients over X, sigma the
    gradient variance, mu the strong-convexity modulus of f1 (0 if none),
    L its gradient Lipschitz constant (None if nonsmooth).  ||B(y0 - y*)||
    in the bounds is taken from the reference solution.
    """

    M: float
    sigma: float = 0.0
    mu: float = 0.0
    L: float | None = None

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError("M must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.L is not None and not self.L > 0:
            raise ValueError("L must be positive when given")


@dataclass(frozen=True)
class ProblemSpec:
    theta1: object
    theta2: object
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    X: SetDescriptor
    Y: SetDescriptor
    constants: StructuralConstants

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        if A.shape[0] != B.shape[0] or A.shape[0] != b.shape[0]:
            raise ValueError(
                f"constraint rows inconsistent: A has {A.shape[0]}, "
                f"B has {B.shape[0]}, b has {b.shape[0]}"
            )
        if self.X.dim != A.shape[1]:
            raise ValueError(f"X dim {self.X.dim} != cols(A) {A.shape[1]}")
        if self.Y.dim != B.shape[1]:
            raise ValueError(f"Y dim {self.Y.dim} != cols(B) {B.shape[1]}")

    @property
    def d1(self) -> int:
        return self.A.shape[1]

    @property
    def d2(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def diameter_x(self) -> float:
        """Euclidean diameter of X (declared one for whole-space X)."""
        return self.X.diameter

    def theta(self, x: np.ndarray, y: np.ndarray):
        """Exact combined objective f1(x) + f2(y), row by row for (P, d) x, y."""
        return self.theta1.value(x) + self.theta2.value(y)

    def residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A x + B y - b, row by row for (P, d) rows of x and y."""
        return x @ self.A.T + y @ self.B.T - self.b


@dataclass(frozen=True)
class StackedW:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def __getitem__(self, r) -> "StackedW":
        """Row r of each part, for parts with a leading replication axis."""
        return StackedW(self.x[r], self.y[r], self.lam[r])

    def __sub__(self, other: "StackedW") -> "StackedW":
        return StackedW(self.x - other.x, self.y - other.y, self.lam - other.lam)

    def dot(self, other: "StackedW"):
        """Inner product, row by row when either side holds (P, d) rows."""
        return (np.vecdot(self.x, other.x) + np.vecdot(self.y, other.y)
                + np.vecdot(self.lam, other.lam))


def eval_F(w: StackedW, spec: ProblemSpec) -> StackedW:
    """F(w) = (-A'lam, -B'lam, A x + B y - b)."""
    if w.x.shape != (spec.d1,) or w.y.shape != (spec.d2,) or w.lam.shape != (spec.m,):
        raise ValueError("stacked vector does not match problem dimensions")
    return StackedW(
        -spec.A.T @ w.lam,
        -spec.B.T @ w.lam,
        spec.A @ w.x + spec.B @ w.y - spec.b,
    )


def err_rho(u_bar, spec: ProblemSpec, theta_star: float, rho: float):
    """Combined optimality measure of an averaged pair (x_bar, y_bar).

    Returns (err, gap, feas) where err = gap + rho * feas, gap is the exact
    objective minus theta_star and feas the Euclidean constraint violation.
    (P, d) rows of x_bar and y_bar give (P,) arrays, one entry per pair.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    x_bar, y_bar = u_bar
    try:
        gap = spec.theta(x_bar, y_bar) - theta_star
    except AttributeError as exc:
        raise ValueError(
            "objective handles must provide exact expectation values; supply "
            "a reference objective evaluator"
        ) from exc
    feas = np.linalg.norm(spec.residual(x_bar, y_bar), axis=-1)
    return gap + rho * feas, gap, feas


class IterateState:
    """Mutable per-run iterate (x_k, y_k, lam_k) with running averages.

    Two averaging conventions are maintained simultaneously:

    * shifted: x averaged over indices 0..k-1, y over 1..k;
    * aligned: x averaged over 1..k (the y averages coincide).

    The arrays may carry a leading replication axis, (R, d) for R
    replications advanced together; replication(r) is one of them.
    """

    def __init__(self, x0: np.ndarray, y0: np.ndarray, lam0: np.ndarray):
        self.x = np.array(x0, dtype=float)
        self.y = np.array(y0, dtype=float)
        self.lam = np.array(lam0, dtype=float)
        self.k = 0
        self._sum_x_shifted = np.zeros_like(self.x)
        self._sum_x_aligned = np.zeros_like(self.x)
        self._sum_y = np.zeros_like(self.y)

    @classmethod
    def zeros(cls, spec: ProblemSpec, replications: int | None = None) -> "IterateState":
        """The zero state of one run, or of R replications as (R, d) arrays."""
        lead = () if replications is None else (replications,)
        return cls(np.zeros(lead + (spec.d1,)), np.zeros(lead + (spec.d2,)),
                   np.zeros(lead + (spec.m,)))

    def replication(self, r: int) -> "IterateState":
        """Replication r of a batched state, whose arrays carry a leading
        replication axis; the result's arrays are views into this state's."""
        view = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(view, name, value[r])
        return view

    def advance(self, x_new: np.ndarray, y_new: np.ndarray, lam_new: np.ndarray):
        """Record one completed iteration k -> k+1."""
        self._sum_x_shifted += self.x
        self.x, self.y, self.lam = x_new, y_new, lam_new
        self._sum_x_aligned += self.x
        self._sum_y += self.y
        self.k += 1

    def write_averages(self, x_shifted: np.ndarray, x_aligned: np.ndarray,
                       y: np.ndarray):
        """Write the three averages into the given arrays, without a
        temporary; the values are those of the properties below."""
        k = max(self.k, 1)
        np.divide(self._sum_x_shifted, k, out=x_shifted)
        np.divide(self._sum_x_aligned, k, out=x_aligned)
        np.divide(self._sum_y, k, out=y)

    @property
    def avg_x_shifted(self) -> np.ndarray:
        return self._sum_x_shifted / max(self.k, 1)

    @property
    def avg_x_aligned(self) -> np.ndarray:
        return self._sum_x_aligned / max(self.k, 1)

    @property
    def avg_y(self) -> np.ndarray:
        return self._sum_y / max(self.k, 1)

    def as_w(self) -> StackedW:
        return StackedW(self.x.copy(), self.y.copy(), self.lam.copy())
