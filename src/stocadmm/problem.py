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

from .functions import matmul_rows
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
    """The problem min theta1(x) + theta2(y) s.t. A x + B y = b, x in X,
    y in Y, with its structural constants.

    Construction reads three exact facts of the constraint once: A = I
    (A_identity), B = s*I for a nonzero s (B_scale, s; None for any other
    B) and b = 0 (b_zero).  residual, eval_F and the checks use them: a
    product with I is its operand, one with s*I is s times its operand, and
    for s = -1 a sum or difference with -y is the difference or sum with y;
    b = 0 is left out.  Each gives the values of the product or sum it
    replaces for finite operands (up to the sign of a zero); a non-finite
    entry stays in its own place, where a product would spread it as NaN
    over its row.
    """

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
        d1, d2 = A.shape[1], B.shape[1]
        object.__setattr__(self, "A_identity",
                           A.shape == (d1, d1) and np.array_equal(A, np.eye(d1)))
        s = float(B[0, 0]) if B.shape == (d2, d2) and d2 > 0 else 0.0
        object.__setattr__(self, "B_scale",
                           s if s != 0 and np.array_equal(B, s * np.eye(d2)) else None)
        object.__setattr__(self, "b_zero", not np.any(b))

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
        """A x + B y - b, row by row for (P, d) rows of x and y, by the
        constraint's exact facts."""
        Ax = x if self.A_identity else matmul_rows(x, self.A.T)
        s = self.B_scale
        r = (Ax + matmul_rows(y, self.B.T) if s is None
             else Ax - y if s == -1.0 else Ax + s * y)
        return r if self.b_zero else r - self.b

    def B_transpose(self, v: np.ndarray) -> np.ndarray:
        """B'v, row by row for (P, m) rows of v, by the constraint's exact
        facts."""
        s = self.B_scale
        return matmul_rows(v, self.B) if s is None else s * v


@dataclass(frozen=True)
class StackedW:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def __getitem__(self, r) -> "StackedW":
        """Each part indexed by r over its leading axes: row r of parts with
        a leading replication axis, or any index that keeps the last axis."""
        return StackedW(self.x[r], self.y[r], self.lam[r])

    def __sub__(self, other: "StackedW") -> "StackedW":
        return StackedW(self.x - other.x, self.y - other.y, self.lam - other.lam)

    def dot(self, other: "StackedW"):
        """Inner product, row by row when either side holds (P, d) rows."""
        return (np.vecdot(self.x, other.x) + np.vecdot(self.y, other.y)
                + np.vecdot(self.lam, other.lam))


def eval_F(w: StackedW, spec: ProblemSpec) -> StackedW:
    """F(w) = (-A'lam, -B'lam, A x + B y - b), row by row for parts with
    leading axes, by the constraint's exact facts."""
    if (w.x.shape[-1:] != (spec.d1,) or w.y.shape[-1:] != (spec.d2,)
            or w.lam.shape[-1:] != (spec.m,)):
        raise ValueError("stacked vector does not match problem dimensions")
    neg_lam = -w.lam
    return StackedW(neg_lam if spec.A_identity else matmul_rows(neg_lam, spec.A),
                    spec.B_transpose(neg_lam), spec.residual(w.x, w.y))


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
    """Mutable per-run iterate (x_k, y_k, lam_k) with the running sums of
    its averages.

    Two averaging conventions are maintained simultaneously:

    * shifted: x averaged over indices 0..k-1 (sum_x_shifted), y over 1..k
      (sum_y);
    * aligned: x averaged over 1..k (sum_x_aligned; the y averages coincide).

    Each average is its sum divided by k.  The three sums sit side by side
    in one contiguous array, sums, of shape (..., 2*d1 + d2): x shifted, x
    aligned, y; sum_x_shifted, sum_x_aligned and sum_y are views into it.
    A state of one replication holds 1-D arrays, one of R > 1 replications
    advanced together (R, d) arrays; replications() lists them.
    """

    def __init__(self, x0: np.ndarray, y0: np.ndarray, lam0: np.ndarray):
        self.x = np.array(x0, dtype=float)
        self.y = np.array(y0, dtype=float)
        self.lam = np.array(lam0, dtype=float)
        self.k = 0
        d1, d2 = self.x.shape[-1], self.y.shape[-1]
        self.sums = np.zeros(self.x.shape[:-1] + (2 * d1 + d2,))

    @classmethod
    def zeros(cls, spec: ProblemSpec, replications: int = 1) -> "IterateState":
        """The zero state of R replications: 1-D arrays for R = 1, (R, d)
        arrays for R > 1."""
        lead = () if replications == 1 else (replications,)
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

    def replications(self) -> list["IterateState"]:
        """Each replication's state: this state itself when it holds one
        replication (1-D arrays), else replication(r) for each row r."""
        if self.x.ndim == 1:
            return [self]
        return [self.replication(r) for r in range(len(self.x))]

    def advance(self, x_new: np.ndarray, y_new: np.ndarray, lam_new: np.ndarray):
        """Record one completed iteration k -> k+1, with one contiguous add
        of (x_k, x_{k+1}, y_{k+1}) into the sums: an add into each strided
        column view took about three times as long at R = 16."""
        self.sums += np.concatenate((self.x, x_new, y_new), axis=-1)
        self.x, self.y, self.lam = x_new, y_new, lam_new
        self.k += 1

    @staticmethod
    def sum_slices(d1: int) -> tuple:
        """The slices of the x shifted, x aligned and y sums in the last axis
        of sums, for x of dimension d1."""
        return slice(0, d1), slice(d1, 2 * d1), slice(2 * d1, None)

    @property
    def sum_x_shifted(self) -> np.ndarray:
        return self.sums[..., self.sum_slices(self.x.shape[-1])[0]]

    @property
    def sum_x_aligned(self) -> np.ndarray:
        return self.sums[..., self.sum_slices(self.x.shape[-1])[1]]

    @property
    def sum_y(self) -> np.ndarray:
        return self.sums[..., self.sum_slices(self.x.shape[-1])[2]]

    @property
    def avg_x_shifted(self) -> np.ndarray:
        return self.sum_x_shifted / max(self.k, 1)

    @property
    def avg_x_aligned(self) -> np.ndarray:
        return self.sum_x_aligned / max(self.k, 1)

    @property
    def avg_y(self) -> np.ndarray:
        return self.sum_y / max(self.k, 1)

    def as_w(self) -> StackedW:
        return StackedW(self.x.copy(), self.y.copy(), self.lam.copy())
