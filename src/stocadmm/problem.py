"""Core data model: problem specification, stacked iterates, running averages.

The linearly constrained two-block problem is

    min  f1(x) + f2(y)   s.t.  A x + B y = b,  x in X,  y in Y,

where f1 is (possibly) stochastic with a known exact expectation and f2 is
deterministic.  The affine map F(w) = (-A'lam, -B'lam, A x + B y - b) over the
stacked variable w = (x, y, lam) has a skew-symmetric linear part, which is
what the runtime invariant checkers exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sets import SetDescriptor

__all__ = [
    "StructuralConstants",
    "ProblemSpec",
    "StackedW",
    "IterateState",
    "stack",
    "unstack",
    "eval_F",
    "err_rho",
]


@dataclass(frozen=True)
class StructuralConstants:
    """Declared structural constants entering stepsize schedules and bounds.

    M bounds the second moment of sampled subgradients over X, sigma the
    gradient variance, mu the strong-convexity modulus of f1 (0 if none),
    L its gradient Lipschitz constant (None if nonsmooth).  d_y_star_b is an
    optional hint for ||B(y0 - y*)||; when absent it is derived from the
    reference solution.
    """

    M: float
    sigma: float = 0.0
    mu: float = 0.0
    L: float | None = None
    d_y_star_b: float | None = None

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

    def theta(self, x: np.ndarray, y: np.ndarray) -> float:
        """Exact combined objective f1(x) + f2(y)."""
        return self.theta1.value(x) + self.theta2.value(y)

    def residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ y - self.b


@dataclass(frozen=True)
class StackedW:
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.lam])

    def __sub__(self, other: "StackedW") -> "StackedW":
        return StackedW(self.x - other.x, self.y - other.y, self.lam - other.lam)

    def dot(self, other: "StackedW") -> float:
        return float(
            self.x @ other.x + self.y @ other.y + self.lam @ other.lam
        )


def stack(x, y, lam, spec: ProblemSpec | None = None) -> StackedW:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if spec is not None:
        if x.shape != (spec.d1,) or y.shape != (spec.d2,) or lam.shape != (spec.m,):
            raise ValueError(
                f"stacked dims {x.shape[0]}/{y.shape[0]}/{lam.shape[0]} do not "
                f"match problem dims {spec.d1}/{spec.d2}/{spec.m}"
            )
    return StackedW(x, y, lam)


def unstack(w: StackedW):
    return w.x, w.y, w.lam


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
    feas = float(np.linalg.norm(spec.residual(x_bar, y_bar)))
    return gap + rho * feas, gap, feas


class IterateState:
    """Mutable per-run iterate (x_k, y_k, lam_k) with running averages.

    Two averaging conventions are maintained simultaneously:

    * shifted: x averaged over indices 0..k-1, y and lam over 1..k;
    * aligned: x averaged over 1..k (y and lam averages coincide).
    """

    def __init__(self, x0: np.ndarray, y0: np.ndarray, lam0: np.ndarray):
        self.x = np.array(x0, dtype=float)
        self.y = np.array(y0, dtype=float)
        self.lam = np.array(lam0, dtype=float)
        self.k = 0
        self._sum_x_shifted = np.zeros_like(self.x)
        self._sum_x_aligned = np.zeros_like(self.x)
        self._sum_y = np.zeros_like(self.y)
        self._sum_lam = np.zeros_like(self.lam)

    @classmethod
    def zeros(cls, spec: ProblemSpec) -> "IterateState":
        return cls(np.zeros(spec.d1), np.zeros(spec.d2), np.zeros(spec.m))

    @classmethod
    def from_sums(cls, k: int, x, y, lam, sum_x_shifted, sum_x_aligned, sum_y,
                  sum_lam) -> "IterateState":
        """State after k iterations run elsewhere, from its final iterate and
        running sums (x over 0..k-1 and 1..k, y and lam over 1..k)."""
        state = cls(x, y, lam)
        state.k = k
        state._sum_x_shifted = np.array(sum_x_shifted, dtype=float)
        state._sum_x_aligned = np.array(sum_x_aligned, dtype=float)
        state._sum_y = np.array(sum_y, dtype=float)
        state._sum_lam = np.array(sum_lam, dtype=float)
        return state

    def advance(self, x_new: np.ndarray, y_new: np.ndarray, lam_new: np.ndarray):
        """Record one completed iteration k -> k+1."""
        self._sum_x_shifted += self.x
        self.x, self.y, self.lam = x_new, y_new, lam_new
        self._sum_x_aligned += self.x
        self._sum_y += self.y
        self._sum_lam += self.lam
        self.k += 1

    @property
    def avg_x_shifted(self) -> np.ndarray:
        return self._sum_x_shifted / max(self.k, 1)

    @property
    def avg_x_aligned(self) -> np.ndarray:
        return self._sum_x_aligned / max(self.k, 1)

    @property
    def avg_y(self) -> np.ndarray:
        return self._sum_y / max(self.k, 1)

    @property
    def avg_lam(self) -> np.ndarray:
        return self._sum_lam / max(self.k, 1)

    def u_bar_shifted(self):
        return self.avg_x_shifted, self.avg_y

    def u_bar_aligned(self):
        return self.avg_x_aligned, self.avg_y

    def as_w(self) -> StackedW:
        return StackedW(self.x.copy(), self.y.copy(), self.lam.copy())
