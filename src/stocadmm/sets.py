"""Feasible-set descriptors with exact projections and exact diameters.

Three set families are supported: the whole space (with an optional
user-declared diameter, needed by the convex stepsize schedule), an
origin-centered Euclidean ball, and an axis-aligned box.  All of them admit
closed-form Euclidean projections, which keeps every subproblem solve exact.
A projection also takes an (R, d) array and projects each row, and sample
with size=P draws (P, d) rows, with size=(n, P) an (n, P, d) array.

Each set also gives its support function sigma(v) = sup_{u in set} <u, v>
in closed form, at a point or at each row of v, which the invariant checks
take as the worst case of a relation that must hold at every point of the
set.  The whole space's is infinite off v = 0, so it gives that of the
origin-centered ball of a stated radius rho, one per row, in its place; a
ball and a box ignore rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WholeSpace", "Ball", "Box", "SetDescriptor"]


def _shape(dim: int, size: int | tuple | None) -> tuple:
    """Shape of one sampled point, or of a size-shaped array of them."""
    return (dim,) if size is None else (*np.atleast_1d(size), dim)


@dataclass(frozen=True)
class WholeSpace:
    dim: int
    declared_diameter: float | None = None

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def contains(self, z: np.ndarray, tol: float = 0.0) -> bool:
        """Whether z is a point, or (R, d) rows of points, of this space."""
        return np.ndim(z) >= 1 and np.shape(z)[-1] == self.dim

    @property
    def diameter(self) -> float:
        if self.declared_diameter is None:
            raise ValueError(
                "whole-space set has no declared diameter; pass declared_diameter "
                "if a stepsize schedule needs one"
            )
        if not (self.declared_diameter > 0 and np.isfinite(self.declared_diameter)):
            raise ValueError("declared diameter must be positive and finite")
        return self.declared_diameter

    def sample(self, rng: np.random.Generator,
               size: int | tuple | None = None) -> np.ndarray:
        """Standard Gaussian points."""
        return rng.standard_normal(_shape(self.dim, size))

    def support(self, v: np.ndarray, rho) -> np.ndarray:
        """rho ||v||: the support function of the ball of radius rho (a
        scalar, or one per row of v) that stands in for the whole space."""
        return rho * np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class Ball:
    """Origin-centered Euclidean ball of the given radius."""

    dim: int
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    def project(self, z: np.ndarray) -> np.ndarray:
        """The projection of z, or of each row of z, as a new array.  A row
        with ||z|| <= radius is its own projection, since radius /
        max(||z||, radius) is then exactly 1; so when every row is inside,
        the result is a copy of z.  A NaN row takes the scaling."""
        z = np.asarray(z, dtype=float)
        nz = np.sqrt(np.vecdot(z, z))
        # for one point a numpy bool, whose truth value costs less than a count
        inside = nz <= self.radius
        if inside if inside.ndim == 0 else np.count_nonzero(inside) == inside.size:
            return z.copy()
        return z * (self.radius / np.maximum(nz, self.radius))[..., None]

    def contains(self, z: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether the point z, or every row of an (R, d) z, lies in the ball."""
        z = np.asarray(z, dtype=float)
        return (z.ndim >= 1 and z.shape[-1] == self.dim
                and bool(np.all(np.sqrt(np.vecdot(z, z)) <= self.radius * (1 + tol))))

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, rng: np.random.Generator,
               size: int | tuple | None = None) -> np.ndarray:
        # uniform on the ball: gaussian direction, radius ~ U^{1/d}
        v = rng.standard_normal(_shape(self.dim, size))
        r = self.radius * rng.uniform(size=size) ** (1.0 / self.dim)
        return v * (r / np.maximum(np.sqrt(np.vecdot(v, v)), 1e-300))[..., None]

    def support(self, v: np.ndarray, rho=None) -> np.ndarray:
        """radius ||v||, at a point or at each row of v."""
        return self.radius * np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {z : lo <= z <= hi} (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(z, dtype=float), self.lo, self.hi)

    def contains(self, z: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether the point z, or every row of an (R, d) z, lies in the box."""
        z = np.asarray(z, dtype=float)
        return (z.ndim >= 1 and z.shape[-1] == self.dim
                and bool(np.all(z >= self.lo - tol) and np.all(z <= self.hi + tol)))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def sample(self, rng: np.random.Generator,
               size: int | tuple | None = None) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, _shape(self.dim, size))

    def support(self, v: np.ndarray, rho=None) -> np.ndarray:
        """sum_i max(lo_i v_i, hi_i v_i), at a point or at each row of v."""
        return np.sum(np.maximum(self.lo * v, self.hi * v), axis=-1)


SetDescriptor = WholeSpace | Ball | Box
