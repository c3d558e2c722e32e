"""Stochastic first-order oracles and statistical assumption validators.

An oracle draws the randomness of a run in one batch (presample), and
SampleBuffer.subgradient turns the draws of step k into the sampled
subgradient g, for one stream or for R streams stacked.  The deviation
delta = g - E g is needed only by the per-iteration invariant checks and by
validate_assumptions, which compute it from the exact subgradient
theta1.subgrad(x).

Randomness is addressed counter-style: every oracle is keyed by a 64-bit seed
and a replication stream id, and all draws for one run come from a Philox
generator keyed by (seed, stream).  Replications therefore need no shared
mutable state and are reproducible independently of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampleBuffer",
    "FiniteSumOracle",
    "AdditiveNoiseOracle",
    "validate_assumptions",
    "AssumptionReport",
]


@dataclass(frozen=True)
class SampleBuffer:
    """Pre-drawn randomness of one stream, or of R streams stacked along a
    leading axis: component indices and/or noise rows.

    Pre-drawing in one batch pins the exact generator consumption pattern, so
    the batched kernel path and the step-by-step path see identical draws.
    indices is None for an oracle that uses the exact subgradient, noise for
    one that adds no noise.
    """

    indices: np.ndarray | None
    noise: np.ndarray | None

    def subgradient(self, theta1, x: np.ndarray, k: int) -> np.ndarray:
        """The sampled subgradient of theta1 at x for step k: the component
        gradient at indices[..., k] (no indices: the exact subgradient) plus
        noise[..., k, :].  x is (d,) for one stream, (R, d) for R stacked."""
        if self.indices is None:
            g = theta1.subgrad(x)
        else:
            g = theta1.component_grad(x, self.indices[..., k])
        if self.noise is not None:
            g = g + self.noise[..., k, :]
        return g


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


class FiniteSumOracle:
    """Uniform component sampling over a finite-sum objective.

    The wrapped function must expose n and component_grad; its exact
    subgradient is the average of the component subgradients.
    """

    bounded = True  # finitely many components on a compact set

    def __init__(self, theta1, seed: int = 0, stream: int = 0):
        self.theta1 = theta1
        self.seed = int(seed)
        self.stream = int(stream)
        self._rng = _generator(self.seed, self.stream)

    def clone(self, stream: int) -> "FiniteSumOracle":
        return FiniteSumOracle(self.theta1, seed=self.seed, stream=stream)

    def presample(self, t: int) -> SampleBuffer:
        idx = self._rng.integers(0, self.theta1.n, size=t, dtype=np.int64)
        return SampleBuffer(indices=idx, noise=None)


class AdditiveNoiseOracle:
    """Exact subgradient of a base convex function plus zero-mean noise.

    kind 'gaussian' draws N(0, sigma^2/d * I); 'uniform' draws componentwise
    uniform noise with total variance sigma^2 (bounded support, so the
    sub-Gaussian moment condition holds by construction); 'none' is the
    zero-noise degenerate oracle.
    """

    def __init__(self, theta1, sigma: float, kind: str = "gaussian",
                 seed: int = 0, stream: int = 0):
        if kind not in ("gaussian", "uniform", "none"):
            raise ValueError(f"unknown noise kind {kind!r}")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.theta1 = theta1
        self.sigma = float(sigma)
        self.kind = "none" if sigma == 0 else kind
        self.seed = int(seed)
        self.stream = int(stream)
        self._rng = _generator(self.seed, self.stream)

    @property
    def bounded(self) -> bool:
        return self.kind in ("uniform", "none")

    def clone(self, stream: int) -> "AdditiveNoiseOracle":
        return AdditiveNoiseOracle(self.theta1, self.sigma, kind=self.kind,
                                   seed=self.seed, stream=stream)

    def presample(self, t: int) -> SampleBuffer:
        d = self.theta1.dim
        if self.kind == "none":
            noise = None
        elif self.kind == "gaussian":
            noise = self._rng.standard_normal((t, d)) * (self.sigma / math.sqrt(d))
        else:
            # uniform on [-a, a]^d with a chosen so the total variance is sigma^2
            a = self.sigma * math.sqrt(3.0 / d)
            noise = self._rng.uniform(-a, a, size=(t, d))
        return SampleBuffer(indices=None, noise=noise)


@dataclass(frozen=True)
class AssumptionReport:
    sup_second_moment: float
    second_moment_ci: float
    sup_variance: float
    variance_ci: float
    declared_M2: float | None
    declared_sigma2: float | None
    second_moment_ok: bool
    variance_ok: bool


def validate_assumptions(oracle, X, n_samples: int, n_points: int = 10,
                         declared_M: float | None = None,
                         declared_sigma: float | None = None,
                         seed: int = 1234) -> AssumptionReport:
    """Empirically probe the moment bounds the analysis relies on.

    At n_points random points of X, estimates E||g||^2 and E||delta||^2 over
    n_samples draws each and reports the sup over points together with a
    normal-approximation confidence radius (3 standard errors).  Report-only:
    a flagged violation never raises.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1e3 for a meaningful estimate")
    rng = np.random.default_rng(seed)
    probe = oracle.clone(stream=2**32 + 1)  # isolated stream for validation
    sup_m2 = sup_var = 0.0
    ci_m2 = ci_var = 0.0
    for _ in range(n_points):
        x = X.project(X.sample(rng))
        exact = oracle.theta1.subgrad(x)
        draws = probe.presample(n_samples)
        g = np.array([draws.subgradient(probe.theta1, x, j) for j in range(n_samples)])
        delta = g - exact
        g2 = np.einsum("ij,ij->i", g, g)
        d2 = np.einsum("ij,ij->i", delta, delta)
        m2 = float(np.mean(g2))
        var = float(np.mean(d2))
        if m2 >= sup_m2:
            sup_m2 = m2
            ci_m2 = 3.0 * float(np.std(g2, ddof=1)) / math.sqrt(n_samples)
        if var >= sup_var:
            sup_var = var
            ci_var = 3.0 * float(np.std(d2, ddof=1)) / math.sqrt(n_samples)
    M2 = None if declared_M is None else declared_M**2
    s2 = None if declared_sigma is None else declared_sigma**2
    return AssumptionReport(
        sup_second_moment=sup_m2,
        second_moment_ci=ci_m2,
        sup_variance=sup_var,
        variance_ci=ci_var,
        declared_M2=M2,
        declared_sigma2=s2,
        second_moment_ok=(M2 is None or sup_m2 - ci_m2 <= M2),
        variance_ok=(s2 is None or sup_var - ci_var <= s2),
    )
