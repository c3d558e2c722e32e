"""Stochastic first-order oracles.

An oracle draws the randomness of a run in one batch (presample), and
presample_streams is the one producer of a run's draws: one stream's as its
oracle draws them, or R streams' stacked.  SampleBuffer.subgradient turns the
draws of step k into the sampled subgradient g, for one stream or for R
streams stacked, from the component data it gathers a block of steps at a
time.  The deviation delta = g - E g is needed only by the per-iteration
invariant checks, which compute it from the exact subgradient of theta1.
The moment bounds the analysis rests on, E||g||^2 <= M^2 and
E||delta||^2 <= sigma^2, are the presets' declared constants; the tests
check them exactly, by enumerating the components.

Randomness is addressed counter-style: every oracle is keyed by a 64-bit seed
and a replication stream id, and all draws for one run come from a Philox
generator keyed by (seed, stream).  Replications therefore need no shared
mutable state and are reproducible independently of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleBuffer",
    "presample_streams",
    "FiniteSumOracle",
    "AdditiveNoiseOracle",
]


# most bytes of component data one gathered block of a SampleBuffer holds:
# the parts of its steps for every stream (at least one step's).  A bound in
# bytes, not in steps, bounds a block's memory whatever t, R and d are.
GATHER_BYTES = 256 * 1024


@dataclass
class SampleBuffer:
    """Pre-drawn randomness of one stream, or of R streams stacked along a
    leading axis: component indices and/or noise rows.

    Pre-drawing in one batch pins the exact generator consumption pattern, so
    a stream's replication sees the same draws whatever R it runs with.
    indices is None for an oracle that uses the exact subgradient, noise for
    one that adds no noise.

    The data of the sampled components (theta1.parts) is gathered a block of
    B steps at a time, one fancy index per part for every stream, as (B, R,
    ...) arrays whose row j is step start + j's contiguous (R, ...) part.  B
    is the most steps whose parts fit in GATHER_BYTES, at least one, so a
    block holds about R*B*(d + 1)*8 bytes for a design row and a target or
    label per component, whatever t is.
    """

    indices: np.ndarray | None
    noise: np.ndarray | None
    # (theta1, start, stop, parts) of the block of steps start..stop-1
    block: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def subgradient(self, theta1, x: np.ndarray, k: int) -> np.ndarray:
        """The sampled subgradient of theta1 at x for step k: the component
        gradient at indices[..., k] (no indices: the exact subgradient) plus
        noise[..., k, :].  x is (d,) for one stream, (R, d) for R stacked."""
        if self.indices is None:
            g = theta1.subgrad(x)
        else:
            owner, start, stop, parts = self.block or (None, 0, 0, ())
            if owner is not theta1 or not start <= k < stop:
                owner, start, stop, parts = self._gather(theta1, k)
            g = theta1.parts_grad(x, *[part[k - start] for part in parts])
        if self.noise is not None:
            g = g + self.noise[..., k, :]
        return g

    def _gather(self, theta1, k: int) -> tuple:
        """Gather the parts of the block of steps that holds step k."""
        idx = self.indices
        step_bytes = sum(part.nbytes for part in theta1.parts(idx[..., 0]))
        steps = max(1, GATHER_BYTES // step_bytes)
        start = k - k % steps
        stop = min(start + steps, idx.shape[-1])
        self.block = (theta1, start, stop, theta1.parts(idx[..., start:stop].T))
        return self.block


def presample_streams(oracles, t: int) -> SampleBuffer:
    """The draws of t steps of each oracle's stream, each by its oracle's
    presample(t): one oracle's own, (t,) indices and (t, d) noise, or those
    of R oracles stacked to (R, t) and (R, t, d).  Either is None when the
    oracles draw none."""
    buffers = [oracle.presample(t) for oracle in oracles]
    if len(buffers) == 1:
        return buffers[0]
    return SampleBuffer(*(None if getattr(buffers[0], name) is None
                          else np.stack([getattr(b, name) for b in buffers])
                          for name in ("indices", "noise")))


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


class FiniteSumOracle:
    """Uniform component sampling over a finite-sum objective.

    The wrapped function must expose n, the number of components presample
    draws from, and the parts and parts_grad that SampleBuffer.subgradient
    reads; its exact subgradient is the average of the component
    subgradients.  Its component_grad, one component's gradient, is what
    the tests check those against.
    """

    bounded = True  # finitely many components on a compact set

    def __init__(self, theta1, seed: int = 0, stream: int = 0):
        self.theta1 = theta1
        self._rng = _generator(int(seed), int(stream))

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
        self._rng = _generator(int(seed), int(stream))

    @property
    def bounded(self) -> bool:
        return self.kind in ("uniform", "none")

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
