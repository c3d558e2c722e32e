"""Identity-split update of replication-batched stochastic runs
(A = I, B = -I, b = 0).

For an identity split the x-subproblem of the stochastic step is an isotropic
quadratic over X, so its minimizer is the projection of a closed-form point,
and the y-update is the prox of theta2 at x - lam/beta.  admm_identity_split
passes that update, for R replications as (R, d) arrays, to solvers.loop,
which owns the rest of every run: the stepsize, the draws of each stream,
the capture of a step's error and the recorded rows.  The projection and the
prox are the spec's own methods, so each replication's trajectory agrees
with run() on its stream up to floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from .oracle import SampleBuffer
from .problem import IterateState, ProblemSpec
from .prox import prox_theta2
from .solvers import SolverConfig, Trajectory, loop

__all__ = ["admm_identity_split", "identity_split"]


def identity_split(spec: ProblemSpec) -> bool:
    """Whether spec has A = I, B = -I and b = 0 exactly, the structure
    admm_identity_split needs."""
    eye = np.eye(spec.d1)
    return (np.array_equal(spec.A, eye) and np.array_equal(spec.B, -eye)
            and not np.any(spec.b))


def admm_identity_split(spec: ProblemSpec, cfg: SolverConfig, idx, noise,
                        state: IterateState, theta_star: float | None = None,
                        record_at: np.ndarray | None = None) -> list[Trajectory]:
    """Advance state, R replications with (R, d) arrays, by cfg.t_max
    stochastic ADMM steps and return one trajectory per replication.

    spec must be an identity split (see identity_split).  idx: (R, t)
    sampled component indices, idx[r, k] for step k of replication r, or
    None for the exact (sub)gradient; noise: (R, t, d) rows added to it, or
    None.  theta_star and record_at are those of solvers.run, and each
    trajectory's final_state is its replication of state.
    """
    beta = cfg.beta

    def update(state, g, eta):
        # x-update: the quadratic is isotropic, so its minimizer over X is
        # the projection of the unconstrained one
        x = spec.X.project((beta * state.y + state.lam + state.x / eta - g)
                           / (beta + 1.0 / eta))
        y = prox_theta2(x - state.lam / beta, beta, spec.theta2, spec.Y)
        state.advance(x, y, state.lam - beta * (x - y))

    return loop(spec, cfg, state, update, SampleBuffer(idx, noise), theta_star,
                record_at)
