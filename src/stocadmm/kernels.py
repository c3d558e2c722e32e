"""Replication-batched iteration kernel for identity-split problems
(A = I, B = -I, b = 0).

For an identity split the x-subproblem of the stochastic step is an isotropic
quadratic over X, so its minimizer is the projection of a closed-form point,
and the y-update is the prox of theta2 at x - lam/beta.  The kernel advances
R independent replications together as one IterateState with (R, d) arrays,
so the interpreter overhead of a step is paid once for all R replications.
Everything but that update is shared with the step-by-step loop of
solvers.run: the sampled subgradient (SampleBuffer.subgradient on the
stacked per-stream draws, so each replication sees the draws of its own
stream), the stepsize, the running averages and the recorded rows, whose
metrics one pass computes after the loop (solvers.RecordedRows).  The
subgradients, the projection and the prox are the spec's own methods,
called with a leading replication axis, so each replication's trajectory
agrees with run() on its stream up to floating-point summation order.
"""

from __future__ import annotations

import time

import numpy as np

from .oracle import SampleBuffer
from .problem import IterateState, ProblemSpec
from .prox import prox_theta2
from .solvers import RecordedRows, SolverConfig, Trajectory

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
    None.  theta_star and record_at are those of solvers.run.  A row's step_ms
    is the wall time of the batched step divided by R, and each trajectory's
    final_state is its replication of state.
    """
    draws = SampleBuffer(idx, noise)
    beta = cfg.beta
    R = len(state.x)
    rows = RecordedRows(state, cfg.t_max, record_at)
    for k in range(cfg.t_max):
        t0 = time.perf_counter()
        eta = cfg.eta(k + 1, spec)
        g = draws.subgradient(spec.theta1, state.x, k)
        # x-update: the quadratic is isotropic, so its minimizer over X is
        # the projection of the unconstrained one
        x = spec.X.project((beta * state.y + state.lam + state.x / eta - g)
                           / (beta + 1.0 / eta))
        y = prox_theta2(x - state.lam / beta, beta, spec.theta2, spec.Y)
        state.advance(x, y, state.lam - beta * (x - y))
        rows.record(state, eta, (time.perf_counter() - t0) * 1e3 / R)
    return rows.trajectories(spec, cfg.rho, theta_star,
                             [state.replication(r) for r in range(R)])
