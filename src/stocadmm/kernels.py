"""Identity-split update of replication-batched stochastic runs
(A = I, B = -I, b = 0).

For an identity split the x-subproblem of the stochastic step is an isotropic
quadratic over X, so its minimizer is the projection of a closed-form point,
and the y-update is the prox of theta2 at x - lam/beta.  A run takes it when
its plan says so (StepPlan.takes_identity_split).  admm_identity_split
passes the update, for R replications as (R, d) arrays, to solvers.loop,
which owns the rest of every run.  The projection is the spec's own method
(for a ball, a copy when every row is inside) and the prox is the plan's
y_prox, the map the plan's update (step()) applies through
solvers.solve_y_update, which this update does not call; so each
replication's trajectory agrees with run() on its stream up to
floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from .oracle import SampleBuffer
from .problem import IterateState
from .solvers import SolverError, StepPlan, Trajectory, loop

__all__ = ["admm_identity_split"]


def admm_identity_split(plan: StepPlan, idx, noise, state: IterateState,
                        theta_star: float | None = None,
                        record_at: np.ndarray | None = None) -> list[Trajectory]:
    """Advance state, R replications with (R, d) arrays, by the plan's t_max
    stochastic ADMM steps and return one trajectory per replication.

    plan must take the identity split (StepPlan.takes_identity_split).
    idx: (R, t) sampled component indices, idx[r, k] for step k of
    replication r, or None for the exact (sub)gradient; noise: (R, t, d)
    rows added to it, or None.  theta_star and record_at are those of
    solvers.run, and each trajectory's final_state is its replication of
    state.
    """
    if not plan.takes_identity_split:
        raise SolverError("the identity-split update needs an unchecked stochastic "
                          "plan with A = I, B = -I and b = 0")
    spec, beta, y_prox = plan.spec, plan.beta, plan.y_prox
    # for beta = 1, a product with beta or a quotient by it is its operand
    unit = beta == 1.0

    def update(state, g, eta):
        # x-update: the quadratic is isotropic, so its minimizer over X is
        # the projection of the unconstrained one
        x = spec.X.project(((state.y if unit else beta * state.y) + state.lam
                            + state.x / eta - g) / (beta + 1.0 / eta))
        # y-update: the plan's prox map, whose scale beta*s^2 is beta
        y = y_prox(x - (state.lam if unit else state.lam / beta))
        state.advance(x, y, state.lam - ((x - y) if unit else beta * (x - y)))

    return loop(plan, state, update, SampleBuffer(idx, noise), theta_star, record_at)
