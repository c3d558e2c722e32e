"""Entry of the stochastic runs that take the identity split (A = I, B = -I,
b = 0), one replication or R batched.

admm_identity_split runs the plan's own update (StepPlan.update, the one
update of every run) in solvers.loop, on the draws of the arrays idx and
noise, so its trajectories are those of run() on the same streams, bit for
bit.  It refuses a plan that does not take the identity split
(StepPlan.takes_identity_split), which harness.run_replications reads to
pick this entry.
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
    """Advance state, one replication with 1-D arrays or R with (R, d)
    arrays, by the plan's t_max stochastic ADMM steps and return one
    trajectory per replication.

    plan must take the identity split (StepPlan.takes_identity_split).
    idx: sampled component indices, (t,) for one replication and (R, t)
    for R, idx[r, k] for step k of replication r, or None for the exact
    (sub)gradient; noise: (t, d) or (R, t, d) rows added to it, or None
    (oracle.presample_streams gives both).  theta_star and record_at are
    those of solvers.run, and each trajectory's final_state is its
    replication of state.
    """
    if not plan.takes_identity_split:
        raise SolverError("the identity-split update needs an unchecked stochastic "
                          "plan with A = I, B = -I and b = 0")
    return loop(plan, state, plan.update, SampleBuffer(idx, noise), theta_star,
                record_at)
