"""Stochastic, linearized and deterministic ADMM for linearly constrained
separable convex problems, with runtime invariant checking and empirical
convergence-rate verification."""

from .functions import (HingeLoss, HingeSumPenalty, L1Norm, LeastSquares,
                        Quadratic, SquaredL2Penalty, ZeroFunction,
                        soft_threshold)
from .metrics import (RateFit, ReferenceSolution, compute_reference,
                      estimate_expectation, fit_rate, high_prob_check)
from .oracle import (AdditiveNoiseOracle, FiniteSumOracle, NoiseSample,
                     validate_assumptions)
from .presets import PRESET_NAMES, build_preset
from .problem import (IterateState, MonotoneOperatorF, ProblemSpec, StackedW,
                      StructuralConstants, err_rho, eval_F, stack, unstack)
from .prox import (project, prox_theta2, solve_x_subproblem,
                   three_points_check)
from .sets import Ball, Box, WholeSpace
from .solvers import (SolverConfig, Trajectory, step_inequality_check, run,
                      step_deterministic, step_linearized, step_stochastic)

__version__ = "0.1.0"
