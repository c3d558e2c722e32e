"""Stochastic, linearized and deterministic ADMM for linearly constrained
separable convex problems, with runtime invariant checking and empirical
convergence-rate verification."""

__version__ = "0.1.0"

from .functions import (HingeLoss, HingeSumPenalty, L1Norm, LeastSquares,
                        Quadratic, SquaredL2Penalty, ZeroFunction,
                        soft_threshold)
from .metrics import (RateFit, ReferenceSolution, compute_reference,
                      estimate_expectation, fit_rate, high_prob_check)
from .oracle import AdditiveNoiseOracle, FiniteSumOracle, validate_assumptions
from .presets import PRESET_NAMES, build_preset
from .problem import (IterateState, ProblemSpec, StackedW, StructuralConstants,
                      err_rho, eval_F, stack, unstack)
from .prox import prox_theta2, three_points_check
from .sets import Ball, Box, WholeSpace
from .solvers import (SolverConfig, StepPlan, Trajectory, run, step,
                      step_inequality_check)
