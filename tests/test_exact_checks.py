"""The exact invariant checks: the closed-form conjugates of the second-block
entries over each kind of Y (functions), the support functions of each kind
of set (sets), and the two checks built on them, y-optimality's Fenchel-Young
gap (solvers.check_y_optimality) and the 3-points relation's supremum over X
(prox.three_points_check).

Each closed form is checked three ways, on small d: against a dense
numerical search, against the sampled probes it replaces (the exact value is
the supremum, so no probe inside its region exceeds it), and on the rows of
clean checked runs, where it stays within CHECK_TOL of zero at its scale.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from stocadmm.functions import L1Norm, LeastSquares, SquaredL2Penalty, ZeroFunction
from stocadmm.oracle import AdditiveNoiseOracle, presample_streams
from stocadmm.problem import IterateState, ProblemSpec, StackedW, StructuralConstants
from stocadmm.prox import three_points_check
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import CHECK_TOL, SolverConfig, check_y_optimality, run, step

_D = 2
_THETA2 = {"l1": L1Norm(0.4), "sq-l2": SquaredL2Penalty(0.7), "zero": ZeroFunction()}
# the box's second coordinate does not hold 0, where l1 has its kink
_Y = {"whole": WholeSpace(_D), "box": Box(np.array([-0.3, 0.2]), np.array([0.5, 0.9])),
      "ball": Ball(_D, 0.8)}
# every (theta2, Y) entry the y-update's plan accepts: a ball Y only with
# theta2 = 0
_PAIRS = [(t, y) for t in _THETA2 for y in ("whole", "box")] + [("zero", "ball")]
_X = {"whole": WholeSpace(_D, declared_diameter=6.0), "ball": Ball(_D, 1.5),
      "box": Box(np.array([-1.0, -0.5]), np.array([0.5, 1.0]))}


def _dense_max(h, lo, hi):
    """max over [lo, hi] of h, which maps an array of points to their
    values: a grid of 20001 points, refined by bounded Brent between the
    best point's neighbours."""
    t = np.linspace(lo, hi, 20001)
    values = h(t)
    i = int(np.argmax(values))
    a, b = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]
    found = minimize_scalar(lambda s: -float(h(s)), bounds=(a, b), method="bounded",
                            options={"xatol": 1e-13})
    return max(values[i], -found.fun)


def _numeric_conjugate(theta2, Y, z, rho):
    """sup_y <y, z> - theta2(y) over Y, by dense search.  Over a box, and
    for the squared l2 entry on the whole space, coordinate by coordinate
    (every entry is separable).  Over a ball of radius r (the whole space's
    rho-ball for the entries that are not strongly convex), the objective is
    positively homogeneous, so its supremum is r times that over the unit
    circle's angle, or 0."""
    def term(i):
        return lambda t: t * z[i] - theta2.value(np.asarray(t)[..., None])

    if isinstance(Y, Box):
        return sum(_dense_max(term(i), Y.lo[i], Y.hi[i]) for i in range(_D))
    if isinstance(Y, WholeSpace) and isinstance(theta2, SquaredL2Penalty):
        reach = 10.0 + 10.0 * np.abs(z).max() / theta2.coef
        return sum(_dense_max(term(i), -reach, reach) for i in range(_D))
    radius = Y.radius if isinstance(Y, Ball) else rho

    def on_circle(a):
        u = np.stack([np.cos(a), np.sin(a)], axis=-1)
        return u @ z - theta2.value(u)

    return radius * max(0.0, _dense_max(on_circle, 0.0, 2.0 * np.pi))


def _points(rng, n=12):
    """n points of R^2 at several scales, with zero and tied entries."""
    z = rng.standard_normal((n, _D)) * np.repeat([0.1, 1.0, 4.0], n // 3)[:, None]
    z[0] = 0.0
    z[1] = [0.4, -0.4]  # on l1's kinks
    return z


@pytest.mark.parametrize("theta2, Y", _PAIRS)
def test_conjugate_matches_a_dense_numerical_search(theta2, Y):
    f, S = _THETA2[theta2], _Y[Y]
    rng = np.random.default_rng(1)
    z = _points(rng)
    rho = 1.0 + rng.uniform(0.0, 3.0, len(z))
    conj = f.conjugate(z, S, rho)
    assert conj.shape == (len(z),)
    for i in range(len(z)):
        assert abs(conj[i] - _numeric_conjugate(f, S, z[i], rho[i])) <= 1e-9
        # one point gives the value of its row
        assert f.conjugate(z[i], S, rho[i]) == pytest.approx(conj[i], rel=1e-15, abs=0)


@pytest.mark.parametrize("X", list(_X))
def test_support_matches_a_dense_numerical_search(X):
    S = _X[X]
    rng = np.random.default_rng(2)
    v = _points(rng)
    rho = 1.0 + rng.uniform(0.0, 3.0, len(v))
    sigma = S.support(v, rho)
    for i in range(len(v)):
        assert abs(sigma[i] - _numeric_conjugate(ZeroFunction(), S, v[i], rho[i])) <= 1e-9


def test_squared_l2_with_zero_coef_is_the_zero_function():
    z = np.array([[0.3, -2.0], [0.0, 0.0]])
    for Y in _Y.values():
        np.testing.assert_array_equal(SquaredL2Penalty(0.0).conjugate(z, Y, 2.0),
                                      ZeroFunction().conjugate(z, Y, 2.0))


def _spec(theta2, Y, X, seed=0):
    """A coupled problem with a general A, B = 2I and b != 0, so the checks
    take every product and sum."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((12, _D))
    return ProblemSpec(
        theta1=LeastSquares(design, design @ rng.standard_normal(_D)),
        theta2=_THETA2[theta2], A=rng.standard_normal((_D, _D)) + 2.0 * np.eye(_D),
        B=2.0 * np.eye(_D), b=0.3 * rng.standard_normal(_D), X=_X[X], Y=_Y[Y],
        constants=StructuralConstants(M=20.0, sigma=0.5))


def _random_step(spec, rng, beta=1.3, eta=0.2):
    """A previous iterate, a stochastic step from it and its subgradient."""
    state = IterateState(spec.X.project(rng.standard_normal(_D)),
                         spec.Y.project(rng.standard_normal(_D)),
                         rng.standard_normal(_D))
    prev = state.as_w()
    g = spec.theta1.subgrad(prev.x) + rng.standard_normal(_D)
    plan = SolverConfig(variant="stochastic", beta=beta, t_max=0).validate(spec)
    return prev, step(state, plan, g, eta).as_w(), g


@pytest.mark.parametrize("theta2, Y", _PAIRS)
def test_y_optimality_gap_bounds_every_sampled_probe(theta2, Y):
    """The gap is the supremum over Y (over the ball of radius 1 + ||y|| for
    a whole-space Y) of the sampled check's residual: at an exact step and
    at points off it, no probe inside that region exceeds it."""
    spec = _spec(theta2, Y, "ball")
    rng = np.random.default_rng(3)
    _, curr, _ = _random_step(spec, rng)
    off = StackedW(curr.x, spec.Y.project(curr.y + 0.3 * rng.standard_normal(_D)),
                   curr.lam + 0.3 * rng.standard_normal(_D))
    for w in (curr, off):
        gap, scale = check_y_optimality(w, spec)
        rho = 1.0 + np.linalg.norm(w.y)
        region = Ball(_D, rho) if isinstance(spec.Y, WholeSpace) else spec.Y
        probes = region.project(region.sample(rng, size=500))
        res = (spec.theta2.value(w.y) - spec.theta2.value(probes)
               + (w.y - probes) @ (-spec.B.T @ w.lam))
        assert res.max() <= gap + 1e-12 * scale
    # and the step itself satisfies the relation: its gap is roundoff
    assert check_y_optimality(curr, spec)[0] <= CHECK_TOL


@pytest.mark.parametrize("X", list(_X))
def test_three_points_bounds_every_sampled_probe(X):
    """The exact residual is the supremum over X (over the ball of radius
    1 + ||x*|| for a whole-space X) of the sampled 3-points residual."""
    spec = _spec("l1", "whole", X)
    rng = np.random.default_rng(4)
    beta, eta = 1.3, 0.2
    prev, curr, g = _random_step(spec, rng, beta, eta)
    v = spec.b + prev.lam / beta - spec.B @ prev.y
    g_l = g + beta * spec.A.T @ (spec.A @ curr.x - v)
    moved = spec.X.project(curr.x + 0.3 * rng.standard_normal(_D))
    for x_star in (curr.x, moved):
        holds, res = three_points_check(x_star, prev.x, g_l, 1.0 / eta, spec.X)
        rho = 1.0 + np.linalg.norm(x_star)
        region = Ball(_D, rho) if isinstance(spec.X, WholeSpace) else spec.X
        probes = region.project(region.sample(rng, size=500))
        # <g_l, x* - p> - [||p - u||^2 - ||p - x*||^2 - ||x* - u||^2] / (2 eta)
        d, du = probes - x_star, probes - prev.x
        sampled = -d @ g_l - (np.vecdot(du, du) - np.vecdot(d, d)
                              - (x_star - prev.x) @ (x_star - prev.x)) / (2.0 * eta)
        assert sampled.max() <= res + 1e-12
        assert holds == (res <= 1e-9)
    assert three_points_check(curr.x, prev.x, g_l, 1.0 / eta, spec.X)[0]


@pytest.mark.parametrize("X", list(_X))
@pytest.mark.parametrize("theta2, Y", _PAIRS)
def test_exact_checks_stay_within_tolerance_on_clean_runs(theta2, Y, X):
    """A clean checked run (R = 2, T = 64) on every accepted (theta2, Y) and
    kind of X: y-optimality and three-points stay within CHECK_TOL at their
    scale at every step, and one point a step is counted for each."""
    spec = _spec(theta2, Y, X)
    t_max = 64
    oracles = [AdditiveNoiseOracle(spec.theta1, 0.5, "uniform", seed=5, stream=r)
               for r in range(2)]
    cfg = SolverConfig(t_max=t_max, check_invariants=True)
    trajs = run(spec, cfg, presample_streams(oracles, t_max), replications=2)
    for traj in trajs:
        assert traj.error is None and traj.invariant_log == []
        assert traj.invariant_worst["y-optimality"] <= CHECK_TOL
        assert traj.invariant_worst["three-points"] <= CHECK_TOL
        assert traj.invariant_probes["y-optimality"] == t_max
        assert traj.invariant_probes["three-points"] == t_max
