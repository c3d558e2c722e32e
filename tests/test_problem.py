"""Core data model: stacking, the affine operator, averages, error measure."""

import numpy as np
import pytest

from stocadmm.problem import (IterateState, ProblemSpec, StackedW,
                              StructuralConstants, err_rho, eval_F)
from stocadmm.sets import Ball, Box, WholeSpace

from conftest import scalar_split_spec, ridge_split_spec


def test_eval_f_hand_example():
    # A = [[1]], B = [[-1]], b = [0], w = ([1], [1], [2])
    spec = scalar_split_spec()
    out = eval_F(StackedW(np.array([1.0]), np.array([1.0]), np.array([2.0])), spec)
    assert np.allclose(out.x, [-2.0])
    assert np.allclose(out.y, [2.0])
    assert np.allclose(out.lam, [0.0])


def test_eval_f_dim_mismatch():
    spec = scalar_split_spec()
    with pytest.raises(ValueError):
        eval_F(StackedW(np.zeros(2), np.zeros(1), np.zeros(1)), spec)
    # with a leading axis only the trailing dimensions count
    with pytest.raises(ValueError):
        eval_F(StackedW(np.zeros((3, 1)), np.zeros((3, 2)), np.zeros((3, 1))), spec)


def test_eval_f_on_rows_agrees_with_one_point_calls():
    spec = ridge_split_spec()
    rng = np.random.default_rng(2)
    w = StackedW(rng.standard_normal((5, spec.d1)), rng.standard_normal((5, spec.d2)),
                 rng.standard_normal((5, spec.m)))
    F = eval_F(w, spec)
    for i in range(5):
        one = eval_F(w[i], spec)
        for got, want in ((F[i].x, one.x), (F[i].y, one.y), (F[i].lam, one.lam)):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
    # (n, 1, d) rows, as the chunked invariant checks pass them
    assert eval_F(w[:, None], spec).lam.shape == (5, 1, spec.m)


def test_operator_difference_is_orthogonal_to_iterate_difference():
    # the linear part of F is skew-symmetric, so (w1 - w2)'(F(w1) - F(w2)) = 0
    spec = ridge_split_spec()
    rng = np.random.default_rng(0)
    def flat(w):
        return np.concatenate([w.x, w.y, w.lam])

    for _ in range(100):
        w1 = StackedW(rng.standard_normal(spec.d1), rng.standard_normal(spec.d2),
                      rng.standard_normal(spec.m))
        w2 = StackedW(rng.standard_normal(spec.d1), rng.standard_normal(spec.d2),
                      rng.standard_normal(spec.m))
        dw = w1 - w2
        dF = eval_F(w1, spec) - eval_F(w2, spec)
        scale = np.linalg.norm(flat(dw)) * np.linalg.norm(flat(dF))
        assert abs(dw.dot(dF)) <= 1e-12 * max(scale, 1.0)


def test_spec_dimension_validation():
    with pytest.raises(ValueError, match="constraint rows inconsistent"):
        ProblemSpec(theta1=None, theta2=None,
                    A=np.eye(2), B=-np.eye(3), b=np.zeros(2),
                    X=WholeSpace(2), Y=WholeSpace(3),
                    constants=StructuralConstants(M=1.0))
    with pytest.raises(ValueError, match="X dim"):
        ProblemSpec(theta1=None, theta2=None,
                    A=np.eye(2), B=-np.eye(2), b=np.zeros(2),
                    X=WholeSpace(3), Y=WholeSpace(2),
                    constants=StructuralConstants(M=1.0))


def test_constants_validation():
    with pytest.raises(ValueError, match="M must be positive"):
        StructuralConstants(M=0.0)
    with pytest.raises(ValueError, match="sigma"):
        StructuralConstants(M=1.0, sigma=-1.0)
    with pytest.raises(ValueError, match="mu"):
        StructuralConstants(M=1.0, mu=-0.1)
    with pytest.raises(ValueError, match="L"):
        StructuralConstants(M=1.0, L=0.0)


def test_running_averages_match_batch_means():
    rng = np.random.default_rng(1)
    t = 10_000
    # one replication (d,) and R = 2 replications advanced together (R, d)
    for shape in ((3,), (2, 3)):
        xs = rng.standard_normal((t + 1, *shape))
        ys = rng.standard_normal((t + 1, *shape))
        lams = rng.standard_normal((t + 1, *shape))
        state = IterateState(xs[0], ys[0], lams[0] * 0)
        for k in range(1, t + 1):
            state.advance(xs[k], ys[k], lams[k])
        # shifted: x over 0..t-1; aligned: x over 1..t; y over 1..t
        assert np.allclose(state.avg_x_shifted, xs[:t].mean(axis=0), rtol=1e-10)
        assert np.allclose(state.avg_x_aligned, xs[1:].mean(axis=0), rtol=1e-10)
        assert np.allclose(state.avg_y, ys[1:].mean(axis=0), rtol=1e-10)
        assert state.k == t
        if len(shape) == 2:
            for r in range(shape[0]):
                rep = state.replication(r)
                assert rep.k == t
                assert np.array_equal(rep.x, xs[t, r])
                assert np.array_equal(rep.lam, lams[t, r])
                assert np.array_equal(rep.avg_x_shifted, state.avg_x_shifted[r])
                assert np.array_equal(rep.avg_x_aligned, state.avg_x_aligned[r])
                assert np.array_equal(rep.avg_y, state.avg_y[r])


def test_averages_before_any_step_are_zero():
    spec = scalar_split_spec()
    state = IterateState.zeros(spec)
    assert np.array_equal(state.avg_x_shifted, [0.0])
    assert np.array_equal(state.avg_y, [0.0])
    assert state.lam.dtype == float
    with pytest.raises(TypeError):
        IterateState(np.zeros(1), np.zeros(1))  # the multiplier is required


def test_err_rho_hand_example():
    spec = scalar_split_spec(h=1.0, c=0.0, l1=0.0)
    # theta(x, y) = x^2/2, residual = x - y
    err, gap, feas = err_rho((np.array([2.0]), np.array([1.0])), spec,
                             theta_star=0.0, rho=3.0)
    assert gap == pytest.approx(2.0)
    assert feas == pytest.approx(1.0)
    assert err == pytest.approx(5.0)


def test_err_rho_requires_positive_rho():
    spec = scalar_split_spec()
    with pytest.raises(ValueError, match="rho must be positive"):
        err_rho((np.zeros(1), np.zeros(1)), spec, 0.0, 0.0)


def test_ball_diameter_is_attained_by_samples():
    ball = Ball(2, 1.5)
    rng = np.random.default_rng(5)
    pts = np.array([ball.sample(rng) for _ in range(2000)])
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= ball.radius + 1e-12)
    # opposite near-boundary samples nearly realize the diameter
    assert 2.0 * norms.max() >= 0.95 * ball.diameter


def test_whole_space_diameter_needs_declaration():
    ws = WholeSpace(2)
    with pytest.raises(ValueError, match="no declared diameter"):
        ws.diameter
    assert WholeSpace(2, declared_diameter=3.0).diameter == 3.0


@pytest.mark.parametrize("space", [WholeSpace(3), Ball(3, 1.5),
                                   Box(-np.ones(3), np.array([1.0, 2.0, 3.0]))])
def test_sample_with_a_shape_gives_a_point_per_entry(space):
    rng = np.random.default_rng(6)
    pts = space.sample(rng, size=(4, 7))
    assert pts.shape == (4, 7, 3)
    assert space.sample(rng, size=7).shape == (7, 3)
    assert space.sample(rng).shape == (3,)
    if isinstance(space, Ball):
        assert np.all(np.linalg.norm(pts, axis=-1) <= space.radius * (1 + 1e-12))
    if isinstance(space, Box):
        assert np.all((pts >= space.lo) & (pts <= space.hi))
