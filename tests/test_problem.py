"""Core data model: stacking, the affine operator, averages, error measure."""

import numpy as np
import pytest

from stocadmm.functions import L1Norm, Quadratic, matmul_rows
from stocadmm.problem import (IterateState, ProblemSpec, StackedW,
                              StructuralConstants, err_rho, eval_F)
from stocadmm.sets import Ball, Box, WholeSpace
from stocadmm.solvers import SolverConfig, SolverError, check_y_optimality

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


def _same_bits(got, want):
    """got and want agree bit for bit, NaN rows by their isnan masks."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_dot_gives_the_bits_of_matmul_on_the_update_shapes():
    # the hot products go through ndarray.dot for its lower dispatch cost;
    # this holds as long as dot and @ make the same BLAS call.  Shapes of the
    # general-step workload (fused-lasso-graph, d = 20, m = 19, R = 3) and
    # of the others (R = 2, 16), and of the FISTA solve's (200, 20) design
    rng = np.random.default_rng(27)
    d, m, n = 20, 19, 200

    def draw(*shape):
        # entries across magnitudes 1e-6 to 1e6; one in four draws puts an
        # inf, -inf or NaN into one entry
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        if rng.random() < 0.25:
            a.flat[rng.integers(a.size)] = rng.choice([np.inf, -np.inf, np.nan])
        return a

    for _ in range(300):
        A = draw(m, d)
        A[~np.isfinite(A)] = 1.0
        V = np.linalg.eigh(0.5 * A.T @ A)[1]
        design = draw(n, d)
        design[~np.isfinite(design)] = 1.0
        pairs = [(draw(d), draw(d))]
        for lead in ((), (2,), (3,), (16,)):
            pairs += [(draw(*lead, d), V), (draw(*lead, d), V.T), (draw(*lead, m), A),
                      (draw(*lead, d), A.T)]
        pairs += [(design, draw(d)), (design.T, draw(n))]
        z, r = draw(d), draw(n)
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
            for a, b in pairs:
                _same_bits(a.dot(b), a @ b)
            # the FISTA solve's products into its buffers
            _same_bits(design.dot(z, out=np.empty(n)), design @ z)
            _same_bits(design.T.dot(r, out=np.empty(d)), design.T @ r)


def _matrix_residual(spec, x, y):
    """A x + B y - b with the full products and the sum with b."""
    return matmul_rows(x, spec.A.T) + matmul_rows(y, spec.B.T) - spec.b


def _matrix_y_optimality(curr, spec):
    """check_y_optimality's gap over a whole-space Y with the full product
    B'lam."""
    z = matmul_rows(curr.lam, spec.B)
    th2 = spec.theta2.value(curr.y)
    scale = 1.0 + abs(th2) + np.linalg.norm(z, axis=-1)
    rho = 1.0 + np.linalg.norm(curr.y, axis=-1)
    return th2 + spec.theta2.conjugate(z, spec.Y, rho) - np.vecdot(curr.y, z), scale


def _same(got, want):
    """The same values (==, so a zero of either sign) and NaN positions."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("b_form", ["0", "random"])
@pytest.mark.parametrize("B_form", ["-I", "2I", "general"])
@pytest.mark.parametrize("A_form", ["I", "general"])
def test_constraint_facts_give_the_values_of_the_matrix_formulas(A_form, B_form,
                                                                 b_form):
    """residual, eval_F and check_y_optimality's B'lam, which leave out the
    products with I and s*I and the sum with b = 0, equal the full matrix
    formulas on finite rows with zeros of both signs."""
    d, n, P = 4, 6, 5
    rng = np.random.default_rng(11)
    A = np.eye(d) if A_form == "I" else rng.standard_normal((d, d))
    B = {"-I": -np.eye(d), "2I": 2.0 * np.eye(d),
         "general": rng.standard_normal((d, d))}[B_form]
    b = np.zeros(d) if b_form == "0" else rng.standard_normal(d)
    spec = ProblemSpec(theta1=Quadratic(np.eye(d)), theta2=L1Norm(0.5), A=A, B=B, b=b,
                       X=WholeSpace(d, declared_diameter=10.0), Y=WholeSpace(d),
                       constants=StructuralConstants(M=1.0))
    assert spec.A_identity == (A_form == "I")
    assert spec.B_scale == {"-I": -1.0, "2I": 2.0, "general": None}[B_form]
    assert spec.b_zero == (b_form == "0")

    def rows(*shape):
        z = rng.standard_normal(shape)
        z[rng.random(shape) < 0.2] = 0.0
        z[rng.random(shape) < 0.2] = -0.0
        return z

    w = StackedW(rows(n, d), rows(n, d), rows(n, d))
    _same(spec.residual(w.x, w.y), _matrix_residual(spec, w.x, w.y))
    # (n, P, d) probes against (n, 1, d) rows, as the step inequality takes them
    px = rows(n, P, d)
    _same(spec.residual(px, w.y[:, None]), _matrix_residual(spec, px, w.y[:, None]))
    F, neg_lam = eval_F(w, spec), -w.lam
    _same(F.x, matmul_rows(neg_lam, A))
    _same(F.y, matmul_rows(neg_lam, B))
    _same(F.lam, _matrix_residual(spec, w.x, w.y))
    for got, want in zip(check_y_optimality(w, spec), _matrix_y_optimality(w, spec)):
        _same(got, want)
    if B_form == "general":
        with pytest.raises(SolverError, match=r"B = s\*I exactly"):
            SolverConfig().validate(spec)


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


def test_replication_sums_are_views_of_its_row():
    """The three running sums of an (R, d) state sit in one (R, 2*d1 + d2)
    array; replication(r)'s sums and sum_* are views of row r, and the
    averages are those of three separately kept sums, bit for bit."""
    rng = np.random.default_rng(2)
    R, d1, d2, t = 3, 4, 2, 50
    state = IterateState(np.zeros((R, d1)), np.zeros((R, d2)), np.zeros((R, 1)))
    sx_shift, sx_align, s_y = np.zeros((R, d1)), np.zeros((R, d1)), np.zeros((R, d2))
    for _ in range(t):
        x, y = rng.standard_normal((R, d1)), rng.standard_normal((R, d2))
        sx_shift += state.x
        sx_align += x
        s_y += y
        state.advance(x, y, rng.standard_normal((R, 1)))
    assert state.sums.shape == (R, 2 * d1 + d2) and state.sums.flags.c_contiguous
    for r in range(R):
        rep = state.replication(r)
        assert rep.sums.base is state.sums
        for name, part in (("sum_x_shifted", slice(0, d1)),
                           ("sum_x_aligned", slice(d1, 2 * d1)),
                           ("sum_y", slice(2 * d1, None))):
            view = getattr(rep, name)
            assert view.base is state.sums
            assert view.__array_interface__["data"] == \
                state.sums[r, part].__array_interface__["data"]
            assert np.array_equal(view, state.sums[r, part])
        assert np.array_equal(rep.avg_x_shifted, sx_shift[r] / t)
        assert np.array_equal(rep.avg_x_aligned, sx_align[r] / t)
        assert np.array_equal(rep.avg_y, s_y[r] / t)
    assert np.array_equal(state.avg_x_shifted, sx_shift / t)
    assert np.array_equal(state.avg_x_aligned, sx_align / t)
    assert np.array_equal(state.avg_y, s_y / t)


def test_averages_before_any_step_are_zero():
    spec = scalar_split_spec()
    state = IterateState.zeros(spec)
    assert np.array_equal(state.avg_x_shifted, [0.0])
    assert np.array_equal(state.avg_y, [0.0])
    assert state.lam.dtype == float
    with pytest.raises(TypeError):
        IterateState(np.zeros(1), np.zeros(1))  # the multiplier is required


def test_replication_count_alone_picks_the_state_shape():
    """zeros gives 1-D arrays for one replication and (R, d) arrays for R >
    1; replications() lists a 1-D state as itself and a batched one as a
    view per row."""
    spec = scalar_split_spec()
    one = IterateState.zeros(spec, 1)
    assert one.x.shape == one.y.shape == one.lam.shape == (1,) and one.sums.shape == (3,)
    assert one.replications() == [one]
    batched = IterateState.zeros(spec, 3)
    assert batched.x.shape == (3, 1) and batched.sums.shape == (3, 3)
    reps = batched.replications()
    assert len(reps) == 3
    assert all(rep.sums.base is batched.sums and rep.x.shape == (1,) for rep in reps)


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
