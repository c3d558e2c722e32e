"""Synthetic presets: reproducibility and certified structural constants."""

import numpy as np
import pytest

from stocadmm.oracle import validate_assumptions
from stocadmm.presets import PRESET_NAMES, build_preset


def test_same_seed_reproduces_data_bitwise():
    a = build_preset("lasso-split", seed=5)
    b = build_preset("lasso-split", seed=5)
    assert np.array_equal(a.spec.theta1.design, b.spec.theta1.design)
    assert np.array_equal(a.spec.theta1.targets, b.spec.theta1.targets)
    assert a.spec.X.radius == b.spec.X.radius
    assert a.spec.constants == b.spec.constants


def test_different_seeds_differ():
    a = build_preset("lasso-split", seed=5)
    b = build_preset("lasso-split", seed=6)
    assert not np.array_equal(a.spec.theta1.design, b.spec.theta1.design)


def test_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown preset"):
        build_preset("nope")


def test_strongly_convex_preset_requires_positive_mu():
    with pytest.raises(ValueError, match="mu > 0"):
        build_preset("strongly-convex-lasso", mu=0.0)
    p = build_preset("strongly-convex-lasso", mu=0.2)
    assert p.spec.constants.mu == 0.2
    assert p.spec.theta1.mu == 0.2


@pytest.mark.parametrize("name", ["lasso-split", "strongly-convex-lasso",
                                  "fused-lasso-graph"])
def test_moment_constant_bounds_exact_second_moment(name):
    # M^2 must dominate E||g||^2 everywhere on X; the expectation over the
    # uniform component index is computed by exact enumeration
    preset = build_preset(name, seed=1, n=60, d=6)
    spec = preset.spec
    f = spec.theta1
    M2 = spec.constants.M ** 2
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(spec.d1)
        x = spec.X.radius * v / np.linalg.norm(v)  # boundary is the worst case
        m2 = np.mean([f.component_grad(x, i) @ f.component_grad(x, i)
                      for i in range(f.n)])
        assert m2 <= M2 * (1.0 + 1e-10)


def test_moment_constant_is_not_grossly_loose():
    preset = build_preset("lasso-split", seed=1, n=60, d=6)
    spec = preset.spec
    f = spec.theta1
    rng = np.random.default_rng(0)
    sup = 0.0
    for _ in range(3000):
        v = rng.standard_normal(spec.d1)
        x = spec.X.radius * v / np.linalg.norm(v)
        sup = max(sup, np.mean([f.component_grad(x, i) @ f.component_grad(x, i)
                                for i in range(f.n)]))
    assert spec.constants.M ** 2 <= 1.5 * sup


def test_smoothness_constant_is_top_hessian_eigenvalue():
    preset = build_preset("lasso-split", seed=2)
    H = preset.spec.theta1.hessian()
    assert preset.spec.constants.L == pytest.approx(
        float(np.linalg.eigvalsh(H)[-1]), rel=1e-10)


def test_fused_lasso_constraint_is_edge_difference():
    preset = build_preset("fused-lasso-graph", seed=0, d=6)
    A = preset.spec.A
    assert A.shape == (5, 6)  # chain graph on 6 nodes
    for row in A:
        nz = row[row != 0]
        assert sorted(nz) == [-1.0, 1.0]
        assert row.sum() == 0.0
    assert not np.allclose(preset.spec.A, np.eye(6)[:5])
    assert preset.kernel is None


def test_hinge_preset_shape():
    preset = build_preset("hinge-svm-split", seed=0)
    assert set(np.unique(preset.spec.theta1.labels)) <= {-1.0, 1.0}
    assert not preset.supports_reference
    assert preset.kernel is not None
    # worst-case single-row subgradient norm certifies the moment bound
    rows = np.linalg.norm(preset.spec.theta1.design, axis=1)
    assert preset.spec.constants.M == pytest.approx(float(rows.max()))


def test_exact_oracle_mode_has_zero_variance():
    preset = build_preset("lasso-split", seed=0, oracle="exact")
    assert preset.spec.constants.sigma == 0.0
    oracle = preset.make_oracle(0)
    x = np.zeros(preset.spec.d1)
    assert np.array_equal(oracle.sample_subgradient(x), preset.spec.theta1.grad(x))


def test_oracle_streams_are_independent_and_reproducible():
    preset = build_preset("lasso-split", seed=0, n=30, d=4)
    a1 = preset.make_oracle(0).presample(100).indices
    a2 = preset.make_oracle(0).presample(100).indices
    b = preset.make_oracle(1).presample(100).indices
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_declared_constants_pass_statistical_validation():
    preset = build_preset("lasso-split", seed=4, n=50, d=5)
    report = validate_assumptions(preset.make_oracle(0), preset.spec.X,
                                  n_samples=2000, n_points=5,
                                  declared_M=preset.spec.constants.M,
                                  declared_sigma=preset.spec.constants.sigma)
    assert report.second_moment_ok
    assert report.variance_ok


def test_all_presets_build():
    for name in PRESET_NAMES:
        preset = build_preset(name, seed=0)
        assert preset.spec.constants.M > 0
        assert preset.spec.A.shape[1] == preset.spec.d1
