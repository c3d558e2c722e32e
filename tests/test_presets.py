"""Synthetic presets: reproducibility and certified structural constants."""

import numpy as np
import pytest

from stocadmm import presets
from stocadmm.functions import soft_threshold
from stocadmm.presets import PRESET_NAMES, build_preset
from stocadmm.schema import ConfigError
from stocadmm.solvers import SolverConfig


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
    with pytest.raises(ConfigError, match="preset: expected one of .*, got 'nope'"):
        build_preset("nope")


def test_params_are_every_parameter_typed_as_its_default():
    # a wrong name or type fails as in a config (VALIDATION_CASES in test_cli)
    params = build_preset("lasso-split", 0, n=200, cond=10).params
    assert params == build_preset("lasso-split", 0).params
    assert type(params["cond"]) is float


def test_params_share_no_list_with_the_defaults_or_the_caller():
    first = build_preset("fused-lasso-graph", seed=0, d=5)
    first.params["edges"].append((0, 2))
    again = build_preset("fused-lasso-graph", seed=0, d=5)
    assert again.params["edges"] == []
    assert again.spec.A.shape == (4, 5)  # the chain graph
    edges = [[0, 1], [1, 2]]
    assert build_preset("fused-lasso-graph", seed=0, d=5, edges=edges).params["edges"] \
        is not edges


def test_strongly_convex_preset_requires_positive_mu():
    with pytest.raises(ConfigError, match="preset_params.mu: must be > 0, got 0.0"):
        build_preset("strongly-convex-lasso", mu=0.0)
    p = build_preset("strongly-convex-lasso", mu=0.2)
    assert p.spec.constants.mu == 0.2
    assert p.spec.theta1.mu == 0.2


@pytest.mark.parametrize("name", ["lasso-split", "strongly-convex-lasso",
                                  "fused-lasso-graph", "hinge-svm-split"])
def test_moment_constant_bounds_exact_second_moment(name):
    # M^2 must dominate E||g||^2, and sigma^2 E||g - grad theta1||^2,
    # everywhere on X (hinge-svm-split declares sigma = 2M); the expectations
    # over the uniform component index are computed by exact enumeration
    preset = build_preset(name, seed=1, n=60, d=6)
    spec = preset.spec
    f = spec.theta1
    M2, sigma2 = spec.constants.M ** 2, spec.constants.sigma ** 2
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(spec.d1)
        x = spec.X.radius * v / np.linalg.norm(v)  # boundary is the worst case
        g = np.array([f.component_grad(x, i) for i in range(f.n)])
        assert np.mean(np.vecdot(g, g)) <= M2 * (1.0 + 1e-10)
        delta = g - f.subgrad(x)
        assert np.mean(np.vecdot(delta, delta)) <= sigma2 * (1.0 + 1e-10)


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
    assert not SolverConfig().validate(preset.spec).takes_identity_split


def test_lasso_build_stops_fista_once_the_iterate_settles(monkeypatch):
    calls = []

    def counting(z, tau):
        calls.append(tau)
        return soft_threshold(z, tau)

    monkeypatch.setattr(presets, "soft_threshold", counting)
    build_preset("lasso-split", seed=0)
    assert 0 < len(calls) <= 1000


@pytest.mark.parametrize("name", ["lasso-split", "strongly-convex-lasso"])
def test_fista_returns_a_prox_gradient_fixed_point(name):
    spec = build_preset(name, seed=0).spec
    f, lam_reg = spec.theta1, spec.theta2.coef
    x = presets._fista_reduced_lasso(f.design, f.targets, lam_reg, f.mu)
    step = 1.0 / spec.constants.L  # top eigenvalue of the smooth part's Hessian
    x_next = soft_threshold(x - step * f.grad(x), step * lam_reg)
    assert np.linalg.norm(x_next - x) <= 1e-12


def test_hinge_preset_shape():
    preset = build_preset("hinge-svm-split", seed=0)
    assert set(np.unique(preset.spec.theta1.labels)) <= {-1.0, 1.0}
    assert not preset.supports_reference
    assert SolverConfig().validate(preset.spec).takes_identity_split
    # worst-case single-row subgradient norm certifies the moment bound
    rows = np.linalg.norm(preset.spec.theta1.design, axis=1)
    assert preset.spec.constants.M == pytest.approx(float(rows.max()))


def test_exact_oracle_mode_has_zero_variance():
    preset = build_preset("lasso-split", seed=0, oracle="exact")
    assert preset.spec.constants.sigma == 0.0
    oracle = preset.make_oracle(0)
    x = np.zeros(preset.spec.d1)
    assert np.array_equal(oracle.presample(1).subgradient(preset.spec.theta1, x, 0),
                          preset.spec.theta1.grad(x))
    with pytest.raises(ConfigError,
                       match="preset_params.oracle: expected one of .*, got 'exakt'"):
        build_preset("lasso-split", seed=0, oracle="exakt")


def test_oracle_streams_are_independent_and_reproducible():
    preset = build_preset("lasso-split", seed=0, n=30, d=4)
    a1 = preset.make_oracle(0).presample(100).indices
    a2 = preset.make_oracle(0).presample(100).indices
    b = preset.make_oracle(1).presample(100).indices
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_all_presets_build():
    for name in PRESET_NAMES:
        preset = build_preset(name, seed=0)
        assert preset.spec.constants.M > 0
        assert preset.spec.A.shape[1] == preset.spec.d1
