"""Sampling oracles: unbiasedness, determinism, moment validation."""

import numpy as np
import pytest

from stocadmm.functions import LeastSquares, Quadratic
from stocadmm.oracle import (AdditiveNoiseOracle, FiniteSumOracle,
                             validate_assumptions)
from stocadmm.sets import Ball


def _tiny_lsq(n=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return LeastSquares(rng.standard_normal((n, d)), rng.standard_normal(n))


def test_zero_noise_oracle_returns_exact_gradient():
    f = Quadratic(np.eye(2), np.array([1.0, -1.0]))
    oracle = AdditiveNoiseOracle(f, sigma=0.0)
    x = np.array([0.5, 2.0])
    assert np.array_equal(oracle.presample(1).subgradient(f, x, 0), f.grad(x))


def test_single_component_finite_sum_is_deterministic():
    f = _tiny_lsq(n=1)
    oracle = FiniteSumOracle(f)
    x = np.array([1.0, 0.0, -1.0])
    draws = oracle.presample(5)
    for k in range(5):
        assert np.allclose(draws.subgradient(f, x, k), f.grad(x), atol=1e-12)


def test_finite_sum_draws_come_from_component_enumeration():
    f = _tiny_lsq(n=4)
    oracle = FiniteSumOracle(f, seed=11)
    x = np.array([0.3, -0.7, 1.1])
    components = [f.component_grad(x, i) for i in range(4)]
    draws = oracle.presample(40)
    for k in range(40):
        g = draws.subgradient(f, x, k)
        assert any(np.allclose(g, c, atol=1e-14) for c in components)
    # the exact gradient is the component average
    assert np.allclose(np.mean(components, axis=0), f.grad(x), atol=1e-12)


def test_finite_sum_is_unbiased():
    f = _tiny_lsq(n=6)
    oracle = FiniteSumOracle(f, seed=4)
    x = np.array([0.5, -0.5, 0.25])
    buf = oracle.presample(20_000)
    draws = np.array([buf.subgradient(f, x, k) for k in range(20_000)])
    exact = f.grad(x)
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - exact) <= 5.0 * stderr + 1e-12)


def test_gaussian_noise_variance_matches_sigma():
    f = Quadratic(np.eye(8))
    oracle = AdditiveNoiseOracle(f, sigma=1.0, kind="gaussian", seed=9)
    noise = oracle.presample(100_000).noise
    total_var = float(np.mean(np.sum(noise**2, axis=1)))
    assert 0.97 <= total_var <= 1.03


def test_uniform_noise_is_bounded_with_matching_variance():
    f = Quadratic(np.eye(4))
    oracle = AdditiveNoiseOracle(f, sigma=2.0, kind="uniform", seed=9)
    assert oracle.bounded
    noise = oracle.presample(100_000).noise
    a = 2.0 * np.sqrt(3.0 / 4)
    assert np.max(np.abs(noise)) <= a
    total_var = float(np.mean(np.sum(noise**2, axis=1)))
    assert 0.95 <= total_var / 4.0 <= 1.05


def test_gaussian_oracle_is_not_bounded():
    oracle = AdditiveNoiseOracle(Quadratic(np.eye(2)), sigma=1.0, kind="gaussian")
    assert not oracle.bounded


def test_same_seed_and_stream_is_bitwise_reproducible():
    f = _tiny_lsq()
    a = FiniteSumOracle(f, seed=42, stream=3)
    b = FiniteSumOracle(f, seed=42, stream=3)
    assert np.array_equal(a.presample(1000).indices, b.presample(1000).indices)
    x = np.ones(3)
    draws_a, draws_b = a.presample(10), b.presample(10)
    for k in range(10):
        assert np.array_equal(draws_a.subgradient(f, x, k),
                              draws_b.subgradient(f, x, k))


def test_different_streams_differ():
    f = _tiny_lsq(n=50)
    a = FiniteSumOracle(f, seed=42, stream=0)
    b = a.clone(stream=1)
    assert not np.array_equal(a.presample(200).indices, b.presample(200).indices)


def test_buffer_draws_determine_the_sample():
    f = _tiny_lsq(n=7)
    oracle = FiniteSumOracle(f, seed=5)
    buf = oracle.presample(20)
    x = np.array([0.1, 0.2, 0.3])
    for k in range(20):
        g = buf.subgradient(f, x, k)
        assert np.array_equal(g, f.component_grad(x, int(buf.indices[k])))


def test_noise_kind_and_sigma_validation():
    f = Quadratic(np.eye(2))
    with pytest.raises(ValueError, match="unknown noise kind"):
        AdditiveNoiseOracle(f, sigma=1.0, kind="cauchy")
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        AdditiveNoiseOracle(f, sigma=-1.0)


def test_validate_assumptions_accepts_true_constants():
    f = _tiny_lsq(n=10)
    X = Ball(3, 2.0)
    oracle = FiniteSumOracle(f, seed=0)
    # exact sup of E||g||^2 over the ball by dense boundary sampling
    rng = np.random.default_rng(1)
    sup = 0.0
    for _ in range(2000):
        v = rng.standard_normal(3)
        x = 2.0 * v / np.linalg.norm(v)
        sup = max(sup, np.mean([f.component_grad(x, i) @ f.component_grad(x, i)
                                for i in range(10)]))
    M = float(np.sqrt(sup) * 1.05)
    report = validate_assumptions(oracle, X, n_samples=2000, n_points=5,
                                  declared_M=M, declared_sigma=2.0 * M)
    assert report.second_moment_ok
    assert report.variance_ok
    assert report.sup_second_moment > 0


def test_validate_assumptions_flags_understated_moment():
    f = _tiny_lsq(n=10)
    oracle = FiniteSumOracle(f, seed=0)
    report = validate_assumptions(oracle, Ball(3, 2.0), n_samples=2000,
                                  n_points=5, declared_M=1e-6)
    assert not report.second_moment_ok  # report-only, no raise


def test_validate_assumptions_requires_enough_samples():
    oracle = FiniteSumOracle(_tiny_lsq(), seed=0)
    with pytest.raises(ValueError, match="at least 1e3"):
        validate_assumptions(oracle, Ball(3, 1.0), n_samples=100)
