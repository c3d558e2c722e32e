"""Sampling oracles: unbiasedness, determinism, block-gathered subgradients."""

import numpy as np
import pytest

from stocadmm import oracle as oracle_module
from stocadmm.functions import HingeLoss, LeastSquares, Quadratic
from stocadmm.oracle import (GATHER_BYTES, AdditiveNoiseOracle, FiniteSumOracle,
                             SampleBuffer, presample_streams)


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
    b = FiniteSumOracle(f, seed=42, stream=1)
    assert not np.array_equal(a.presample(200).indices, b.presample(200).indices)


def test_buffer_draws_determine_the_sample():
    f = _tiny_lsq(n=7)
    oracle = FiniteSumOracle(f, seed=5)
    buf = oracle.presample(20)
    x = np.array([0.1, 0.2, 0.3])
    for k in range(20):
        g = buf.subgradient(f, x, k)
        assert np.array_equal(g, f.component_grad(x, int(buf.indices[k])))


@pytest.mark.parametrize("R", [None, 3])
@pytest.mark.parametrize("name", ["lsq-mu0", "lsq-ridge", "hinge"])
def test_block_gathered_subgradient_is_the_per_step_component_gradient(
        monkeypatch, name, R):
    """With blocks of 4 steps, steps 0..9 read three blocks, the last one of
    2 steps; each step's sampled subgradient has the bits of component_grad
    at its indices (plus its noise row), for one stream and for R stacked,
    stepping in order and jumping back across blocks."""
    rng = np.random.default_rng(12)
    n, d, t = 9, 5, 10
    design, targets = rng.standard_normal((n, d)), rng.standard_normal(n)
    f = {"lsq-mu0": LeastSquares(design, targets),
         "lsq-ridge": LeastSquares(design, targets, mu=0.3),
         "hinge": HingeLoss(design, np.sign(targets))}[name]
    lead = () if R is None else (R,)
    # one step's parts, a design row and a target or label per stream, are
    # (d + 1) * 8 bytes per stream: a budget of 4 steps and a bit
    monkeypatch.setattr(oracle_module, "GATHER_BYTES", 4 * (R or 1) * (d + 1) * 8 + 7)
    for noise in (None, rng.standard_normal(lead + (t, d))):
        draws = SampleBuffer(rng.integers(0, n, size=lead + (t,)), noise)
        for k in [*range(t), 9, 2, 7, 0]:
            x = rng.standard_normal(lead + (d,))
            want = f.component_grad(x, draws.indices[..., k])
            if noise is not None:
                want = want + noise[..., k, :]
            got = draws.subgradient(f, x, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            _, start, stop, parts = draws.block
            assert start == k - k % 4 and stop == min(start + 4, t)
            assert all(part.shape[:1 + len(lead)] == (stop - start,) + lead
                       for part in parts)


def test_gathered_block_stays_within_its_byte_budget_whatever_t_is():
    """R = 16 streams of 10^5 steps: every gathered block holds at most
    GATHER_BYTES of component data, not a copy of the whole horizon."""
    rng = np.random.default_rng(13)
    n, d, R, t = 200, 20, 16, 100_000
    f = LeastSquares(rng.standard_normal((n, d)), rng.standard_normal(n))
    draws = SampleBuffer(rng.integers(0, n, size=(R, t)), None)
    x = rng.standard_normal((R, d))
    for k in (0, t // 2, t - 1):
        draws.subgradient(f, x, k)
        _, start, stop, parts = draws.block
        assert start <= k < stop and stop - start < t
        assert 0 < sum(part.nbytes for part in parts) <= GATHER_BYTES


def test_presample_streams_gives_one_streams_own_draws_or_r_stacked():
    """One oracle's draws are its own presample(t), (t,) indices and (t, d)
    noise; R oracles' are each stream's stacked to (R, t) and (R, t, d), with
    the bits of R separate presample calls.  An oracle that draws nothing
    gives None either way."""
    f = _tiny_lsq(n=7)
    oracles = {"indices": lambda r: FiniteSumOracle(f, seed=4, stream=r),
               "noise": lambda r: AdditiveNoiseOracle(f, 1.0, seed=4, stream=r)}
    for name, make in oracles.items():
        own = make(0).presample(6)
        one = presample_streams([make(0)], 6)
        assert getattr(one, name).shape[:1] == (6,)
        assert np.array_equal(getattr(one, name), getattr(own, name))
        stacked = presample_streams([make(r) for r in range(3)], 6)
        assert getattr(stacked, name).shape[:2] == (3, 6)
        for r in range(3):
            assert np.array_equal(getattr(stacked, name)[r],
                                  getattr(make(r).presample(6), name))
        other = "noise" if name == "indices" else "indices"
        assert getattr(one, other) is None and getattr(stacked, other) is None
    exact = [AdditiveNoiseOracle(f, 0.0, stream=r) for r in range(2)]
    assert presample_streams(exact, 6) == SampleBuffer(None, None)


def test_noise_kind_and_sigma_validation():
    f = Quadratic(np.eye(2))
    with pytest.raises(ValueError, match="unknown noise kind"):
        AdditiveNoiseOracle(f, sigma=1.0, kind="cauchy")
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        AdditiveNoiseOracle(f, sigma=-1.0)
