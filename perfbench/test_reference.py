"""Tests of the benchmark's references against central differences and mpmath.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import reference as ref


def _central_difference(f, x, h=1e-4):
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


@pytest.mark.parametrize("width", [2, 3, 8])
def test_mlp_gradient_matches_central_differences(width):
    rng = np.random.default_rng(width)
    weights = [rng.uniform(0, 1, (width, width)) for _ in range(4)]
    biases = [rng.uniform(0, 1, (width, 1)) for _ in range(4)]
    t = rng.uniform(0, 1, (width, 1))
    for _ in range(5):
        x = rng.uniform(0, 1, (width, 1))
        numeric = _central_difference(
            lambda v: ref.mlp_forward(v, t, weights, biases)[0], x)
        assert np.allclose(ref.mlp_grad_x(x, t, weights, biases), numeric,
                           rtol=1e-6, atol=1e-12)


def test_mlp_gradient_is_zero_outside_the_clamp_band():
    w = [np.full((1, 1), 40.0)] * 4
    b = [np.full((1, 1), 40.0)] * 4
    x, t = np.ones((1, 1)), np.zeros((1, 1))
    assert ref.mlp_forward(x, t, w, b)[1][-1] > 1.0 - ref.BCE_CLAMP
    assert np.all(ref.mlp_grad_x(x, t, w, b) == 0.0)


@pytest.mark.parametrize("jac, f, lo, hi", [
    (ref.mean_jacobian, np.mean, 0.0, 1.0),
    (ref.clipped_mean_jacobian, lambda v: np.mean(np.clip(v, -1.0, 1.0)), -2.0, 2.0),
    (ref.sum_sigmoid_jacobian, lambda v: np.sum(ref.expit(v)), -1.0, 1.0),
])
def test_elementwise_jacobians_match_central_differences(jac, f, lo, hi):
    rng = np.random.default_rng(7)
    for n in (1, 5, 40):
        x = rng.uniform(lo, hi, (n, 1))
        x[np.abs(np.abs(x) - 1.0) < 1e-3] = 0.5  # keep off the clip kinks
        assert np.allclose(jac(x), _central_difference(f, x).reshape(1, -1),
                           rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("n", [1, 64, 450])
def test_suprema_are_attained_and_not_exceeded(n):
    rng = np.random.default_rng(n)
    assert np.linalg.norm(ref.sum_sigmoid_jacobian(np.zeros((n, 1)))) == pytest.approx(
        ref.sum_sigmoid_supremum(n), rel=1e-15)
    assert np.linalg.norm(ref.clipped_mean_jacobian(np.zeros((n, 1)))) == pytest.approx(
        ref.mean_supremum(n), rel=1e-15)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, (n, 1))
        assert np.linalg.norm(ref.sum_sigmoid_jacobian(x)) <= ref.sum_sigmoid_supremum(n)
        x = rng.uniform(-2.0, 2.0, (n, 1))
        assert np.linalg.norm(ref.clipped_mean_jacobian(x)) <= ref.mean_supremum(n)


def test_log_delta_agrees_with_the_erf_form_where_that_form_is_accurate():
    for eps, sigma in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]:
        a, b = 1.0 / (2.0 * sigma), eps * sigma
        phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        direct = phi(a - b) - math.exp(eps) * phi(-a - b)
        assert math.exp(ref.log_gaussian_delta(eps, sigma)) == pytest.approx(direct, rel=1e-12)


def test_log_delta_scales_with_sensitivity():
    assert ref.log_gaussian_delta(1.0, 6.0, 3.0) == pytest.approx(
        ref.log_gaussian_delta(1.0, 2.0), rel=1e-14)


def test_log_delta_matches_mpmath_on_200_draws():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(2021)
    worst = 0.0
    for _ in range(200):
        eps = math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
        delta = math.exp(rng.uniform(math.log(1e-12), math.log(1e-4)))
        # a sigma near the calibrated one, where the tails matter
        sigma = math.sqrt(2.0 * math.log(1.25 / delta)) / eps * rng.uniform(0.5, 1.0)
        e, s = mpmath.mpf(eps), mpmath.mpf(sigma)
        a, b = 1 / (2 * s), e * s
        exact = mpmath.ncdf(a - b) - mpmath.exp(e) * mpmath.ncdf(-a - b)
        got = math.exp(ref.log_gaussian_delta(eps, sigma))
        worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-11
