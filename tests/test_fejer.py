import cmath
import math

import mpmath
import numpy as np
import pytest

from expmoment.fejer import KernelParams, kernel_hat, kernel_value


def test_kernel_value_examples():
    assert kernel_value(KernelParams(1.0), 0.0) == 1.0
    assert kernel_value(KernelParams(1.0), 1.0) == 0.0
    assert kernel_value(KernelParams(1.0), -1.0) == 0.0
    assert kernel_value(KernelParams(2.0, 3.0), 4.0) == 0.5


def test_kernel_hat_at_zero_is_T():
    assert kernel_hat(KernelParams(5.0), 0.0) == 5.0
    assert kernel_hat(KernelParams(0.25), 0.0) == 0.25


def test_kernel_hat_sine_zero():
    assert kernel_hat(KernelParams(1.0), 2 * math.pi) == pytest.approx(0.0, abs=1e-30)


def test_kernel_hat_against_mpmath():
    with mpmath.workdps(50):
        expected = float(4 * mpmath.sin(mpmath.mpf(1) / 2) ** 2)
    assert kernel_hat(KernelParams(1.0), 1.0) == pytest.approx(expected, rel=1e-15)


def test_kernel_hat_taylor_branch_continuity():
    params = KernelParams(3.0)
    u = 2e-6 / 3.0  # |T u / 2| = 1e-6: continuous close to u = 0
    below = kernel_hat(params, u * 0.999)
    above = kernel_hat(params, u * 1.001)
    assert below == pytest.approx(above, rel=1e-12)


def test_kernel_hat_nonnegative_sampled():
    rng = np.random.default_rng(7)
    for T in (0.1, 1.0, 17.3):
        params = KernelParams(T)
        # exact by construction (a square); assert no negative rounding
        us = np.concatenate((rng.uniform(-100, 100, 10 ** 5),
                             rng.uniform(-1e-5, 1e-5, 10 ** 3)))
        vals = kernel_hat(params, us)
        assert (vals >= 0.0).all()
        spot = rng.choice(us, 500)
        for u in spot:
            assert kernel_hat(params, float(u)) >= 0.0


def test_kernel_hat_is_true_fourier_transform():
    # quadrature of K_T(t) e^{-iut} over the support vs the closed form
    rng = np.random.default_rng(3)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for _ in range(10):
        T = float(rng.uniform(0.2, 8.0))
        u = float(rng.uniform(-10, 10))
        params = KernelParams(T)
        total = 0.0 + 0.0j
        for lo, hi in ((-T, 0.0), (0.0, T)):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            ts = mid + half * nodes
            vals = np.array([kernel_value(params, float(t)) for t in ts]) \
                * np.exp(-1j * u * ts)
            total += half * np.sum(weights * vals)
        assert abs(total.imag) < 1e-10
        assert total.real == pytest.approx(kernel_hat(params, u), abs=1e-8)


def test_kernel_area_is_T():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for T in (0.5, 1.0, 11.0):
        params = KernelParams(T)
        total = 0.0
        for lo, hi in ((-T, 0.0), (0.0, T)):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            vals = [kernel_value(params, float(mid + half * x)) for x in nodes]
            total += half * float(np.dot(weights, vals))
        assert total == pytest.approx(T, rel=1e-10)


def covering_deficit(params: KernelParams, t: float) -> float:
    """[K_T(t-H) + K_T(t-H+T) + K_T(t-H-T)] - indicator(|t-H| <= T); >= 0.

    The three-triangle covering of the window indicator, the step of the
    shifted-window lemma's proof that gives its factor 3.
    """
    shifted = t - params.H
    centered = KernelParams(params.T, 0.0)
    cover = (kernel_value(centered, shifted)
             + kernel_value(centered, shifted + params.T)
             + kernel_value(centered, shifted - params.T))
    indicator = 1.0 if abs(shifted) <= params.T else 0.0
    return cover - indicator


def test_covering_deficit_examples():
    params = KernelParams(2.0, 5.0)
    T, H = params.T, params.H
    assert covering_deficit(params, H) == 0.0
    assert covering_deficit(params, H + T / 2) == pytest.approx(0.0, abs=1e-15)
    assert covering_deficit(params, H + 3 * T / 2) == pytest.approx(0.5)


def test_covering_deficit_nonnegative_dense():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = KernelParams(float(rng.uniform(0.1, 10)),
                              float(rng.uniform(-20, 20)))
        ts = np.linspace(params.H - 3 * params.T, params.H + 3 * params.T, 20001)
        for t in ts:
            assert covering_deficit(params, float(t)) >= -1e-15
