import cmath
import math
import tracemalloc

import numpy as np
import pytest

from expmoment.core import NonFiniteError, OverflowRangeError, TermBudgetExceededError
from expmoment.rademacher import exact_even_moment, exhaustive_moment
from sign_moment_oracle import sign_moment


def test_second_moment_identity():
    assert exact_even_moment([1.0, 1.0], 1) == pytest.approx(2.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        expected = float(np.sum(np.abs(z) ** 2))
        assert exhaustive_moment(z, 1) == pytest.approx(expected, rel=1e-14)
        assert exact_even_moment(z, 1) == pytest.approx(expected, rel=1e-14)


def test_fourth_moment_examples():
    assert exact_even_moment([1.0, 1.0], 2) == pytest.approx(8.0)
    assert exhaustive_moment([1.0, 1.0], 2) == pytest.approx(8.0)


def test_fourth_moment_closed_form_real():
    # E(sum eps a)^4 = 3 (sum a^2)^2 - 2 sum a^4
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0, 2, int(rng.integers(1, 9)))
        expected = 3 * float(np.sum(a * a)) ** 2 - 2 * float(np.sum(a ** 4))
        assert exact_even_moment(a, 2) == pytest.approx(expected, rel=1e-12)
        assert exhaustive_moment(a, 2) == pytest.approx(expected, rel=1e-12)


def test_exact_matches_exhaustive_random_complex():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        q = int(rng.integers(1, 5))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = exact_even_moment(z, q)
        b = exhaustive_moment(z, q)
        assert a == pytest.approx(b, rel=1e-12)


def test_exact_fourth_moment_closed_form_large_complex():
    # E|sum eps z|^4 = 2(sum|z|^2)^2 + |sum z^2|^2 - 2 sum|z|^4
    rng = np.random.default_rng(14)
    z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    s2 = float(np.sum(np.abs(z) ** 2))
    expected = (2 * s2 ** 2 + abs(complex(np.sum(z * z))) ** 2
                - 2 * float(np.sum(np.abs(z) ** 4)))
    assert exact_even_moment(z, 2) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q", [6, 8, 10])
def test_exact_matches_exhaustive_high_order(q):
    rng = np.random.default_rng(q)
    z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert exact_even_moment(z, q) == pytest.approx(exhaustive_moment(z, q),
                                                    rel=1e-12)


def test_exact_returns_python_float():
    assert type(exact_even_moment([1.0, 2.0 + 1.0j], 2)) is float


def test_exhaustive_trivials():
    assert exhaustive_moment([2.0 + 1.0j], 3) == pytest.approx(abs(2 + 1j) ** 6)
    assert exhaustive_moment([0.0, 0.0, 0.0], 2) == 0.0
    with pytest.raises(TermBudgetExceededError):
        exhaustive_moment([1.0] * 25, 1)


@pytest.mark.parametrize("n", [1, 2, 13, 16])
def test_exhaustive_halves_match_series_oracle(n):
    # N = 1 leaves the first half empty; odd N = 13 splits 6 + 7.
    rng = np.random.default_rng(1700 + n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for q in (1, 2, 5):
        assert exhaustive_moment(z, q) == pytest.approx(sign_moment(z, q), rel=1e-12)
    assert exhaustive_moment(np.zeros(n), 3) == 0.0


def test_too_many_signs_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TermBudgetExceededError):
            exhaustive_moment(np.ones(25), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 14  # 2^12 sums of one half alone take 64 KiB


def test_global_phase_and_sign_flip_invariance():
    # Only a *global* phase leaves E|sum eps_n z_n|^{2q} unchanged;
    # per-coordinate rotations do not commute with real signs.
    rng = np.random.default_rng(6)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    theta = float(rng.uniform(0, 2 * math.pi))
    flips = rng.choice([-1.0, 1.0], 5)
    for q in (1, 2, 3):
        base = exhaustive_moment(z, q)
        assert exhaustive_moment(z * cmath.exp(1j * theta), q) \
            == pytest.approx(base, rel=1e-12)
        assert exhaustive_moment(z * flips, q) == pytest.approx(base, rel=1e-12)


def _draws(seed: int, count: int = 600):
    """(z, q) with N <= 8 complex terms of modulus at most sqrt 2, q <= 4."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        yield rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n), int(rng.integers(1, 5))


@pytest.mark.parametrize("moment", [exact_even_moment, exhaustive_moment])
def test_exact_under_power_of_two_amplitude_scaling(moment):
    # z -> 2^k z scales |sum eps_n z_n|^{2q} by exactly 2^{2qk}: both engines
    # take rounded sums and products only, so every rounding scales with it.
    for z, q in _draws(61):
        want = moment(z, q)
        for k in (-20, -5, 5, 20):
            assert moment(np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k), q) \
                == math.ldexp(want, 2 * q * k), (z, q, k)


@pytest.mark.parametrize("moment", [exact_even_moment, exhaustive_moment])
def test_invariant_under_permutation_of_the_terms(moment):
    rng = np.random.default_rng(62)
    for z, q in _draws(63):
        assert moment(rng.permutation(z), q) == pytest.approx(moment(z, q), rel=1e-13)


@pytest.mark.parametrize("complex_z", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("q", [2, 3])
def test_exact_matches_series_oracle_at_n_1000(q, complex_z):
    rng = np.random.default_rng(100 + q)
    z = rng.standard_normal(1000) + (1j * rng.standard_normal(1000) if complex_z else 0)
    assert exact_even_moment(z, q) == pytest.approx(sign_moment(z, q), rel=1e-12)


def test_series_oracle_matches_exhaustive():
    assert sign_moment([1.0, 1.0], 2) == 8.0
    rng = np.random.default_rng(21)
    for case in range(24):
        n, q = int(rng.integers(1, 13)), 1 + case % 4
        z = rng.standard_normal(n) + (1j * rng.standard_normal(n) if case % 2 else 0)
        assert sign_moment(z, q) == pytest.approx(exhaustive_moment(z, q), rel=1e-12)


@pytest.mark.parametrize("moment", [exact_even_moment, exhaustive_moment])
def test_rejects_empty_and_non_finite(moment):
    for values in ([], [1.0, math.nan], [complex(1.0, math.inf)]):
        with pytest.raises(NonFiniteError):
            moment(values, 1)


@pytest.mark.parametrize("moment", [exact_even_moment, exhaustive_moment])
def test_refuses_out_of_range_amplitudes(moment):
    # (sum |z|)^{2q} bounds every |sum eps z|^{2q}: 1.6e401 and 1e320 are out.
    # Unrefused, the fold returned nan and the enumeration inf.
    for values, q in (([1e100, 1e100], 2), ([1e160, 1e150], 1)):
        with pytest.raises(OverflowRangeError, match="exceeds 1e300"):
            moment(values, q)
    # (4e74)^4 = 2.56e299 is inside; E(sum eps)^4 = 40 for four unit terms.
    assert moment([1e74] * 4, 2) == 3.9999999999999995e+297


def test_khintchine_ratio_single_coordinate():
    for q in (1, 2, 3, 4):
        z = [1.0, 0.0, 0.0]
        assert exact_even_moment(z, q) == pytest.approx(1.0, rel=1e-14)


def test_khintchine_q2_real_formula():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.uniform(0.1, 1, 5)
        s2 = float(np.sum(a * a))
        ratio = exact_even_moment(a, 2) / s2 ** 2
        expected = 3 - 2 * float(np.sum(a ** 4)) / s2 ** 2
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert 1.0 <= ratio < 3.0
