import math

import mpmath
import numpy as np
import pytest

from expmoment import quadrature, spectral
from expmoment.core import (
    NonFiniteError,
    NotConvergedError,
    OverflowRangeError,
    Window,
    dominated_coefficients,
    validate_instance,
)
from expmoment.fejer import KernelParams
from expmoment.quadrature import (
    QuadratureConfig,
    bandlimit,
    fejer_weighted_integral,
    gauss_legendre,
    windowed_abs_average,
    windowed_average,
)
from expmoment.verify import random_dominated, random_instance
from tuple_sum_oracle import closed_form_cases


def test_integrators_refuse_out_of_range_amplitudes():
    # (sum a)^2 = 8.1e299: in range times a mass 2T = 1.2, out of it at 1.3.
    edge = validate_instance([5e149, 4e149], [0.0, 1.5])
    assert windowed_average(edge, 1, Window(0.0, 0.6)).value > 7e299
    top = validate_instance([1e308, 1e308], [0.0, 1.5])
    for call in (lambda: windowed_average(edge, 1, Window(0.0, 0.65)),
                 lambda: fejer_weighted_integral(edge, 1, KernelParams(1.3)),
                 lambda: windowed_abs_average(top, Window(0.0, 1.0))):
        with pytest.raises(OverflowRangeError, match="exceeds 1e300"):
            call()


def test_bandlimit_examples():
    assert bandlimit(validate_instance([1, 1], [0, 1]), 2) == 2.0
    assert bandlimit(validate_instance([1, 1, 1], [5, 5, 5]), 3) == 0.0
    n = 20
    inst = validate_instance([1.0] * n, [math.log(k) for k in range(1, n + 1)])
    assert bandlimit(inst, 3) == pytest.approx(3 * math.log(n))


def test_windowed_average_single_term_is_one():
    inst = validate_instance([1.0], [3.7])
    for T, q in ((0.3, 1), (12.0, 4)):
        res = windowed_average(inst, q, Window(0.0, T))
        assert res.value == pytest.approx(1.0, rel=1e-12)


def test_windowed_average_equal_frequencies_constant():
    inst = validate_instance([1.0, 1.0], [2.5, 2.5])
    res = windowed_average(inst, 1, Window(-7.0, 3.0))
    assert res.value == 4.0
    assert res.error_estimate == 0.0


def test_windowed_average_two_tone_closed_form():
    # (1/2pi) integral of (2 + 2 cos t) over [-pi, pi] = 2
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    res = windowed_average(inst, 1, Window(0.0, math.pi))
    assert res.value == pytest.approx(2.0, rel=1e-10)
    assert res.error_estimate <= 1e-8


def test_fejer_weighted_single_term_is_kernel_area():
    inst = validate_instance([1.0], [2.0])
    for T, H, q in ((1.0, 0.0, 1), (7.5, -20.0, 3)):
        res = fejer_weighted_integral(inst, q, KernelParams(T, H))
        assert res.value == pytest.approx(T, rel=1e-10)


def test_fejer_weighted_two_tone_closed_form():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    res = fejer_weighted_integral(inst, 1, KernelParams(2 * math.pi, 0.0))
    assert res.value == pytest.approx(4 * math.pi, rel=1e-10)


def test_fejer_weighted_dominated_coefficients():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    cc = dominated_coefficients([1j, -1.0], inst)
    params = KernelParams(2 * math.pi, 0.0)
    v_c = fejer_weighted_integral(cc, 1, params).value
    v_a = fejer_weighted_integral(inst, 1, params).value
    assert v_c <= v_a * (1 + 1e-9)


def test_oracle_agreement_random_instances():
    # Real and dominated complex sources: the spectral value lies within the
    # truncation bound (plus rounding), and the bound meets the tolerance.
    rng = np.random.default_rng(123)
    rel_tol = QuadratureConfig().rel_tol
    for _ in range(60):
        inst = random_instance(rng, max_n=8)
        source = random_dominated(rng, inst) if rng.random() < 0.5 else inst
        q = int(rng.integers(1, 4))
        T = float(rng.uniform(0.05, 30.0))
        exp = spectral.expand(source, q)
        amp = source.amplitude_sum() ** (2 * q)
        win = Window(float(rng.uniform(-5, 5)), T)
        res = windowed_average(source, q, win)
        exact = spectral.integral_exact(exp, win) / (2 * T)
        assert abs(res.value - exact) <= res.error_estimate + _rounding(source, q, 1)
        assert res.error_estimate <= rel_tol * res.value + 1e-15 * amp
        params = KernelParams(T, float(rng.uniform(-10, 10)))
        res = fejer_weighted_integral(source, q, params)
        exact = spectral.fejer_weighted_exact(exp, params)
        assert abs(res.value - exact) <= res.error_estimate + _rounding(source, q, T)
        assert res.error_estimate <= rel_tol * res.value + 1e-15 * amp * T


def _rounding(source, q, mass):
    """Allowance for rounding in both engines, which the truncation bound
    does not cover: 1e-13 of the integrand's pointwise maximum times the
    kernel's mass."""
    return 1e-13 * source.amplitude_sum() ** (2 * q) * mass


def test_evenness_under_frequency_negation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = random_instance(rng, max_n=5)
        neg = validate_instance(inst.amplitudes,
                                [-p for p in inst.frequencies])
        w = Window(0.0, float(rng.uniform(0.1, 20)))
        a = windowed_average(inst, 2, w).value
        b = windowed_average(neg, 2, w).value
        assert a == pytest.approx(b, rel=1e-9)


def test_domination_monotone_at_zero_shift():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = random_instance(rng, max_n=5)
        cc = random_dominated(rng, inst)
        q = int(rng.integers(1, 3))
        params = KernelParams(float(rng.uniform(0.2, 10.0)), 0.0)
        v_c = fejer_weighted_integral(cc, q, params).value
        v_a = fejer_weighted_integral(inst, q, params).value
        assert v_c <= v_a * (1 + 1e-9) + 1e-12


def test_error_estimate_reported():
    inst = validate_instance([1.0, 0.5], [0.0, 3.0])
    res = windowed_average(inst, 1, Window(0.0, 2.0))
    assert res.error_estimate >= 0.0
    assert res.metadata["panels"] >= 1
    assert windowed_abs_average(inst, Window(0.0, 2.0)).metadata["error_kind"] \
        == "refinement_estimate"


def test_abs_average_two_tone():
    # mean of |2 cos(t/2)| over a long window approaches 4/pi
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    res = windowed_abs_average(inst, Window(0.0, 1000.0),
                               QuadratureConfig(rel_tol=1e-7))
    assert res.value == pytest.approx(4 / math.pi, abs=1e-3)


def test_config_validation():
    for kwargs in ({"rel_tol": 0.0}, {"rel_tol": math.nan}, {"rel_tol": math.inf}):
        with pytest.raises(NonFiniteError):
            QuadratureConfig(**kwargs)
    for constant in ("gauss_order", "max_panels"):  # class constants, not fields
        with pytest.raises(TypeError):
            QuadratureConfig(**{constant: 8})


@pytest.mark.parametrize("r", [0.5, 0.999, 1.0])
@pytest.mark.parametrize("k", [1, 318])
def test_abs_average_kinked_closed_form(r, k, monkeypatch):
    # |1 + r e^{it}| has period 2 pi, so over k whole periods its mean is
    # (1/2 pi) integral_0^{2 pi} |1 + r e^{it}| dt = (2(1+r)/pi) E(4r/(1+r)^2);
    # at r -> 1 the zeros of S put kinks into |S|.
    points, original = [], quadrature.abs_on_array

    def counted(source, ts):
        points.append(ts.size)
        return original(source, ts)

    monkeypatch.setattr(quadrature, "abs_on_array", counted)
    inst = validate_instance([1.0, r], [0.0, 1.0])
    res = windowed_abs_average(inst, Window(0.3, k * math.pi))
    exact = float(2 * (1 + r) / mpmath.pi * mpmath.ellipe(4 * r / (1 + r) ** 2))
    assert res.value == pytest.approx(exact, rel=QuadratureConfig().rel_tol)
    if (r, k) == (0.999, 318):
        # Only the panels next to the near-zeros of S need refining.
        assert sum(points) <= 1_000_000


def test_not_converged_carries_the_average(monkeypatch):
    inst = validate_instance([1.0, 0.5], [0.0, 1.0])
    cases = (
        # One level of Gauss panels: at T = 10 one panel suffices, at
        # T = 100 the rule needs 8 or 9 and 7 are too few.
        (lambda cfg: windowed_average(inst, 1, Window(2.0, 100.0), cfg), 7),
        # 7 base panels, no room to halve.
        (lambda cfg: windowed_abs_average(inst, Window(2.0, 10.0), cfg), 10))
    for integrate, max_panels in cases:
        converged = integrate(QuadratureConfig())
        with monkeypatch.context() as patch, pytest.raises(NotConvergedError) as info:
            patch.setattr(QuadratureConfig, "max_panels", max_panels)
            integrate(QuadratureConfig())
        assert info.value.value == pytest.approx(converged.value, rel=1e-6)
    assert info.value.error_estimate > 0


def test_bound_value_pinned_by_hand():
    # a = (1, 1), phi = (0, 1): psi = -+1/2, so M(y) = (e^{y/2} + e^{-y/2})^2
    # = 4 cosh^2(y/2).  With n = 16 nodes, Trefethen's n is 15.
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])

    def per_unit_h(h, rho):
        y = h * (rho - 1 / rho) / 2
        return 64 / 15 * 4 * math.cosh(y / 2) ** 2 * rho ** -30 / (rho ** 2 - 1)

    T = 40.0
    res = windowed_average(inst, 1, Window(0.5, T))
    h, rho = T / res.metadata["panels"], res.metadata["rho"]
    # sum over the panels of h is T; the average divides by 2T.
    assert res.error_estimate == pytest.approx(per_unit_h(h, rho) * T / (2 * T),
                                               rel=1e-12)
    assert res.metadata["points"] == 16 * res.metadata["panels"]
    assert res.metadata["error_kind"] == "truncation_bound"
    fej = fejer_weighted_integral(inst, 1, KernelParams(T, 0.5))
    h, rho = T / fej.metadata["panels"], fej.metadata["rho"]
    # The kernel adds sum h * (K(m) + a/T) = T/2 + a, a = h(rho + 1/rho)/2.
    expected = per_unit_h(h, rho) * (T / 2 + h * (rho + 1 / rho) / 2)
    assert fej.error_estimate == pytest.approx(expected, rel=1e-12)
    # The same window by hand at one (h, rho): h = 1, rho = 5.
    assert per_unit_h(1.0, 5.0) == pytest.approx(
        64 / 15 * 4 * math.cosh(1.2) ** 2 / 5 ** 30 / 24, rel=1e-15)


def test_bound_covers_mpmath_tuple_sum():
    for source, q, _, T, shift, win, fej in closed_form_cases():
        res = windowed_average(source, q, Window(shift, T))
        assert abs(res.value - win / (2 * T)) \
            <= res.error_estimate + _rounding(source, q, 1)
        res = fejer_weighted_integral(source, q, KernelParams(T, shift))
        assert abs(res.value - fej) <= res.error_estimate + _rounding(source, q, T)


def test_gauss_nodes_cached_read_only():
    nodes, weights = gauss_legendre()
    assert gauss_legendre()[0] is nodes
    assert nodes.size == QuadratureConfig.gauss_order
    assert not (nodes.flags.writeable or weights.flags.writeable)
    assert math.fsum(weights) == pytest.approx(2.0, rel=1e-15)
