import math

import mpmath
import numpy as np
import pytest

from expmoment import quadrature, spectral, verify
from expmoment.core import (
    KernelParams,
    NotConvergedError,
    OverflowRangeError,
    Window,
    dominated_coefficients,
    validate_instance,
)
from expmoment.quadrature import (
    QuadratureConfig,
    bandlimit,
    fejer_weighted_integral,
    gauss_legendre,
    windowed_average,
)
from expmoment.verify import (
    _l1_sides,
    _raw_window_integral,
    random_dominated,
    random_instance,
)
from expmoment.zeta import zeta_instance
from tuple_sum_oracle import closed_form_cases


def test_integrators_refuse_out_of_range_amplitudes():
    # (sum a)^2 = 8.1e299: in range times a mass 2T = 1.2, out of it at 1.3.
    edge = validate_instance([5e149, 4e149], [0.0, 1.5])
    assert windowed_average(edge, 1, Window(0.0, 0.6)).value > 7e299
    exp = spectral.expand(edge, 1)
    assert spectral.integral_exact(exp, Window(0.0, 0.6)) > 8e299
    assert spectral.fejer_weighted_exact(exp, KernelParams(1.2)) > 0
    for call in (lambda: windowed_average(edge, 1, Window(0.0, 0.65)),
                 lambda: fejer_weighted_integral(edge, 1, KernelParams(1.3)),
                 lambda: spectral.integral_exact(exp, Window(0.0, 0.65)),
                 lambda: spectral.fejer_weighted_exact(exp, KernelParams(1.3)),
                 # (sum a)^4 = 1.6e308, which the Parseval residual would raise to.
                 lambda: spectral.expand(validate_instance([1e77, 1e77], [0.0, 1.0]), 2)):
        with pytest.raises(OverflowRangeError, match="exceeds 1e300"):
            call()


@pytest.mark.parametrize("integrate, q, kernel, a, rel", [
    # (sum a)^2 = 4e-316 and (sum a)^4 = 1.6e-319 are subnormal; the values
    # keep about 26 and 17 bits.
    (windowed_average, 1, Window(0.0, 10.0), 1e-158, 1e-6),
    (fejer_weighted_integral, 2, KernelParams(10.0), 1e-80, 1e-4),
], ids=["window", "fejer"])
def test_tiny_amplitudes_take_the_panels_of_unit_ones(integrate, q, kernel, a, rel):
    # The tolerance underflowed to 0 here and log(0) raised ValueError.
    unit = integrate(validate_instance([1.0, 1.0], [0.0, 1.5]), q, kernel)
    tiny = integrate(validate_instance([a, a], [0.0, 1.5]), q, kernel)
    assert tiny.metadata["panels"] == unit.metadata["panels"]
    assert tiny.value == pytest.approx(unit.value * a ** (2 * q), rel=rel)


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


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("source, modulus", [
    (validate_instance([1.0, 2.0], [0.5, 0.5]), 3.0),
    (validate_instance([0.7], [3.7]), 0.7),
    (dominated_coefficients([0, 0], validate_instance([1.0, 1.0], [0.0, 1.5])), 0.0),
], ids=["equal-frequencies", "single-term", "zero-coefficients"])
def test_windowed_average_equal_frequencies_constant(source, modulus, q):
    # A constant |S| is exact in the Gauss rule, with no panels.
    window, params = Window(-7.0, 3.0), KernelParams(3.0, 2.0)
    res = windowed_average(source, q, window)
    power = math.prod([modulus * modulus] * q)  # squaring's products at q <= 3
    assert (res.value, res.error_estimate) == (power, 0.0)
    assert res.metadata["constant"]
    res = fejer_weighted_integral(source, q, params)
    assert (res.value, res.error_estimate) == (3 * power, 0.0)
    assert res.metadata["constant"]
    for kernel in (window, params):
        _, meta = _raw_window_integral(source, q, kernel, "both")
        assert meta["engines_agree"]


@pytest.mark.parametrize("kernel", [Window(0.0, 10.0), KernelParams(10.0, 0.0)],
                         ids=["window", "fejer"])
def test_gauss_rule_resizes_a_cancelling_source(kernel):
    # c = (1, -1) at frequencies 1e-4 apart nearly cancel, so the first
    # sizing, aimed at the floor (sum |c|^2)^q / 3, is far too coarse and the
    # rule re-sizes from the computed value: a second level of panels runs.
    source = dominated_coefficients([1, -1, 1e-3],
                                    validate_instance([1, 1, 1e-3], [0, 1e-4, 50]))
    expansion = spectral.expand(source, 1)
    if isinstance(kernel, Window):
        res = windowed_average(source, 1, kernel)
        exact, mass = spectral.integral_exact(expansion, kernel) / 20, 1
    else:
        res = fejer_weighted_integral(source, 1, kernel)
        exact, mass = spectral.fejer_weighted_exact(expansion, kernel), 10
    assert res.metadata["points"] > QuadratureConfig.gauss_order * res.metadata["panels"]
    assert abs(res.value - exact) <= res.error_estimate + _rounding(source, 1, mass)


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


def test_config_validation():
    for constant in ("rel_tol", "gauss_order", "max_panels"):  # class constants
        with pytest.raises(TypeError):
            QuadratureConfig(**{constant: 8})
    # The rule's certified error and the verdict's slack are one number.
    assert verify.PASS_REL_SLACK is QuadratureConfig.rel_tol


@pytest.mark.parametrize("r", [0.5, 0.999, 1.0])
@pytest.mark.parametrize("k", [1, 318])
def test_abs_average_kinked_closed_form(r, k):
    # |1 + r e^{it}| has period 2 pi, so over k whole periods its mean is
    # (1/2 pi) integral_0^{2 pi} |1 + r e^{it}| dt = (2(1+r)/pi) E(4r/(1+r)^2);
    # at r -> 1 the zeros of S put kinks into |S|.  The closed-form sides of
    # the L1 checks hold it (at r = 1 it is 4/pi, the two-tone mean).
    lower, upper = _l1_sides(validate_instance([1.0, r], [0.0, 1.0]), k * math.pi)
    exact = float(2 * (1 + r) / mpmath.pi * mpmath.ellipe(4 * r / (1 + r) ** 2))
    assert lower <= exact <= upper


def test_not_converged_carries_the_average(monkeypatch):
    inst = validate_instance([1.0, 0.5], [0.0, 1.0])
    # One level of Gauss panels: at T = 300 the rule needs 25, and the bound
    # of 23 (1.8e-9) is under the 2.25e-9 that |value| <= scale allows, so
    # it evaluates them and then misses rel_tol * value.
    window = Window(2.0, 300.0)
    converged = windowed_average(inst, 1, window)
    monkeypatch.setattr(QuadratureConfig, "max_panels", 23)
    with pytest.raises(NotConvergedError) as info:
        windowed_average(inst, 1, window)
    assert info.value.value == pytest.approx(converged.value, rel=1e-6)
    assert info.value.error_estimate > 0


def test_gauss_rule_refuses_before_evaluating(monkeypatch):
    # At T = 100 the rule needs 8 or 9 panels; the bound of 7 (2.6e-8) is
    # past the 2.25e-9 that any |value| <= scale could pass, so it raises
    # with value nan and evaluates nothing.
    calls = []
    monkeypatch.setattr(quadrature, "power_on_array",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(QuadratureConfig, "max_panels", 7)
    with pytest.raises(NotConvergedError) as info:
        windowed_average(validate_instance([1.0, 0.5], [0.0, 1.0]), 1,
                         Window(2.0, 100.0))
    assert math.isnan(info.value.value) and info.value.error_estimate > 2.25e-9
    # At T = 1e13 the bound is past the double range: it is refused in
    # logs and carried as inf, by the Fejer entry too.
    with pytest.raises(NotConvergedError) as info:
        fejer_weighted_integral(validate_instance([1.0, 0.5], [0.0, 1.0]), 1,
                                KernelParams(1e13, 0.0))
    assert math.isnan(info.value.value) and info.value.error_estimate == math.inf
    assert calls == []


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


@pytest.mark.parametrize("per_chunk", [1, 2, 7, 9, 10])
def test_chunk_edges_do_not_move_the_rule(monkeypatch, per_chunk):
    # Each chunk of R panels is a nested grid of ceil(R / isqrt(R)) rows of
    # isqrt(R) panels, trimmed to R.  Chunks of 1, 2, 7, 9 and 10 panels
    # leave 0 to isqrt(R) - 1 padding panels in full and in last chunks.
    inst = validate_instance([1.0, 0.7, 0.4], [0.0, 1.3, 3.1])
    cc = dominated_coefficients([0.5j, -0.7, 0.3 + 0.1j], inst)
    # 47, 20, 30 and 42 panels.
    calls = [lambda: windowed_average(inst, 2, Window(5.0, 100.0)),
             lambda: windowed_average(cc, 1, Window(-40.0, 80.0)),
             lambda: fejer_weighted_integral(inst, 2, KernelParams(60.0, 5.0)),
             lambda: fejer_weighted_integral(cc, 3, KernelParams(60.0, -3.0))]
    unpatched = [call() for call in calls]
    panels = [ref.metadata["panels"] for ref in unpatched]
    assert min(panels) > per_chunk
    assert per_chunk == 1 or any(p % per_chunk for p in panels)
    monkeypatch.setattr(quadrature, "_CHUNK", per_chunk * QuadratureConfig.gauss_order)
    for call, ref in zip(calls, unpatched):
        res = call()
        assert res.metadata == ref.metadata
        assert res.error_estimate == ref.error_estimate
        assert res.value == pytest.approx(ref.value, rel=1e-13)


@pytest.mark.parametrize("N, T", [(80, 1e3), (100, 1e4)])
def test_zeta_quadrature_matches_integral_exact(N, T):
    inst = zeta_instance(N)
    res = windowed_average(inst, 2, Window(0.0, T))
    exact = spectral.integral_exact(spectral.expand(inst, 2), Window(0.0, T)) / (2 * T)
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_gauss_nodes_cached_read_only():
    nodes, weights = gauss_legendre()
    assert gauss_legendre()[0] is nodes
    assert nodes.size == QuadratureConfig.gauss_order
    assert not (nodes.flags.writeable or weights.flags.writeable)
    assert math.fsum(weights) == pytest.approx(2.0, rel=1e-15)


def test_gauss_rule_matches_leggauss():
    # The Jacobi-matrix rule: leggauss's nodes, its weights up to rounding,
    # and exact on every even monomial up to degree 2n - 2.
    n = QuadratureConfig.gauss_order
    nodes, weights = gauss_legendre()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.all(np.abs(weights - ref_weights) <= 64 * np.spacing(ref_weights))
    for k in range(n):
        assert math.fsum(weights * nodes ** (2 * k)) == pytest.approx(
            2 / (2 * k + 1), rel=1e-14)
