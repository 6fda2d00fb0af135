import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expmoment.core import OverflowRangeError, dominated_coefficients, validate_instance
from expmoment.evaluate import (
    Grid,
    _check_overflow,
    _power,
    power_on_array,
    sum_on_array,
)
from reference_oracle import eval_sum

small_instances = st.builds(
    lambda amps, phis: validate_instance(amps[:min(len(amps), len(phis))],
                                         phis[:min(len(amps), len(phis))]),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
)


def test_eval_sum_constant_term():
    inst = validate_instance([1.0], [0.0])
    for t in (-3.0, 0.0, 17.5):
        assert eval_sum(inst, t) == 1.0 + 0.0j


def test_eval_sum_cancellation():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    assert abs(eval_sum(inst, math.pi)) < 1e-15


def test_eval_sum_quarter_period():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    assert eval_sum(inst, math.pi / 2) == pytest.approx(1.0 + 1.0j, abs=1e-15)


def _eval_power(source, t, q):
    """|S(t)|^{2q} from the compensated scalar S(t)."""
    return abs(eval_sum(source, t)) ** (2 * q)


def test_eval_power_trivials():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    assert _eval_power(inst, 0.0, 2) == pytest.approx(16.0, rel=1e-14)
    assert _eval_power(inst, math.pi, 3) == pytest.approx(0.0, abs=1e-40)
    assert power_on_array(inst, np.array([0.0, math.pi]), 3) \
        == pytest.approx([64.0, 0.0], rel=1e-14, abs=1e-40)


def test_eval_power_against_mpmath():
    # |2 + e^{3.5 i}|^2 via a 50-digit independent evaluation
    inst = validate_instance([2.0, 1.0], [0.0, 5.0])
    with mpmath.workdps(50):
        expected = float(abs(2 + mpmath.e ** (3.5j)) ** 2)
    assert _eval_power(inst, 0.7, 1) == pytest.approx(expected, rel=1e-14)
    assert power_on_array(inst, np.array([0.7]), 1)[0] \
        == pytest.approx(expected, rel=1e-14)


@settings(max_examples=50)
@given(small_instances, st.floats(-50.0, 50.0))
def test_triangle_inequality(inst, t):
    assert abs(eval_sum(inst, t)) <= inst.amplitude_sum() * (1 + 1e-12) + 1e-12


@settings(max_examples=50)
@given(small_instances, st.floats(-50.0, 50.0))
def test_conjugate_symmetry(inst, t):
    s_plus = eval_sum(inst, t)
    s_minus = eval_sum(inst, -t)
    assert s_minus == pytest.approx(s_plus.conjugate(), abs=1e-12 * (1 + abs(s_plus)))


@settings(max_examples=50)
@given(small_instances, st.floats(-20.0, 20.0), st.floats(-5.0, 5.0),
       st.integers(1, 3))
def test_frequency_shift_invariance(inst, t, delta, q):
    shifted = validate_instance(inst.amplitudes,
                                [p + delta for p in inst.frequencies])
    base = _eval_power(inst, t, q)
    assert _eval_power(shifted, t, q) == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_power_on_array_matches_scalar():
    inst = validate_instance([0.5, 1.5], [2.0, -3.0])
    cc = dominated_coefficients([0.5j, -1.0], inst)
    ts = np.linspace(-4, 4, 37)
    for source in (inst, cc):
        vec = power_on_array(source, ts, 2)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(_eval_power(source, float(t), 2), rel=1e-12)


def test_power_on_array_is_exact_under_amplitude_scaling():
    # c -> 2^k c scales |S|^2 by exactly 4^k, and the rounded products of
    # squaring keep it exact in |S|^{2q}; a pow is an ulp off at some points.
    rng = np.random.default_rng(38)
    ts = np.linspace(-50.0, 50.0, 2 ** 18)
    for q in (3, 4, 5, 6):
        inst = validate_instance(rng.uniform(0.1, 1.0, 4), rng.uniform(-10.0, 10.0, 4))
        want = power_on_array(inst, ts, q)
        for k in (-20, 5):
            scaled = validate_instance([math.ldexp(a, k) for a in inst.amplitudes],
                                       inst.frequencies)
            assert np.array_equal(power_on_array(scaled, ts, q),
                                  np.ldexp(want, 2 * q * k)), (q, k)


def test_power_takes_no_step_past_its_value():
    # x^q within a factor 2^q of the double range: a square past x^q would
    # overflow, a RuntimeWarning, which the suite turns into an error.
    top = np.finfo(np.float64).max
    rng = np.random.default_rng(17)
    for q in range(1, 18):
        x = np.concatenate(([0.5 * top ** (1 / q)], rng.uniform(0.0, 4.0, 1000)))
        assert _power(x, q) == pytest.approx(x ** q, rel=q * 2.3e-16, abs=0.0)
        assert _power(float(x[0]), q) == pytest.approx(float(x[0]) ** q,
                                                       rel=q * 2.3e-16)


@settings(max_examples=50)
@given(small_instances,
       st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=6),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5))
# A subnormal amplitude: the relative bound underflows to 0 while the two
# sums differ by one subnormal unit.
@example(validate_instance([2.2250738585e-313], [1.0]), [0.0] * 8, [2.0], [0.5])
def test_sum_on_grid_matches_pointwise(inst, phases, rows, cols):
    values = [a * cmath.exp(1j * th) for a, th in zip(inst.amplitudes, phases)]
    cc = dominated_coefficients(values, inst)
    grid = Grid(np.array(rows), np.array(cols))
    for source in (inst, cc):
        vals = sum_on_array(source, grid)
        assert vals.shape == (len(rows), len(cols))
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                t = r + c
                bound = 1e-12 * (source.amplitude_sum() * max(
                    1.0, max(abs(t * p) for p in inst.frequencies))) \
                    + 4 * inst.size * math.ulp(0.0)
                assert abs(vals[i, j] - eval_sum(source, t)) <= bound


@settings(max_examples=50)
@given(small_instances,
       st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4))
@example(validate_instance([2.2250738585e-313], [1.0]), [0.0] * 8, [2.0], [1.0], [0.5])
@example(validate_instance([2.2250738585e-313], [1.0]), [1.859375] * 8, [2.0], [1.0],
         [0.5])  # |a e^{i theta}| rounds one ulp of 0 past a
# A subnormal amplitude at |t phi| ~ 8e5: the phase rounding moves the sum by
# five subnormal units, inside the relative bound only if 1e-12 multiplies
# the product sum|a| * |t phi| rather than sum|a| alone, which flushes to 0.
@example(validate_instance([2.2250738585e-313], [5.19518138674086]), [0.0] * 8,
         [156151.0], [0.0], [4.0])
def test_sum_on_nested_grid_matches_pointwise(inst, phases, coarse, fine, cols):
    values = [a * cmath.exp(1j * th) for a, th in zip(inst.amplitudes, phases)]
    cc = dominated_coefficients(values, inst)
    grid = Grid(np.array(coarse), Grid(np.array(fine), np.array(cols)))
    shape = (len(coarse), len(fine), len(cols))
    assert grid.shape == shape and grid.size == math.prod(shape)
    points = grid.points()
    assert points.shape == shape
    for source in (inst, cc):
        vals = sum_on_array(source, grid)
        assert vals.shape == shape
        for i, j, k in np.ndindex(shape):
            t = coarse[i] + (fine[j] + cols[k])
            assert points[i, j, k] == t
            bound = 1e-12 * (source.amplitude_sum() * max(
                1.0, max(abs(t * p) for p in inst.frequencies))) \
                + 4 * inst.size * math.ulp(0.0)
            assert abs(vals[i, j, k] - eval_sum(source, t)) <= bound


def test_overflow_guard_in_log_domain():
    # (sum |c|)^power * max(1, mass) against 1e300, with no float overflow on
    # the way, even for complex parts near the top of the double range.
    edge = validate_instance([5e149, 4e149], [0.0, 1.5])  # (sum a)^2 = 8.1e299
    _check_overflow(edge, 2, 1.2)
    _check_overflow(edge, 2, 1e-9)  # a mass below 1 counts as 1
    _check_overflow(validate_instance([0.0, 0.0], [0.0, 1.0]), 6, 1e308)
    top = validate_instance([1e308, 1e308], [0.0, 1.0])
    near_top = dominated_coefficients([7e307 + 7e307j, 1.0], top)
    for source, power, mass in ((edge, 2, 1.3), (edge, 3, 1.0), (top, 1, 1.0),
                                (near_top, 1, 1.0),
                                (validate_instance([1.0], [0.0]), 1, math.inf)):
        with pytest.raises(OverflowRangeError):
            _check_overflow(source, power, mass)
