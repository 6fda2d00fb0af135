import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expmoment.core import OverflowRangeError, dominated_coefficients, validate_instance
from expmoment import verify
from expmoment.evaluate import (
    Grid,
    _check_overflow,
    eval_sum,
    power_on_array,
    sum_on_array,
)

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
                bound = 1e-12 * source.amplitude_sum() * max(
                    1.0, max(abs(t * p) for p in inst.frequencies)) \
                    + 4 * inst.size * math.ulp(0.0)
                assert abs(vals[i, j] - eval_sum(source, t)) <= bound


@pytest.mark.parametrize("lo, hi, points", [(-10.0, 10.0, 1003),
                                             (-100.0, 100.0, 20001),
                                             (-3.0, 7.0, 10000)])
def test_grid_sup_points_and_value(monkeypatch, lo, hi, points):
    inst = validate_instance([1.0, 0.7, 0.2], [-1.5, 0.3, 1.9])
    seen = []
    real = verify.abs_on_array

    def recording(source, ts):
        seen.append(ts.points().ravel() if isinstance(ts, Grid) else ts)
        return real(source, ts)

    monkeypatch.setattr(verify, "abs_on_array", recording)
    sup = verify._grid_sup(inst, lo, hi, points)
    pts = np.sort(np.concatenate(seen))
    expected = np.linspace(lo, hi, points)
    assert pts.size == points
    assert pts[0] == lo
    assert pts[-1] == pytest.approx(hi, rel=1e-15)
    np.testing.assert_allclose(pts, expected, rtol=0, atol=1e-12 * (hi - lo))
    assert sup == pytest.approx(float(real(inst, expected).max()), rel=1e-12)


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
