import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expmoment.core import (
    DominationError,
    EmptyInstanceError,
    Instance,
    LengthMismatchError,
    MomentResult,
    NegativeAmplitudeError,
    NonFiniteError,
    Window,
    dominated_coefficients,
    validate_instance,
    validate_order,
)
from expmoment.quadrature import windowed_average
from expmoment.rademacher import exact_even_moment
from expmoment.spectral import expand
from expmoment.verify import check_theorem1

finite_amp = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
finite_freq = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_validate_instance_well_formed():
    inst = validate_instance([1.0, 2.0], [0.0, 1.0])
    assert inst.size == 2
    assert inst.amplitudes == (1.0, 2.0)


def test_validate_instance_negative_amplitude():
    with pytest.raises(NegativeAmplitudeError):
        validate_instance([-1.0], [0.0])


def test_validate_instance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        validate_instance([1.0], [0.0, 1.0])


def test_validate_instance_empty():
    with pytest.raises(EmptyInstanceError):
        validate_instance([], [])


def test_validate_instance_non_finite():
    with pytest.raises(NonFiniteError):
        validate_instance([1.0, math.nan], [0.0, 1.0])
    with pytest.raises(NonFiniteError):
        validate_instance([1.0], [math.inf])


def test_energy_examples():
    assert validate_instance([1, 1], [0, 1]).energy() == 2.0
    assert validate_instance([3, 4], [0, 1]).energy() == 25.0
    assert validate_instance([0, 0, 0], [0, 1, 2]).energy() == 0.0


@given(st.lists(st.tuples(finite_amp, finite_freq), min_size=1, max_size=12),
       st.randoms())
def test_energy_permutation_invariant(pairs, rnd):
    inst = validate_instance([p[0] for p in pairs], [p[1] for p in pairs])
    shuffled = pairs[:]
    rnd.shuffle(shuffled)
    perm = validate_instance([p[0] for p in shuffled], [p[1] for p in shuffled])
    assert perm.energy() == inst.energy()


@given(st.lists(st.tuples(finite_amp, finite_freq), min_size=1, max_size=12))
def test_json_round_trip_bit_exact(pairs):
    inst = validate_instance([p[0] for p in pairs], [p[1] for p in pairs])
    back = Instance.from_json(json.dumps({"amplitudes": list(inst.amplitudes),
                                          "frequencies": list(inst.frequencies)}))
    assert back == inst


def test_from_json_malformed():
    with pytest.raises(NonFiniteError):
        Instance.from_json("{not json")
    with pytest.raises(NonFiniteError):
        Instance.from_json('{"amplitudes": [1.0]}')


def test_domination_accepts_boundary_and_rejects_excess():
    inst = validate_instance([1.0, 0.5], [0.0, 1.0])
    cc = dominated_coefficients([1j, 0.5], inst)
    assert cc.size == 2
    # within the stated relative tolerance
    dominated_coefficients([1.0 * (1 + 1e-13), 0.5], inst)
    with pytest.raises(DominationError):
        dominated_coefficients([1.1, 0.5], inst)
    # At subnormal a_n rounding is absolute: |a e^{i theta}| may exceed a by
    # one ulp of 0, which two ulps absorb; three ulps are still refused.
    a = 2.2250738585e-313
    tiny = validate_instance([a], [0.0])
    dominated_coefficients([a * cmath.exp(1.859375j)], tiny)
    with pytest.raises(DominationError):
        dominated_coefficients([a + 3 * math.ulp(0.0)], tiny)


def test_domination_length_mismatch():
    inst = validate_instance([1.0], [0.0])
    with pytest.raises(LengthMismatchError):
        dominated_coefficients([1.0, 0.5], inst)


def test_window_validation():
    Window(0.0, 1.0)
    with pytest.raises(NonFiniteError):
        Window(0.0, 0.0)
    Window(0.0, 2.0 ** -1022)  # the smallest normal double
    with pytest.raises(NonFiniteError):
        Window(0.0, 5e-324)  # subnormal: T / 2 rounds to 0
    with pytest.raises(NonFiniteError):
        Window(math.nan, 1.0)


def test_moment_result_refuses_negative_parts():
    # The one non-negativity invariant of every quadrature result.
    for value, error in ((-1e-300, 0.0), (0.0, -1.0)):
        with pytest.raises(NonFiniteError):
            MomentResult(value, error)


def test_validate_order():
    assert validate_order(1) == 1
    for bad in (0, -1, 1.5, True):
        with pytest.raises(NonFiniteError):
            validate_order(bad)


def test_numpy_integer_order_is_accepted():
    inst = validate_instance([1.0, 0.5], [0.0, 1.0])
    order = validate_order(np.int64(2))
    assert order == 2 and type(order) is int
    report = check_theorem1(inst, np.int64(2), 1.0)
    assert report.passed and json.loads(report.to_json_line())["q"] == 2
    assert expand(inst, np.int64(2)).freqs.tolist() == [0.0, 1.0, 2.0]
    window = Window(0.0, 1.0)
    assert windowed_average(inst, np.int64(2), window).value == pytest.approx(
        windowed_average(inst, 2, window).value, rel=1e-15)
    assert exact_even_moment([1.0, 0.5], np.int64(2)) == exact_even_moment([1.0, 0.5], 2)
    for bad in (2.0, True, np.float64(2.0)):
        for call in (lambda q: check_theorem1(inst, q, 1.0), lambda q: expand(inst, q),
                     lambda q: windowed_average(inst, q, window),
                     lambda q: exact_even_moment([1.0, 0.5], q)):
            with pytest.raises(NonFiniteError):
                call(bad)
