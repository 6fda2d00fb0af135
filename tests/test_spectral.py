import functools
import math
import tracemalloc

import numpy as np
import pytest

from expmoment.core import (
    BadGapError,
    NotIntegerError,
    TermBudgetExceededError,
    Window,
    dominated_coefficients,
    validate_instance,
)
from expmoment.evaluate import eval_sum
from expmoment import spectral
from expmoment.fejer import KernelParams, kernel_hat
from expmoment.quadrature import windowed_average
from expmoment.spectral import (
    _expand,
    expand,
    fejer_weighted_exact,
    integral_exact,
    limit_moment,
    rational_mode_expand,
)
from expmoment.verify import random_dominated, random_instance
from expmoment.zeta import zeta_instance
from tuple_sum_oracle import closed_form_cases


def _two_sided(exp):
    """Brute-force spectrum of |S|^{2q}: every mode pair (j, k) at
    omega = f_j - f_k with coefficient A_j conj(A_k), grouped by exactly
    equal omega.  Returns sorted omegas and their summed coefficients."""
    omegas = np.subtract.outer(exp.freqs, exp.freqs).ravel()
    coeffs = np.multiply.outer(exp.amps, np.conj(exp.amps)).ravel()
    unique, inverse = np.unique(omegas, return_inverse=True)
    summed = np.zeros(unique.size, dtype=np.complex128)
    np.add.at(summed, inverse.ravel(), coeffs)
    return unique.astype(np.float64), summed


def _coeff_at(exp, omega, tol=1e-9):
    omegas, coeffs = _two_sided(exp)
    return complex(coeffs[np.abs(omegas - omega) <= tol].sum())


def test_expand_two_tone_q1():
    exp = expand(validate_instance([1.0, 1.0], [0.0, 1.0]), 1)
    assert _two_sided(exp)[0].size == 3
    assert _coeff_at(exp, -1.0) == pytest.approx(1.0)
    assert _coeff_at(exp, 0.0) == pytest.approx(2.0)
    assert _coeff_at(exp, 1.0) == pytest.approx(1.0)


def test_expand_single_term_any_q():
    exp = expand(validate_instance([1.0], [4.2]), 3)
    omegas, coeffs = _two_sided(exp)
    assert omegas.size == 1
    assert omegas[0] == pytest.approx(0.0)
    assert complex(coeffs[0]) == pytest.approx(1.0)


def test_expand_diagonal_coefficient_q2():
    exp = expand(validate_instance([1.0, 1.0], [0.0, math.sqrt(2)]), 2)
    assert _coeff_at(exp, 0.0) == pytest.approx(6.0)  # 1 + 4 + 1


def test_term_count_bound_and_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inst = random_instance(rng, max_n=5)
        q = int(rng.integers(1, 4))
        omegas, coeffs = _two_sided(expand(inst, q))
        assert omegas.size <= math.comb(inst.size + q - 1, q) ** 2
        # real non-negative amplitudes: real coefficients, symmetric spectrum
        assert np.abs(coeffs.imag).max() <= 1e-9 * np.abs(coeffs).max()
        order = np.argsort(-omegas)
        assert np.allclose(omegas, -omegas[order], atol=1e-7)
        assert np.allclose(coeffs.real, coeffs.real[order], rtol=1e-7)


def test_parseval_at_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        inst = random_instance(rng, max_n=6)
        cc = random_dominated(rng, inst)
        for source in (inst, cc):
            q = int(rng.integers(1, 4))
            exp = expand(source, q)
            total = complex(np.sum(_two_sided(exp)[1]))
            direct = abs(eval_sum(source, 0.0)) ** (2 * q)
            assert total.real == pytest.approx(direct, rel=1e-9, abs=1e-12)
            assert exp.metadata["parseval_rel_err"] <= 1e-9 + 1e-12 / max(direct, 1e-12)


def test_term_budget():
    # 40 generic frequencies give C(42, 3) = 11,480 modes of S^3, whose
    # 1.3e8 mode pairs exceed the 1e8 budget.
    phis = np.random.default_rng(0).uniform(-10.0, 10.0, 40)
    inst = validate_instance([1.0] * 40, [float(p) for p in phis])
    with pytest.raises(TermBudgetExceededError, match="11480"):
        expand(inst, 3)
    assert expand(inst, 2).freqs.size == math.comb(41, 2)


def test_budget_counts_merged_modes():
    # 40,920 compositions of q = 4 over 30 terms merge into 117 modes on
    # the lattice 0..116, so the mode pairs stay far inside the budget.
    inst = validate_instance([1.0] * 30, list(range(30)))
    exp = rational_mode_expand(inst, 4)
    assert exp.metadata["raw_pairs"] == 117 ** 2
    assert exp.metadata["parseval_rel_err"] == 0.0
    window = Window(0.3, 2.0)
    quad = windowed_average(inst, 4, window).value
    assert integral_exact(exp, window) / 4.0 == pytest.approx(quad, rel=1e-9)


def test_integral_exact_two_tone():
    exp = expand(validate_instance([1.0, 1.0], [0.0, 1.0]), 1)
    raw = integral_exact(exp, Window(0.0, math.pi))
    assert raw == pytest.approx(4 * math.pi, rel=1e-12)


def test_integral_exact_single_term():
    exp = expand(validate_instance([1.0], [2.0]), 4)
    for T in (0.5, 3.0):
        assert integral_exact(exp, Window(0.0, T)) == pytest.approx(2 * T, rel=1e-14)


def test_limit_moment_examples():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    assert limit_moment(expand(inst, 1)) == pytest.approx(2.0)
    ind = validate_instance([1.0, 1.0], [0.0, math.sqrt(2)])
    assert limit_moment(expand(ind, 2)) == pytest.approx(6.0)
    res = validate_instance([1.0, 1.0], [3.0, 3.0])
    assert limit_moment(expand(res, 1)) == pytest.approx(4.0)


def test_limit_moment_lower_bound_and_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        inst = random_instance(rng, max_n=5)
        q = int(rng.integers(1, 4))
        exp = expand(inst, q)
        lm = limit_moment(exp)
        assert lm >= inst.energy() ** q * (1 - 1e-9) - 1e-12
        lam = float(rng.uniform(0.1, 3.0))
        scaled = validate_instance([lam * a for a in inst.amplitudes],
                                   inst.frequencies)
        assert limit_moment(expand(scaled, q)) == pytest.approx(
            lam ** (2 * q) * lm, rel=1e-9, abs=1e-12)


def test_resonance_gap():
    # The gaps between consecutive modes, which the merged modes keep > 0.
    exp = expand(validate_instance([1.0, 1.0], [0.0, 3.0]), 1)
    assert np.diff(exp.freqs).tolist() == [3.0]
    single = expand(validate_instance([1.0], [0.0]), 1)
    assert np.diff(single.freqs).size == 0


def test_three_tone_limit_and_resonance_gap():
    # Pair frequencies 0 (x3), +-0.5, +-1, +-1.5: only the diagonal survives.
    exp = expand(validate_instance([1.0, 1.0, 1.0], [0.0, 1.0, 1.5]), 1)
    assert limit_moment(exp) == pytest.approx(3.0, rel=1e-14)
    assert np.diff(exp.freqs).min() == pytest.approx(0.5, rel=1e-14)


def test_closed_forms_match_mpmath_tuple_sum():
    for source, q, integer, T, shift, win, fej in closed_form_cases():
        float_expand = functools.partial(_expand, exact=False)
        expanders = [expand, float_expand] + ([rational_mode_expand] if integer else [])
        for expander in expanders:
            exp = expander(source, q)
            assert integral_exact(exp, Window(shift, T)) == pytest.approx(win, rel=1e-12)
            assert fejer_weighted_exact(exp, KernelParams(T, shift)) \
                == pytest.approx(fej, rel=1e-12)


def _square_forms(exp, T, shift):
    """The window and Fejer forms summed over the full modes x modes square,
    with np.sinc and kernel_hat as the kernels."""
    omega = np.subtract.outer(exp.freqs, exp.freqs)
    b = exp.amps * np.exp(1j * shift * exp.freqs)
    window = 2 * T * np.sinc(omega * (T / math.pi))
    fejer = kernel_hat(KernelParams(T, shift), omega)
    return [float((b @ k @ np.conj(b)).real) for k in (window, fejer)]


def _form_cases():
    rng = np.random.default_rng(1501)
    yield expand(validate_instance([0.7], [2.5]), 3), 4.0, 1.3   # 1 mode
    yield expand(validate_instance([1.0, 0.4], [0.0, 1.7]), 1), 2.5, -3.0
    yield expand(validate_instance([0.9, 0.6, 0.3], [-0.4, 1.1, 2.9]), 3), 1.5, 7.0
    yield expand(validate_instance([1.0, 0.5, 0.25, 0.7], [0, 1, 3, 7]), 2), 3.0, -0.6
    for _ in range(100):
        inst = random_instance(rng, max_n=6)
        if rng.uniform() < 0.3:
            inst = validate_instance(inst.amplitudes,
                                     [float(v) for v in rng.integers(-9, 10, inst.size)])
        yield (expand(inst, int(rng.integers(1, 4))), float(rng.uniform(0.1, 20.0)),
               float(rng.uniform(-50.0, 50.0)))


@pytest.mark.parametrize("rows", [1, 3, None])
def test_blocked_triangle_matches_full_square(monkeypatch, rows):
    # rows = 1: one-row blocks; rows = 3: blocks of three rows, the last one
    # ragged where 3 does not divide the mode count; None: the default blocks.
    sizes = set()
    for exp, T, shift in _form_cases():
        n = exp.freqs.size
        sizes.add(n)
        if rows is not None:
            monkeypatch.setattr(spectral, "_ROW_CHUNK", rows * n)
        values = (integral_exact(exp, Window(shift, T)),
                  fejer_weighted_exact(exp, KernelParams(T, shift)))
        for value, square in zip(values, _square_forms(exp, T, shift)):
            assert type(value) is float  # np.float64 verdicts are np.bool_, not JSON
            assert value == pytest.approx(square, rel=1e-13)
    assert {1, 2, 10} <= sizes and any(n % 3 == 2 for n in sizes)


def test_form_memory_stays_blocked():
    # C(15, 4) = 1365 modes of S^4 over 12 generic frequencies.  The form
    # must stay in blocks, not a modes x modes square (71 MiB with 4e6-entry
    # blocks).
    rng = np.random.default_rng(1502)
    inst = validate_instance([float(a) for a in rng.uniform(0.1, 1.0, 12)],
                             [float(p) for p in rng.uniform(-5.0, 5.0, 12)])
    exp = expand(inst, 4)
    assert exp.freqs.size == 1365
    for form in (lambda: integral_exact(exp, Window(2.0, 3.0)),
                 lambda: fejer_weighted_exact(exp, KernelParams(3.0, 2.0))):
        tracemalloc.start()
        try:
            form()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


def test_fejer_weighted_exact_examples():
    exp = expand(validate_instance([1.0, 1.0], [0.0, 1.0]), 1)
    v = fejer_weighted_exact(exp, KernelParams(2 * math.pi, 0.0))
    assert v == pytest.approx(4 * math.pi, rel=1e-12)
    single = expand(validate_instance([1.0], [5.0]), 2)
    for T in (0.3, 9.0):
        assert fejer_weighted_exact(single, KernelParams(T, 7.0)) \
            == pytest.approx(T, rel=1e-14)


def test_rational_mode_examples():
    inst = validate_instance([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    exp = rational_mode_expand(inst, 2)
    assert set(_two_sided(exp)[0].tolist()) <= set(float(k) for k in range(-4, 5))
    two = rational_mode_expand(validate_instance([1.0, 1.0], [0.0, 3.0]), 1)
    assert _two_sided(two)[0].tolist() == [-3.0, 0.0, 3.0]
    assert limit_moment(two) == pytest.approx(_coeff_at(two, 0.0).real)


def test_rational_mode_rejects_non_integers():
    with pytest.raises(NotIntegerError):
        rational_mode_expand(validate_instance([1.0], [0.5]), 1)


def test_rational_mode_rejects_out_of_range_frequencies():
    # Past 2q max|phi| = 2^53, int64 k.phi wraps and float64 rounds.
    for phis in ([0.0, 2.0 ** 62], [0.0, 1e300]):
        with pytest.raises(NotIntegerError):
            rational_mode_expand(validate_instance([1.0, 1.0], phis), 2)
    edge = rational_mode_expand(validate_instance([1.0, 1.0], [0.0, 2.0 ** 51]), 2)
    omegas, coeffs = _two_sided(edge)
    assert omegas.tolist() == [k * 2.0 ** 51 for k in (-2, -1, 0, 1, 2)]
    assert coeffs.real.tolist() == [1.0, 4.0, 6.0, 4.0, 1.0]


def test_rational_matches_float_expand():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        inst = validate_instance([float(a) for a in rng.uniform(0, 1, n)],
                                 [float(v) for v in rng.integers(-5, 6, n)])
        q = int(rng.integers(1, 4))
        a = rational_mode_expand(inst, q)
        b = _expand(inst, q, exact=False)
        assert b.freqs.dtype == np.float64
        win = Window(float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 5)))
        assert integral_exact(a, win) == pytest.approx(integral_exact(b, win),
                                                       rel=1e-9, abs=1e-12)


def test_expand_goes_exact_on_integer_frequencies():
    exp = expand(validate_instance([1.0, 1.0, 1.0], [0.0, 1.0, 2e9]), 1)
    assert exp.freqs.tolist() == [0.0, 1.0, 2e9]
    assert exp.metadata["exact_omegas"] and exp.metadata["merge_width"] == 0.0
    assert limit_moment(exp) == 3.0
    assert integral_exact(exp, Window(0.0, 10.0)) / 20.0 == pytest.approx(
        3.0 + 2.0 * math.sin(10.0) / 10.0, rel=1e-9)


def test_rounding_tolerance_keeps_distinct_modes():
    # 2e9 + 0.5 widens the merge tolerance only to 4 eps 2e9 = 1.8e-6, so
    # the modes at 0 and 1.5 stay apart (a tolerance of 2 joined them and
    # gave a limit of 5.0 and a refused window).
    exp = expand(validate_instance([1.0, 1.0, 1.0], [0.0, 1.5, 2e9 + 0.5]), 1)
    assert not exp.metadata["exact_omegas"]
    assert exp.metadata["merge_width"] == 0.0
    assert exp.freqs.tolist() == [0.0, 1.5, 2e9 + 0.5]
    assert limit_moment(exp) == 3.0
    assert np.diff(exp.freqs).min() == 1.5
    T = 10.0
    sinc_sum = sum(math.sin(T * w) / (T * w) for w in (1.5, 2e9 + 0.5, 2e9 - 1.0))
    value = integral_exact(exp, Window(0.0, T)) / (2 * T)
    assert value == pytest.approx(3.0 + 2.0 * sinc_sum, rel=1e-12)
    assert value == pytest.approx(3.0867050453797953, rel=1e-12)


def test_wide_float_merge_is_refused():
    # Next to 2^60 the tolerance is 4 eps 2^60 = 1024, so 0 and 1e-3 merge
    # into one mode; the window forms refuse rather than use it.
    exp = expand(validate_instance([1.0, 1.0, 1.0], [0.0, 1e-3, 2.0 ** 60]), 1)
    assert not exp.metadata["exact_omegas"]
    assert exp.metadata["merge_width"] == 1e-3
    with pytest.raises(BadGapError):
        integral_exact(exp, Window(0.0, 10.0))
    with pytest.raises(BadGapError):
        fejer_weighted_exact(exp, KernelParams(10.0, 0.0))


def test_merge_width_accepts_rounding_clusters():
    # Frequencies equal up to rounding merge within a tiny width, and the
    # window value keeps the engines' agreement with quadrature.
    inst = validate_instance([1.0, 0.5, 0.25], [0.1 + 0.2, 0.3, 1.7])
    exp = expand(inst, 2)
    assert 0.0 < exp.metadata["merge_width"] < 1e-15
    window = Window(40.0, 60.0)
    quad = windowed_average(inst, 2, window).value
    assert integral_exact(exp, window) / 120.0 == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("N, q, modes", [(40, 2, 517), (60, 2, 1116), (80, 2, 1939),
                                         (100, 2, 2906), (40, 3, 3919)])
def test_zeta_mode_counts_and_merge_width(N, q, modes):
    # log n sums that agree up to rounding (log 6 = log 2 + log 3) merge,
    # and every cluster stays inside the rounding tolerance.
    inst = zeta_instance(N)
    exp = expand(inst, q)
    assert exp.freqs.size == modes
    tol = 4 * q * np.finfo(np.float64).eps * q * max(inst.frequencies)
    assert 0.0 < exp.metadata["merge_width"] < tol
