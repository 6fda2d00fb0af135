import cmath
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expmoment import quadrature, spectral, verify, zeta
from expmoment.cli import EXIT_VIOLATED, main
from expmoment.core import (
    BadGapError,
    DegenerateCosineError,
    ExpMomentError,
    Instance,
    KernelParams,
    NegativeAmplitudeError,
    NonFiniteError,
    OverflowRangeError,
    TermBudgetExceededError,
    Window,
    dominated_coefficients,
    validate_instance,
)
from expmoment.quadrature import bandlimit, fejer_weighted_integral, windowed_average
from expmoment.spectral import expand, fejer_weighted_exact, integral_exact
from expmoment.verify import (
    check_bohr_bound,
    check_eq45,
    check_ingham_mordell,
    check_lemma,
    check_sup_chain,
    check_theorem1,
    random_dominated,
    random_instance,
)
from reference_oracle import eval_sum


def test_theorem1_single_term():
    rep = check_theorem1(validate_instance([1.0], [0.0]), 1, 5.0)
    assert rep.lhs == pytest.approx(1 / 3)
    assert rep.rhs == pytest.approx(1.0)
    assert rep.passed


def test_theorem1_two_tone():
    rep = check_theorem1(validate_instance([1.0, 1.0], [0.0, 1.0]), 1, math.pi)
    assert rep.lhs == pytest.approx(2 / 3)
    assert rep.rhs == pytest.approx(2.0, rel=1e-9)
    assert rep.passed


def test_theorem1_all_zero_trivial():
    # 0 <= 0 passes the general rule; no engine needs a special case.
    inst = validate_instance([0.0, 0.0], [0.0, 1.0])
    rep = check_theorem1(inst, 2, 1.0)
    assert rep.passed and rep.rhs == 0.0
    assert check_theorem1(inst, 2, 1.0, engine="both").passed


def test_theorem1_scale_invariant_verdict():
    inst = validate_instance([0.3, 0.8, 0.1], [0.0, 2.2, -4.0])
    base = check_theorem1(inst, 2, 3.0, engine="spectral")
    lam = 7.0
    scaled = validate_instance([lam * a for a in inst.amplitudes],
                               inst.frequencies)
    rep = check_theorem1(scaled, 2, 3.0, engine="spectral")
    assert rep.passed == base.passed
    assert rep.lhs == pytest.approx(lam ** 4 * base.lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(lam ** 4 * base.rhs, rel=1e-12)


def test_theorem1_both_engines_report_disagreement():
    inst = validate_instance([1.0, 0.5], [0.0, 2.0])
    rep = check_theorem1(inst, 1, 2.0, engine="both")
    assert "disagreement" in rep.method
    assert rep.method["disagreement"] <= 1e-6
    assert rep.passed


def test_reported_bounds_are_in_the_units_of_their_sides():
    # Theorem 1's rhs is the integral over 2T, and so are its engines' values
    # and bound; the lemma's rhs is 3 times its integral, and so is its bound.
    inst = validate_instance([1.0, 0.5, 0.25], [0.0, 1.3, -2.9])
    rep = check_theorem1(inst, 2, 30.0, engine="both")
    _, meta = verify._raw_window_integral(inst, 2, Window(0.0, 30.0), "both")
    for key in ("spectral", "quadrature", "error_estimate"):
        assert rep.method[key] == meta[key] / 60.0
    assert rep.method["spectral"] == rep.rhs
    assert rep.method["error_kind"] == "truncation_bound"
    coeffs = dominated_coefficients([0.5j, -0.5, 0.25], inst)
    rep = check_lemma(coeffs, 2, 30.0, 40.0, engine="quadrature")
    _, lhs = verify._raw_window_integral(coeffs, 2, Window(40.0, 30.0), "quadrature")
    _, rhs = verify._raw_window_integral(inst, 2, Window(0.0, 30.0), "quadrature")
    assert rep.method["lhs_error_estimate"] == lhs["error_estimate"]
    assert rep.method["rhs_error_estimate"] == 3.0 * rhs["error_estimate"]
    for side in ("lhs", "rhs"):
        assert rep.method[f"{side}_error_kind"] == "truncation_bound"


def test_disagreeing_engines_fail_every_dispatcher_check(monkeypatch, capsys):
    # Every disagreement exceeds a tolerance of -1.  The spectral engine
    # keeps its own binding, so its merge refusal is untouched.
    inst = validate_instance([1.0, 0.5], [0.0, 2.0])
    cc = dominated_coefficients([0.8, 0.3j], inst)
    checks = (lambda: check_theorem1(inst, 2, 3.0, engine="both"),
              lambda: check_lemma(cc, 2, 3.0, 5.0, engine="both"),
              lambda: check_eq45(cc, 2, 3.0, 1.0, engine="both"),
              lambda: zeta.corollary_lower_bound(5, 2, 10.0, engine="both"))
    agreed = [run() for run in checks]
    monkeypatch.setattr(verify, "ENGINE_AGREEMENT_RTOL", -1.0)
    for run, before in zip(checks, agreed):
        rep = run()
        assert before.passed and rep.passed is False
        assert (rep.lhs, rep.rhs) == (before.lhs, before.rhs)
    assert main(["moment", "--inline", "a=1,0.5;phi=0,2", "--q", "2",
                 "--T", "3", "--engine", "both"]) == EXIT_VIOLATED
    capsys.readouterr()


def test_lemma_equal_coefficients_zero_shift():
    inst = validate_instance([1.0, 0.7], [0.0, 1.3])
    cc = dominated_coefficients([complex(a) for a in inst.amplitudes], inst)
    rep = check_lemma(cc, 1, 4.0, 0.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs / 3, rel=1e-9)


def test_lemma_random_signs_and_large_shift():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, max_n=5)
    signs = rng.choice([-1.0, 1.0], inst.size)
    cc = dominated_coefficients(
        [s * a for s, a in zip(signs, inst.amplitudes)], inst)
    rep = check_lemma(cc, 2, 0.5, 1e3)
    assert rep.passed


def test_lemma_complex_stress_case():
    inst = validate_instance([0.6, 0.9], [1.0, -2.5])
    cc = dominated_coefficients([0.6j, -0.9], inst)
    rep = check_lemma(cc, 3, 0.2, 1e3)
    assert rep.passed


def test_eq45_equality_at_zero_shift():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    cc = dominated_coefficients([complex(a) for a in inst.amplitudes], inst)
    rep = check_eq45(cc, 1, 3.0, 0.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-10)


def test_eq45_random_phases():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inst = random_instance(rng, max_n=4)
        cc = random_dominated(rng, inst)
        rep = check_eq45(cc, int(rng.integers(1, 3)),
                         float(rng.uniform(0.5, 20)),
                         float(rng.uniform(-100, 100)))
        assert rep.passed


def test_eq45_rational_mode():
    rng = np.random.default_rng(43)
    inst = validate_instance([0.5, 0.25, 0.9, 0.4],
                             [-3.0, 0.0, 2.0, 7.0])
    cc = random_dominated(rng, inst)
    rep = check_eq45(cc, 3, 5.0, 17.0)
    assert rep.passed
    assert rep.method["rational_mode"]


def test_eq45_infers_integer_mode():
    rng = np.random.default_rng(47)
    for phis, integer in (([-3.0, 0.0, 2.0], True), ([-3.0, 0.5, 2.0], False)):
        inst = validate_instance([0.5, 0.9, 0.4], phis)
        cc = random_dominated(rng, inst)
        rep = check_eq45(cc, 2, 5.0, 17.0)
        assert rep.method["rational_mode"] is integer
        assert rep.lhs == pytest.approx(
            fejer_weighted_exact(expand(cc, 2), KernelParams(5.0, 17.0)), rel=1e-9)
        assert rep.rhs == pytest.approx(
            fejer_weighted_exact(expand(inst, 2), KernelParams(5.0, 0.0)), rel=1e-9)


def test_sup_chain_single_term_equality():
    inst = validate_instance([1.0], [2.0])
    rep = check_sup_chain(inst, [10.0])
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0)
    assert rep.method["engine"] == "closed_form"
    assert rep.method["lower_bounds"] == [pytest.approx(1.0, rel=1e-15)]
    assert rep.method["upper_bounds"] == [pytest.approx(1.0, rel=1e-15)]


def test_sup_chain_left_side_can_fail(monkeypatch):
    # Swapping the two sides keeps the upper one below sup |S|, so only the
    # left link (lower <= upper) can fail.
    real = verify._l1_sides
    monkeypatch.setattr(verify, "_l1_sides", lambda *args: real(*args)[::-1])
    rep = check_sup_chain(validate_instance([1.0, 0.5], [0.0, 1.0]), [100.0])
    assert rep.method["upper_bounds"][-1] <= rep.rhs
    assert not rep.passed


def test_sup_chain_right_side_can_fail(monkeypatch):
    # upper = sqrt(1.25 + sin(10) / 10) = 1.0926 tops a sup of 1.05 (the true
    # one is 1.5), while lower <= upper and max a_n = 1 <= 1.05 both hold.
    monkeypatch.setattr(verify, "_sup_abs", lambda *args: 1.05)
    rep = check_sup_chain(validate_instance([1.0, 0.5], [0.0, 1.0]), [10.0])
    assert rep.method["upper_bounds"] == [
        pytest.approx(math.sqrt(1.25 + math.sin(10.0) / 10.0), rel=1e-12)]
    assert rep.method["lower_bounds"][0] <= rep.method["upper_bounds"][0]
    assert (rep.lhs, rep.rhs) == (1.0, 1.05)
    assert rep.passed is False


def test_sup_chain_fails_when_its_headline_fails(monkeypatch):
    # Every per-T condition holds (lower 0.9 <= upper 0.92 <= sup 0.95),
    # but the printed max a_n = 1 <= 0.95 does not.
    monkeypatch.setattr(verify, "_l1_sides", lambda *args: (0.9, 0.92))
    monkeypatch.setattr(verify, "_sup_abs", lambda *args: 0.95)
    rep = check_sup_chain(validate_instance([1.0, 0.2], [0.0, 3.0]), [10.0])
    assert rep.method["lower_bounds"] == [0.9]
    assert (rep.lhs, rep.rhs) == (1.0, 0.95)
    assert rep.passed is False


def test_sup_chain_two_tone_middle_value():
    # The mean of |2 cos(t/2)| tends to 4/pi; at T the sides are
    # 1 + sin(T)/T and sqrt(2 + 2 sin(T)/T).
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    rep = check_sup_chain(inst, [10.0, 100.0, 1000.0])
    assert rep.passed
    lower, upper = rep.method["lower_bounds"][-1], rep.method["upper_bounds"][-1]
    s = math.sin(1000.0) / 1000.0
    assert lower == pytest.approx(1 + s, rel=1e-12)
    assert upper == pytest.approx(math.sqrt(2 + 2 * s), rel=1e-12)
    assert lower <= 4 / math.pi <= upper
    assert rep.method["finite_T_deviation"] == pytest.approx(-s, rel=1e-9)


@pytest.mark.parametrize("check", ["sup-chain", "bohr"])
def test_campaign_sup_is_the_amplitude_sum(check):
    # For a_n >= 0, sup |S| over a window around 0 is S(0) = sum a_n, exactly;
    # Bohr's rhs is that sup over the cosine product.
    for src, rep in verify.campaign(check, 25, 42):
        sup = math.fsum(src.amplitudes)
        if check == "bohr":
            assert rep.rhs == sup / rep.method["cos_product"]
        else:
            assert rep.method["sup"] == rep.rhs == sup
        assert rep.passed


def test_sup_checks_refuse_negative_amplitudes():
    # Instance(...) is not validated, and for a_n < 0 S(0) is not sup |S|.
    inst = Instance((1.0, -0.5), (1.0, 2.0))
    with pytest.raises(NegativeAmplitudeError):
        check_sup_chain(inst, [10.0])
    with pytest.raises(NegativeAmplitudeError):
        check_bohr_bound(inst, 1)


def test_sup_chain_rejects_repeated_frequencies():
    with pytest.raises(BadGapError):
        check_sup_chain(validate_instance([1.0, 1.0], [2.0, 2.0]), [10.0])


def test_ingham_hand_case():
    inst = validate_instance([1.0, 1.0], [0.0, 1.0])
    rep = check_ingham_mordell(inst, 1.0)
    # (1/pi) integral_{-pi}^{pi} |1 + e^{it}| dt = 8/pi lies in [2, 2 sqrt 2].
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)
    assert rep.method["upper"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert rep.rhs <= 8 / math.pi <= rep.method["upper"]
    assert rep.passed


def test_ingham_arithmetic_progression():
    rng = np.random.default_rng(53)
    gamma = 0.8
    n = 5
    inst = validate_instance([float(a) for a in rng.uniform(0, 1, n)],
                             [gamma * k for k in range(n)])
    rep = check_ingham_mordell(inst, gamma)
    assert rep.passed


def test_ingham_bad_gap():
    inst = validate_instance([1.0, 1.0], [0.0, 0.5])
    with pytest.raises(BadGapError):
        check_ingham_mordell(inst, 1.0)


def test_bohr_single_term_equality():
    rep = check_bohr_bound(validate_instance([1.0], [2.0]), 1)
    assert rep.passed
    assert rep.rhs == pytest.approx(1.0, rel=1e-6)


def test_bohr_two_tone():
    rep = check_bohr_bound(validate_instance([1.0, 1.0], [1.0, 2.0]), 2)
    assert rep.passed
    assert rep.method["cos_product"] == pytest.approx(math.cos(math.pi / 4))


def test_bohr_lacunary_random():
    rng = np.random.default_rng(61)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        phis = np.cumprod(rng.uniform(2.0, 3.0, n))
        inst = validate_instance([float(a) for a in rng.uniform(0.1, 1, n)],
                                 [float(p) for p in phis])
        idx = int(rng.integers(1, n + 1))
        assert check_bohr_bound(inst, idx).passed


def test_bohr_rejects_nonpositive_frequencies():
    with pytest.raises(BadGapError):
        check_bohr_bound(validate_instance([1.0, 1.0], [0.0, 1.0]), 1)


_PAIR = validate_instance([1.0, 1.0], [0.0, 1.5])
_HUGE_PHASES = validate_instance([1.0, 1.0], [-1e308, 1e308])
_BIG_PHI = validate_instance([1.0, 1.0], [0.0, 1e300])
# 31 cosine factors of about 5e-12 each: their product underflows to 0.
_FLAT_PHIS = [1 - 3.2e-12 - (31 - j) * 1e-15 for j in range(31)] + [1.0]


@pytest.mark.parametrize("call, error", [
    (lambda: KernelParams(math.nan), NonFiniteError),
    (lambda: KernelParams(0.0), NonFiniteError),
    (lambda: KernelParams(2.0 ** -1023), NonFiniteError),
    (lambda: dominated_coefficients([math.nan, 0], _PAIR), NonFiniteError),
    (lambda: eval_sum(_PAIR, math.inf), NonFiniteError),
    (lambda: check_sup_chain(_PAIR, []), BadGapError),
    (lambda: check_sup_chain(_PAIR, [10.0, 1e308]), NonFiniteError),
    (lambda: check_sup_chain(_PAIR, [math.inf]), NonFiniteError),
    (lambda: check_sup_chain(_PAIR, [math.nan]), NonFiniteError),
    (lambda: check_sup_chain(_PAIR, [0.0]), NonFiniteError),
    (lambda: check_sup_chain(_PAIR, [-5.0, 10.0]), NonFiniteError),
    (lambda: check_ingham_mordell(validate_instance([1.0], [0.0]), 1.0), BadGapError),
    (lambda: check_ingham_mordell(_PAIR, 0.0), BadGapError),
    (lambda: check_ingham_mordell(_PAIR, math.nan), BadGapError),
    (lambda: check_ingham_mordell(_PAIR, 1e-320), BadGapError),
    (lambda: check_bohr_bound(validate_instance([1.0, 1.0], [1.0, 2.0]), 3),
     BadGapError),
    (lambda: check_bohr_bound(validate_instance([1.0, 1.0], [1.0, 1.0 + 1e-13]), 2),
     DegenerateCosineError),
    (lambda: check_bohr_bound(validate_instance([1.0, 1.0], [1e-320, 1.0]), 1),
     OverflowRangeError),
    (lambda: check_sup_chain(validate_instance([1.0, 0.5], [0.0, 1e10]), [1e300]),
     OverflowRangeError),
    (lambda: check_sup_chain(_HUGE_PHASES, [1e-3]), OverflowRangeError),
    (lambda: check_ingham_mordell(validate_instance([1.0, 1.0], [0.0, 1e300]), 1e-10),
     OverflowRangeError),
    (lambda: check_ingham_mordell(_HUGE_PHASES, 1e300), OverflowRangeError),
    (lambda: windowed_average(_BIG_PHI, 1, Window(0.0, 1e10)), OverflowRangeError),
    (lambda: fejer_weighted_integral(_BIG_PHI, 1, KernelParams(1e10)),
     OverflowRangeError),
    (lambda: integral_exact(expand(_BIG_PHI, 1), Window(0.0, 1e10)),
     OverflowRangeError),
    (lambda: fejer_weighted_exact(expand(_BIG_PHI, 1), KernelParams(1e10)),
     OverflowRangeError),
    (lambda: check_theorem1(_BIG_PHI, 1, 1e10), OverflowRangeError),
    (lambda: check_bohr_bound(validate_instance([1.0] * 32, _FLAT_PHIS), 32),
     DegenerateCosineError),
    (lambda: check_bohr_bound(validate_instance([0.0] * 32, _FLAT_PHIS), 32),
     DegenerateCosineError),
    (lambda: list(verify.campaign("nope", 1, 1)), ExpMomentError),
    (lambda: check_theorem1(_PAIR, 1, 1.0, engine="nope"), ValueError),
], ids=["kernel-nan", "kernel-zero-T", "kernel-subnormal-T", "coefficient-nan",
        "eval-inf-t",
        "sup-chain-no-T", "sup-chain-2T-overflow", "sup-chain-inf-T",
        "sup-chain-nan-T", "sup-chain-zero-T", "sup-chain-negative-T",
        "ingham-N1", "ingham-gap0", "ingham-gap-nan", "ingham-gap-subnormal",
        "bohr-index-range", "bohr-degenerate-cosine", "bohr-infinite-t-max",
        "sup-chain-phase-overflow", "sup-chain-difference-overflow",
        "ingham-phase-overflow", "ingham-difference-overflow",
        "window-phase-overflow", "fejer-phase-overflow",
        "spectral-window-phase-overflow", "spectral-fejer-phase-overflow",
        "theorem1-phase-overflow", "bohr-product-underflow",
        "bohr-product-underflow-zero-amplitudes",
        "campaign-unknown", "engine-unknown"])
def test_refusals_raise_their_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("check, draws", [
    ("theorem1", {"N": 7, "q": 1, "T": 39.707584532152865}),
    ("lemma", {"N": 5, "q": 1, "T": 33.3068236037573, "T0": -46.27378899424866}),
    ("eq45", {"N": 5, "q": 1, "T": 35.6583028490246, "H": 93.43010601604672}),
    ("sup-chain", {"N": 4, "half_widths": [10.0, 100.0, 1000.0]}),
    ("ingham", {"N": 5, "T": 4.00780604089798}),
    ("bohr", {"N": 4, "index": 1}),
])
def test_campaign_first_draws_are_pinned(check, draws):
    """`verify all --random 25 --seed 42` is a benchmark workload: a change
    to any recipe's draw order must show up here, not only in its timings."""
    (_, rep), = verify.campaign(check, 1, 42)
    got = {"N": rep.instance_summary["N"], **rep.method}
    assert {key: got[key] for key in draws} == draws
    assert rep.method["seed"] == 42


def test_report_json_line_schema():
    rep = check_theorem1(validate_instance([1.0], [0.0]), 1, 1.0)
    rec = json.loads(rep.to_json_line())
    for key in ("check", "lhs", "rhs", "margin", "passed", "engine", "seed"):
        assert key in rec
    assert rec["check"] == "theorem1"
    assert rec["passed"] is True


def test_auto_engine_choice():
    # auto runs the cheaper of 4 C(N + q - 1, q)^2 and 16 N ceil(T B / 13):
    # at zeta nu = 2, N = 40 they are 2.7e6 against 3.6e5 at T = 1e3 and
    # 3.6e6 at T = 1e4.
    for n in range(40, 81, 10):
        method = zeta.corollary_lower_bound(n, 2, 1e3).method
        assert (method["engine"], method["auto"]["reason"]) == ("quadrature", "cheaper")
    method = zeta.corollary_lower_bound(40, 2, 1e4).method
    assert (method["engine"], method["auto"]["reason"]) == ("spectral", "cheaper")
    assert method["auto"]["spectral_price"] == 4 * 820 ** 2
    # Integer frequencies run exact, whatever the prices.
    for _, rep in verify.campaign("eq45", 25, 42):
        assert rep.method["engine"] == "spectral" and rep.method["rational_mode"]
        assert rep.method["lhs_auto"]["reason"] == "integer_mode"
        assert rep.method["rhs_auto"]["reason"] == "integer_mode"
    assert check_theorem1(validate_instance([1.0], [0.0]), 2, 10.0).method[
        "auto"]["reason"] == "integer_mode"
    # A constant |S| takes quadrature's shortcut.
    for inst in (validate_instance([1.0], [0.5]), validate_instance([1.0, 2.0], [0.5, 0.5])):
        method = check_theorem1(inst, 2, 10.0).method
        assert (method["engine"], method["auto"]["reason"]) == (
            "quadrature", "constant_modulus")


# The engine of each side of the 150 reports of `verify all --random 25
# --seed 42`, one word per report: s spectral, q quadrature, c closed form.
_CAMPAIGN_ENGINES = {
    "theorem1": "s q s s q q s q s s s s s s q s s q s s s q s s s",
    "lemma": "ss ss ss qq ss ss ss ss ss ss qq ss ss ss ss ss ss ss qq ss ss ss ss ss"
             " qq",
    "eq45": " ".join(["ss"] * 25),
    "sup-chain": " ".join(["c"] * 25),
    "ingham": " ".join(["c"] * 25),
    "bohr": " ".join(["c"] * 25),
}


def test_campaign_engine_split_is_pinned():
    """auto's split on the benchmark campaign moves only with its prices,
    not with the speed of an engine."""
    assert set(_CAMPAIGN_ENGINES) == set(verify.CAMPAIGN_CHECKS)
    codes = {"spectral": "s", "quadrature": "q", "closed_form": "c"}
    for check, pinned in _CAMPAIGN_ENGINES.items():
        words = ["".join(codes[rep.method[side]] for side in ("engine", "rhs_engine")
                         if side in rep.method)
                 for _, rep in verify.campaign(check, 25, 42)]
        assert " ".join(words) == pinned, check


def test_auto_avoids_the_spectral_budget():
    # 150 random integer frequencies: S^2 has 11,311 modes, past the term
    # budget's 1e4, while the window needs about 300 panels.
    rng = np.random.default_rng(5)
    inst = validate_instance([1.0] * 150, rng.integers(-10 ** 6, 10 ** 6, 150))
    with pytest.raises(TermBudgetExceededError):
        check_theorem1(inst, 2, 1e-3, engine="spectral")
    rep = check_theorem1(inst, 2, 1e-3)
    assert (rep.method["engine"], rep.method["auto"]["reason"]) == (
        "quadrature", "spectral_over_budget")
    assert rep.passed


def test_auto_point_estimate_tracks_the_gauss_rule():
    """auto's quadrature price stays within 2x of the points _gauss_rule
    takes wherever T B >= 100, so its panel constant cannot go stale."""
    cases = [(src, rep.method["q"], rep.method["T"])
             for src, rep in verify.campaign("theorem1", 60, 42)]
    cases += [(zeta.zeta_instance(n), 2, T) for n in (40, 80) for T in (1e3, 1e4)]
    checked = 0
    for source, q, T in cases:
        if T * bandlimit(source, q) < 100:
            continue
        window = Window(0.0, T)
        _, prices = verify._auto_engine(source, q, window)
        estimate = prices["quadrature_price"] / source.size
        points = windowed_average(source, q, window).metadata["points"]
        assert 0.5 <= estimate / points <= 2.0, (source, q, T)
        checked += 1
    assert checked >= 40


def test_auto_matches_spectral_on_the_zeta_sweep():
    for n in (40, 50, 60):
        auto = zeta.corollary_lower_bound(n, 2, 1e3)
        exact = zeta.corollary_lower_bound(n, 2, 1e3, engine="spectral")
        assert auto.method["engine"] == "quadrature"
        assert auto.rhs == pytest.approx(exact.rhs, rel=1e-9)


@pytest.mark.parametrize("kernel", [Window(0.0, 1e10), KernelParams(1e10)],
                         ids=["window", "fejer"])
@pytest.mark.parametrize("amplitudes, phis, engine, reason", [
    # T B / 13 is inf: past max_panels, and spectral's form refuses the phases.
    ([1.0, 1.0], [0.0, 1e300], "spectral", "quadrature_over_max_panels"),
    # sum a_n = 2e308 is past the double range.
    ([1e308, 1e308], [0.0, 1.5], "spectral", "quadrature_over_max_panels"),
    # |S| is constant, and its value 2e308 is past the double range too.
    ([1e308, 1e308], [0.5, 0.5], "quadrature", "constant_modulus"),
], ids=["phases", "amplitudes", "constant"])
def test_auto_prices_any_finite_input(amplitudes, phis, engine, reason, kernel):
    # auto chooses without raising, and the engine it chose refuses with a
    # typed error.
    source = validate_instance(amplitudes, phis)
    chosen, meta = verify._auto_engine(source, 2, kernel)
    assert (chosen, meta["reason"]) == (engine, reason)
    with pytest.raises(OverflowRangeError):
        verify._raw_window_integral(source, 2, kernel, "auto")


# c = x (1, 1, -1) at phi = (0, 1, 2): S^2 = x^2 (1, 2, -1, -2, 1) at modes
# 0..4, so spectral's form has (sum |A_k|)^2 K(0) = 49 x^4 10 = 7.8e299, while
# quadrature's scale (sum |c_n|)^4 10 = 1.3e300 is past 1e300.
_X = 2e74
_CANCELLING = dominated_coefficients([_X, _X, -_X],
                                     validate_instance([_X] * 3, [0.0, 1.0, 2.0]))


def test_each_engine_refuses_by_its_own_range():
    want = integral_exact(expand(_CANCELLING, 2), Window(0.0, 5.0))
    assert want == 1.8790591773024004e+299
    for engine in ("spectral", "auto"):
        value, _ = verify._raw_window_integral(_CANCELLING, 2, Window(0.0, 5.0), engine)
        assert value == want
    for engine in ("quadrature", "both"):
        with pytest.raises(OverflowRangeError):
            verify._raw_window_integral(_CANCELLING, 2, Window(0.0, 5.0), engine)


@pytest.mark.parametrize("engine, calls", [("quadrature", 1), ("spectral", 2),
                                           ("both", 3)])
def test_dispatcher_leaves_the_range_checks_to_the_engines(engine, calls, monkeypatch):
    # One amplitude check per engine stage: the Gauss rule, or spectral's
    # expansion and its form.
    seen = []
    for module in (quadrature, spectral, verify):
        check = module._check_overflow
        monkeypatch.setattr(module, "_check_overflow",
                            lambda *args, check=check: seen.append(1) or check(*args))
    verify._raw_window_integral(_PAIR, 2, Window(0.0, 10.0), engine)
    assert len(seen) == calls


@pytest.mark.parametrize("q", [1, 3])
def test_theorem1_at_huge_window_runs_spectral(q):
    # T = 1e8 needs ~3e7 panels, past max_panels, so auto runs spectral.
    inst = validate_instance([0.5, 1.0, 0.3], [0.0, 1.3, -2.7])
    rep = check_theorem1(inst, q, 1e8)
    assert (rep.method["engine"], rep.method["auto"]["reason"]) == (
        "spectral", "quadrature_over_max_panels")
    assert rep.passed


def test_theorem1_refuses_an_lhs_outside_the_normal_range():
    # (1/3) 55^200 overflows a double, and (1/3) (5e-6)^200 = 2.07e-1061
    # underflows to 0, where the check held on 0 <= 0 alone.
    for amps, phis in (([1, 2, 3, 4, 5], [0, 0.7, 1.9, 3.1, 4.6]),
                       ([1e-3, 2e-3], [0, 0.7])):
        with pytest.raises(OverflowRangeError, match=r"outside \[2\^-1022, inf\)"):
            check_theorem1(validate_instance(amps, phis), 200, 10.0)


@pytest.mark.parametrize("engine", ["auto", "spectral", "quadrature", "both"])
def test_theorem1_just_inside_the_normal_range_passes(engine):
    # (1/3) (5e-6)^57 = 2.3e-303 is normal, (1/3) (5e-6)^58 = 1.2e-308 is not.
    inst = validate_instance([1e-3, 2e-3], [0.0, 0.7])
    rep = check_theorem1(inst, 57, 10.0, engine)
    assert rep.passed and rep.lhs == pytest.approx(2.3129646346357e-303, rel=1e-12)
    with pytest.raises(OverflowRangeError, match=r"\(sum a_n\^2\)\^58"):
        check_theorem1(inst, 58, 10.0, engine)


def test_theorem1_upper_edge_is_left_to_the_engines():
    # (1/3) 55^177 is finite and 55^178 overflows.  As (sum a)^2 >= sum a^2,
    # every engine's own (sum a)^{2q} <= 1e300 refusal comes first below it.
    inst = validate_instance([1, 2, 3, 4, 5], [0, 0.7, 1.9, 3.1, 4.6])
    with pytest.raises(OverflowRangeError, match="exceeds 1e300"):
        check_theorem1(inst, 177, 10.0)
    with pytest.raises(OverflowRangeError, match=r"\(sum a_n\^2\)\^178 = inf"):
        check_theorem1(inst, 178, 10.0)


def _rebuilt(source, amp=lambda a: a, phi=lambda p: p, order=None):
    """source with a_n and c_n mapped by amp, phi_n by phi, its terms in order."""
    inst = source.dominating if hasattr(source, "dominating") else source
    order = range(inst.size) if order is None else order
    rebuilt = validate_instance([amp(inst.amplitudes[i]) for i in order],
                                [phi(inst.frequencies[i]) for i in order])
    return rebuilt if source is inst else dominated_coefficients(
        [amp(source.values[i]) for i in order], rebuilt)


def _time_scaled(source, k: int):
    """source with every frequency times 2^k."""
    return _rebuilt(source, phi=lambda p: math.ldexp(p, k))


@pytest.mark.parametrize("engine", ["spectral", "quadrature"])
def test_window_integral_is_bit_exact_under_power_of_two_time_scaling(engine):
    # phi -> 2^k phi and T -> 2^-k T scale the raw integral by exactly 2^-k:
    # every node, mode and kernel argument scales by a power of two.
    for source, rep in verify.campaign("theorem1", 150, 11):
        q, T = rep.method["q"], rep.method["T"]
        want, _ = verify._raw_window_integral(source, q, Window(0.0, T), engine)
        for k in (-3, -1, 1, 3):
            got, _ = verify._raw_window_integral(
                _time_scaled(source, k), q, Window(0.0, math.ldexp(T, -k)), engine)
            assert got == math.ldexp(want, -k), (source, q, T, k)


@pytest.mark.parametrize("engine", ["spectral", "quadrature"])
def test_fejer_integral_is_bit_exact_under_power_of_two_time_scaling(engine):
    # The same with H -> 2^-k H, for both sides of eq45.
    for coeffs, rep in verify.campaign("eq45", 60, 13):
        q, T, H = rep.method["q"], rep.method["T"], rep.method["H"]
        for source, shift in ((coeffs, H), (coeffs.dominating, 0.0)):
            want, _ = verify._raw_window_integral(source, q, KernelParams(T, shift),
                                                  engine)
            for k in (-2, 2):
                kernel = KernelParams(math.ldexp(T, -k), math.ldexp(shift, -k))
                got, _ = verify._raw_window_integral(_time_scaled(source, k), q,
                                                     kernel, engine)
                assert got == math.ldexp(want, -k), (source, q, T, shift, k)


@st.composite
def _window_cases(draw, checks=("theorem1", "lemma", "eq45")):
    """(source, q, kernel) as a theorem-1, lemma or eq45 side integrates it.

    Amplitudes and coefficient radii stay in [1e-3, 1] or at 0, so that
    scaling by 2^+-20 keeps every value and result normal; eq45's
    frequencies are integers, as in its campaign.
    """
    check, q = draw(st.sampled_from(checks)), draw(st.integers(1, 3))
    n, T = draw(st.integers(1, 5)), draw(st.floats(0.1, 50.0))
    amps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    phis = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    if check == "eq45":
        phis = [float(round(p)) for p in phis]
    inst = validate_instance(amps, phis)
    if check == "theorem1":
        return inst, q, Window(0.0, T)
    radii = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=n, max_size=n))
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    coeffs = dominated_coefficients(
        [a * r * cmath.exp(1j * th) for a, r, th in zip(amps, radii, angles)], inst)
    if check == "lemma":
        return coeffs, q, Window(draw(st.floats(-1e3, 1e3)), T)
    return coeffs, q, KernelParams(T, draw(st.floats(-100.0, 100.0)))


def _relative_change(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


# Falsifying draws, kept: on a constant |S|, pow(|sum c|, 2q) was an ulp off
# under 2^k scaling, and a subnormal bandlimit B overflowed the Gauss rule's 1e3 / B.
_ONE_TERM = (dominated_coefficients([0.0004420944285820277], validate_instance(
    [1e-3], [0.0])), 2, Window(0.0, 1.0))
_SUBNORMAL_B = (validate_instance([1.0, 1.0], [0.0, 2.225073858507203e-309]), 1,
                Window(0.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_window_cases(), st.sampled_from([-20, -5, 5, 20]))
@example(_ONE_TERM, -5)
@example(_SUBNORMAL_B, 20)
def test_window_integral_is_exact_under_amplitude_scaling(case, k):
    # c -> 2^k c scales |S|^{2q} by exactly 2^{2qk}: every product and sum of
    # both engines scales by a power of two, and the Gauss rule sizes its
    # panels relative to (sum |c|)^{2q}.  So verdicts do not depend on scale.
    source, q, kernel = case
    scaled = _rebuilt(source, amp=lambda a: a * 2.0 ** k)
    for engine in ("spectral", "quadrature"):
        want, _ = verify._raw_window_integral(source, q, kernel, engine)
        got, _ = verify._raw_window_integral(scaled, q, kernel, engine)
        assert got == math.ldexp(want, 2 * q * k), engine


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_window_cases(), st.randoms(use_true_random=False))
@example(_SUBNORMAL_B, random.Random(0))
def test_window_integral_does_not_depend_on_the_order_of_the_terms(case, rnd):
    source, q, kernel = case
    order = list(range(source.size))
    rnd.shuffle(order)
    permuted = _rebuilt(source, order=order)
    for engine in ("spectral", "quadrature"):
        want, _ = verify._raw_window_integral(source, q, kernel, engine)
        got, _ = verify._raw_window_integral(permuted, q, kernel, engine)
        assert _relative_change(got, want) <= 1e-13, engine


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_window_cases(checks=("theorem1",)), st.floats(-20.0, 20.0))
@example(_SUBNORMAL_B, 0.0)
def test_centred_window_integral_does_not_depend_on_a_frequency_shift(case, s):
    # phi -> phi + s multiplies S(t) by e^{ist}, so |S| is unchanged.
    source, q, kernel = case
    shifted = _rebuilt(source, phi=lambda p: p + s)
    for engine in ("spectral", "quadrature"):
        want, _ = verify._raw_window_integral(source, q, kernel, engine)
        got, _ = verify._raw_window_integral(shifted, q, kernel, engine)
        assert _relative_change(got, want) <= 1e-12, engine


def test_zero_engine_value_fails_theorem1_at_every_amplitude_scale(monkeypatch):
    # lhs and rhs both scale by s^{2q}, so an engine that returns 0 fails
    # at every s, and not only where lhs is large.
    monkeypatch.setattr(verify, "_raw_window_integral",
                        lambda *args: (0.0, {"engine": "spectral"}))
    for s in (1.0, 1e-3, 1e-7, 2.0 ** -30):
        rep = check_theorem1(validate_instance([s, s], [0.0, 1.5]), 1, 10.0)
        assert rep.rhs == 0.0 and not rep.passed, s
