"""Named inequality checks, each returning a self-contained report.

Covered: the windowed-moment lower bound with explicit constant 1/3, the
shifted-window majorization (factor 3), the kernel-weighted domination
inequality, the sup/limsup sandwich, the Ingham-Mordell coefficient bound
(K = 1 form), and the Bohr-type product bound.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    DEFAULT_TERM_BUDGET,
    ENGINE_AGREEMENT_RTOL,
    BadGapError,
    ComplexCoefficients,
    DegenerateCosineError,
    ExpMomentError,
    Instance,
    KernelParams,
    NegativeAmplitudeError,
    NonFiniteError,
    OverflowRangeError,
    Window,
    validate_instance,
    validate_order,
)
from .evaluate import _check_overflow, _check_phase_range, _power
from .quadrature import (
    QuadratureConfig,
    _constant_modulus,
    bandlimit,
    fejer_weighted_integral,
    windowed_average,
)
from . import spectral

# Slack of the pass verdict lhs <= rhs*(1+REL): the Gauss rule's tolerance.
PASS_REL_SLACK = QuadratureConfig.rel_tol

# "auto" prices a spectral mode pair at _PAIR_COST Gauss term-points, fitted
# on the benchmark (CHANGES.md).  _gauss_rule's panels have half-width about
# _PANEL_HB / B at rel_tol 1e-9 (the envelope M(0) e^{By} alone gives 9-12).
_PAIR_COST, _PANEL_HB = 4, 13

#: The proof chain gives the windowed lower bound with constant 1/3:
#: the shifted-window lemma contributes the covering factor 3 and the
#: randomized-sign lower bound holds with constant 1 by Jensen.
THEOREM_CONSTANT = 1.0 / 3.0


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    instance_summary: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool
    method: dict = field(default_factory=dict, compare=False)

    def to_json_line(self) -> str:
        rec = {"check": self.check_name, "lhs": self.lhs, "rhs": self.rhs,
               "margin": self.margin, "passed": self.passed,
               "engine": self.method.get("engine"),
               "seed": self.method.get("seed")}
        rec.update({k: v for k, v in self.method.items()
                    if k not in ("engine", "seed")})
        rec["instance"] = self.instance_summary
        return json.dumps(rec, allow_nan=False)


def inequality_holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + PASS_REL_SLACK)


def _summary(source) -> dict:
    complex_ = isinstance(source, ComplexCoefficients)
    # sum a_n^2 overflows above a_n ~ 1.3e154; checks of power 1 run up to 1e300.
    energy = (source.dominating if complex_ else source).energy()
    return {"N": source.size, "kind": "complex" if complex_ else "instance",
            "energy": energy if math.isfinite(energy) else None}


def _auto_engine(source, q: int, kernel: Window | KernelParams) -> tuple[str, dict]:
    """auto's engine and its reason: the cheaper of C(N + q - 1, q)^2 mode
    pairs and gauss_order * panels * N term-points, unless an exemption
    keeps it on the exact engine or off one that would refuse."""
    n, band = source.size, bandlimit(source, q)
    modes = math.comb(n + q - 1, q)
    pieces, half = ((2, kernel.T / 2) if isinstance(kernel, KernelParams)
                    else (1, kernel.half_width))
    # Every count past max_panels takes the same branch, so a huge or infinite
    # T B / 13 is priced at max_panels + 1 panels a piece.
    ratio = min(half * band / _PANEL_HB, QuadratureConfig.max_panels + 1)
    panels = pieces * max(1, math.ceil(ratio))
    spec, quad = _PAIR_COST * modes ** 2, QuadratureConfig.gauss_order * panels * n
    if (spectral.integer_mode(source, q)
            and min(modes, int(band) + 1) ** 2 <= DEFAULT_TERM_BUDGET):
        engine, reason = "spectral", "integer_mode"
    elif _constant_modulus(source):
        # Exact in _gauss_rule at any T.  Otherwise an all-zero source with
        # T * B past 13 * max_panels would go to spectral, which can fail its budget.
        engine, reason = "quadrature", "constant_modulus"
    elif panels > QuadratureConfig.max_panels:
        engine, reason = "spectral", "quadrature_over_max_panels"
    elif modes ** 2 > DEFAULT_TERM_BUDGET:
        engine, reason = "quadrature", "spectral_over_budget"
    else:
        engine, reason = "spectral" if spec <= quad else "quadrature", "cheaper"
    return engine, {"reason": reason, "spectral_price": spec, "quadrature_price": quad}


def _raw_window_integral(source, q: int, kernel: Window | KernelParams,
                         engine: str) -> tuple[float, dict]:
    """Unnormalized integral of |S|^{2q} against a window or a Fejer kernel.

    The one place that resolves engine names; meta["auto"] says why auto chose.
    auto prices any finite input; the engine that runs refuses amplitudes and
    phases outside its own range.
    """
    q = validate_order(q)
    fejer = isinstance(kernel, KernelParams)
    meta: dict = {}
    if engine == "auto":
        engine, meta["auto"] = _auto_engine(source, q, kernel)
    if engine not in ("spectral", "quadrature", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    meta["engine"] = engine
    if engine != "quadrature":
        expansion = spectral.expand(source, q)
        value = (spectral.fejer_weighted_exact(expansion, kernel) if fejer
                 else spectral.integral_exact(expansion, kernel))
        meta["rational_mode"] = expansion.metadata["exact_omegas"]
    if engine == "spectral":
        return value, meta
    if fejer:
        res, scale = fejer_weighted_integral(source, q, kernel), 1.0
    else:
        res = windowed_average(source, q, kernel)
        scale = 2 * kernel.half_width
    v_q = res.value * scale
    meta["error_estimate"] = res.error_estimate * scale
    meta["error_kind"] = res.metadata["error_kind"]
    if engine == "quadrature":
        return v_q, meta
    dis = abs(value - v_q) / max(abs(value), abs(v_q), 1e-300)
    meta.update({"spectral": value, "quadrature": v_q, "disagreement": dis,
                 "engines_agree": dis <= ENGINE_AGREEMENT_RTOL})
    return value, meta


def _report(check: str, summary: dict, lhs: float, rhs: float, meta: dict,
            *sides: dict, holds: bool = True) -> VerificationReport:
    """The one verdict: lhs <= rhs, every side's engines agree, and holds.
    A nonzero side below 2^-1022 has lost its relative precision: it is refused."""
    if any(0 < abs(side) < sys.float_info.min for side in (lhs, rhs)):
        raise OverflowRangeError(f"{check}: lhs {lhs!r} or rhs {rhs!r} is below "
                                 "2^-1022, where a double loses precision; rescale")
    passed = (inequality_holds(lhs, rhs) and holds
              and all(m.get("engines_agree", True) for m in sides))
    return VerificationReport(check, summary, lhs, rhs, rhs - lhs, passed, meta)


def _window_bound(check: str, summary: dict, source, q: int, half_width: float,
                  lhs: float, engine: str, /, **fields) -> VerificationReport:
    """lhs <= (1/2T) integral_{|t|<=T} |S|^{2q} dt, by the dispatcher.  Its values
    and bound are reported over 2T too, in the units of rhs."""
    raw, meta = _raw_window_integral(source, q, Window(0.0, half_width), engine)
    meta.update({key: meta[key] / (2 * half_width) for key in
                 ("error_estimate", "spectral", "quadrature") if key in meta}, **fields)
    return _report(check, summary, lhs, raw / (2 * half_width), meta, meta)


def _dominated(check: str, coeffs: ComplexCoefficients, q: int,
               shifted: Window | KernelParams, centred: Window | KernelParams,
               factor: float, engine: str, **fields) -> VerificationReport:
    """c-sum against ``shifted`` <= factor * a-sum against ``centred``; each
    side's bound is in its own units, so the rhs bound is times factor."""
    q = validate_order(q)
    lhs, meta_l = _raw_window_integral(coeffs, q, shifted, engine)
    rhs, meta_r = _raw_window_integral(coeffs.dominating, q, centred, engine)
    meta = {"engine": meta_l["engine"], "q": q, **fields,
            "rhs_engine": meta_r["engine"],
            "rational_mode": meta_l.get("rational_mode", False)}
    for side, m, scale in (("lhs", meta_l, 1.0), ("rhs", meta_r, factor)):
        for k in ("disagreement", "auto", "error_estimate", "error_kind"):
            if k in m:
                meta[f"{side}_{k}"] = m[k] * scale if k == "error_estimate" else m[k]
    return _report(check, _summary(coeffs), lhs, factor * rhs, meta, meta_l, meta_r)


def check_theorem1(instance: Instance, q: int, half_width: float,
                   engine: str = "auto") -> VerificationReport:
    """(1/3)(sum a_n^2)^q <= (1/2T) integral_{|t|<=T} |S|^{2q} dt.  A positive lhs
    outside [2^-1022, inf) overflowed or would pass by underflow: it is refused."""
    q, energy = validate_order(q), instance.energy()
    lhs = THEOREM_CONSTANT * _power(energy, q)  # inf past the double range
    if energy > 0 and not sys.float_info.min <= lhs < math.inf:
        raise OverflowRangeError(f"(1/3)(sum a_n^2)^{q} = {lhs!r} is outside "
                                 "[2^-1022, inf); rescale the amplitudes")
    return _window_bound("theorem1", _summary(instance), instance, q, half_width,
                         lhs, engine, q=q, T=half_width, constant=THEOREM_CONSTANT)


def check_lemma(coeffs: ComplexCoefficients, q: int, half_width: float,
                center: float, engine: str = "auto") -> VerificationReport:
    """Shifted-window majorization: the c-sum integral over |t - T0| <= T is
    at most 3x the a-sum integral over |t| <= T."""
    return _dominated("lemma", coeffs, q, Window(center, half_width),
                      Window(0.0, half_width), 3.0, engine,
                      T=half_width, T0=center)


def check_eq45(coeffs: ComplexCoefficients, q: int, half_width: float,
               shift: float, engine: str = "auto") -> VerificationReport:
    """Kernel-weighted domination: shifted c-sum value <= centered a-sum value."""
    return _dominated("eq45", coeffs, q, KernelParams(half_width, shift),
                      KernelParams(half_width, 0.0), 1.0, engine,
                      T=half_width, H=shift)


def _sup_abs(instance: Instance, mass: float = 1.0) -> float:
    """sup |S| over any window that contains 0: S(0) = sum a_n, exactly.

    For a_n >= 0, |S(t)| <= sum |a_n| = sum a_n = S(0).  An Instance built
    directly is not validated, so a negative a_n is refused here, and so is
    a sum whose product with mass leaves the range of _check_overflow.
    """
    if any(a < 0 for a in instance.amplitudes):
        raise NegativeAmplitudeError(
            f"sup |S| = S(0) needs a_n >= 0, got {instance.amplitudes!r}")
    _check_overflow(instance, 1, mass)
    return instance.amplitude_sum()


def _l1_sides(instance: Instance, T: float) -> tuple[float, float]:
    """Closed-form (lower, upper) with lower <= (1/2T) integral_{-T}^{T} |S| <= upper.

    v = K a with K_nm = sin(T d)/(T d), d = phi_m - phi_n, holds the
    coefficient averages v_n = (1/2T) integral S(t) e^{-it phi_n} dt, and
    |v_n| <= the L1 average, so lower = max |v_n|.  By Cauchy-Schwarz the L1
    average is at most the root of the q = 1 window moment
    (1/2T) integral |S|^2 = a . K a, so upper = sqrt(a . v).  Both are taken
    on a / max a, so that sum a_n^2 may overflow.  Phases past the double
    range are refused by _check_phase_range at q = 1, reach T.
    """
    _check_phase_range(instance.frequencies, 1, T)
    phis = np.asarray(instance.frequencies)
    scale = max(instance.amplitudes) or 1.0
    a = np.asarray(instance.amplitudes) / scale
    v = np.sinc(np.subtract.outer(phis, phis) * (T / math.pi)) @ a
    return scale * float(np.abs(v).max()), scale * math.sqrt(float(a @ v))


def check_sup_chain(instance: Instance, half_widths) -> VerificationReport:
    """max a_n <= limsup (1/2T) integral |S| dt <= sup |S|.

    The L1 average is held between the two sides of _l1_sides at every T
    supplied, and the chain lower <= upper <= sup |S| is checked there.  For
    a_n >= 0 the sup of |S| over [-T, T] is S(0) = sum a_n, exactly.  lower
    tends to max a_n, so max a_n - lower at the largest T, an upper bound on
    the finite-T deviation, is reported.
    """
    half_widths = sorted(float(t) for t in half_widths)
    if not half_widths:
        raise BadGapError("need at least one window half-width")
    for T in half_widths:
        if not (math.isfinite(2 * T) and T > 0):
            raise NonFiniteError(
                f"sup-chain half-width must be > 0 with 2T finite, got {T!r}")
    if len(set(instance.frequencies)) != instance.size:
        raise BadGapError("sup-chain check needs distinct frequencies")
    sup_a = max(instance.amplitudes)
    lower, upper = map(list, zip(*(_l1_sides(instance, T) for T in half_widths)))
    sup_s = _sup_abs(instance)
    chain = all(inequality_holds(lo, up) and inequality_holds(up, sup_s)
                for lo, up in zip(lower, upper))
    meta = {"engine": "closed_form", "half_widths": half_widths,
            "lower_bounds": lower, "upper_bounds": upper, "sup": sup_s,
            "finite_T_deviation": sup_a - lower[-1]}
    return _report("sup_chain", _summary(instance), sup_a, sup_s, meta,
                   holds=chain)


def check_ingham_mordell(instance: Instance, gap: float) -> VerificationReport:
    """max |a_n| <= (1/T) integral_{-T}^{T} |S| dt at T = pi/gap (K = 1 form).

    Requires strictly increasing frequencies with consecutive gaps >= gap.
    rhs is twice the lower side of _l1_sides, a lower bound on the
    integral; meta["upper"] is twice the upper side.
    """
    _check_overflow(instance, 1)
    if instance.size < 2:
        raise BadGapError("need N >= 2")
    if not (gap > 0 and math.isfinite(math.pi / gap)):  # also refuses nan
        raise BadGapError(f"gap must be > 0 with pi/gap finite, got {gap!r}")
    phis = instance.frequencies
    # allow roundoff parity: arithmetic progressions built in floating point
    # can fall short of the nominal gap by a few ulps
    slack = gap * (1.0 - 1e-12)
    for lo, hi in zip(phis, phis[1:]):
        if hi - lo < slack:
            raise BadGapError(f"consecutive gap {hi - lo!r} < stated gap {gap!r}")
    T = math.pi / gap
    lower, upper = _l1_sides(instance, T)
    # (1/T) integral = 2 * (1/2T) integral
    meta = {"engine": "closed_form", "gap": gap, "T": T, "upper": 2.0 * upper}
    return _report("ingham_mordell", _summary(instance), max(instance.amplitudes),
                   2.0 * lower, meta)


def check_bohr_bound(instance: Instance, index: int) -> VerificationReport:
    """Product-of-cosines coefficient bound for 0 < phi_1 < ... < phi_N.

    a_n <= sup_{|t| <= t_max} |S(t)| / prod cos(...).  For a_n >= 0 that sup
    is S(0) = sum a_n, exactly.  The source display starts the first product
    at j = 0 where phi_0 is undefined; this implementation reads it as
    j = 1..n-1 and records that reading in the report.
    """
    n = index
    phis = instance.frequencies
    big_n = instance.size
    if not (1 <= n <= big_n):
        raise BadGapError(f"index {n} out of range 1..{big_n}")
    if phis[0] <= 0 or any(hi <= lo for lo, hi in zip(phis, phis[1:])):
        raise BadGapError("needs strictly increasing positive frequencies")
    factors = [math.cos(math.pi * phis[j - 1] / (2 * phis[n - 1]))
               for j in range(1, n)]
    factors += [math.cos(math.pi * phis[n - 1] / (2 * phis[j - 1]))
                for j in range(n + 1, big_n + 1)]
    product, smallest = math.prod(factors, start=1.0), min(factors, default=1.0)
    if smallest <= 1e-12 or product == 0.0:
        raise DegenerateCosineError(f"cosine factor {smallest!r} too small, or the "
                                    f"product {product!r} underflows")
    t_max = (math.pi / 2) * (n / phis[n - 1]
                             + math.fsum(1.0 / phis[j - 1]
                                         for j in range(n + 1, big_n + 1)))
    if not math.isfinite(t_max):
        raise OverflowRangeError(
            f"t_max = {t_max!r} is out of range; rescale the frequencies")
    sup_s = _sup_abs(instance, 1 / product)  # rhs = sup|S| / product
    lhs = instance.amplitudes[n - 1]
    rhs = sup_s / product
    meta = {"engine": "closed_form", "index": n, "cos_product": product,
            "t_max": t_max,
            "product_index_reading": "first product taken over j=1..n-1"}
    return _report("bohr", _summary(instance), lhs, rhs, meta)


# --------------------------------------------------------------------------
# Randomized campaigns (fixed seeds make CI failures reproducible).
# --------------------------------------------------------------------------

#: The checks with a seeded recipe, in the order ``verify all`` runs them.
CAMPAIGN_CHECKS = ("theorem1", "lemma", "eq45", "sup-chain", "ingham", "bohr")


def random_instance(rng, max_n: int = 8, freq_range=(-10.0, 10.0)) -> Instance:
    n = int(rng.integers(1, max_n + 1))
    return validate_instance(rng.uniform(0.0, 1.0, n), rng.uniform(*freq_range, n))


def random_dominated(rng, instance: Instance) -> ComplexCoefficients:
    radii = rng.uniform(0.0, 1.0, size=instance.size)
    phases = rng.uniform(0.0, 2 * math.pi, size=instance.size)
    values = tuple(complex(a * r * math.cos(th), a * r * math.sin(th))
                   for a, r, th in zip(instance.amplitudes, radii, phases))
    return ComplexCoefficients(values, instance)


def campaign(check: str, count: int, seed: int):
    """Yield (source, report) for ``count`` seeded random cases of one check.

    Every case draws q first, then the instance, then the check's
    parameters.  The checks are looked up as module globals at each call,
    so a wrapper installed on ``verify.check_*`` sees every case.
    """
    if check not in CAMPAIGN_CHECKS:
        raise ExpMomentError(f"no randomized campaign for {check!r}")
    rng = Generator(Philox(key=seed))
    for _ in range(count):
        q = int(rng.integers(1, 4))
        if check == "theorem1":
            source = random_instance(rng, max_n=8)
            T = float(rng.uniform(0.01, 100.0))
            report = check_theorem1(source, q, T)
        elif check == "lemma":
            source = random_dominated(rng, random_instance(rng, max_n=6))
            T = float(rng.uniform(0.1, 50.0))
            T0 = float(rng.uniform(-1e3, 1e3))
            report = check_lemma(source, q, T, T0)
        elif check == "eq45":
            n = int(rng.integers(1, 6))
            inst = validate_instance(rng.uniform(0, 1, n), rng.integers(-10, 11, n))
            source = random_dominated(rng, inst)
            T = float(rng.uniform(0.1, 50.0))
            H = float(rng.uniform(-100.0, 100.0))
            report = check_eq45(source, q, T, H)
        elif check == "sup-chain":
            source = random_instance(rng, max_n=4, freq_range=(-2.0, 2.0))
            report = check_sup_chain(source, (10.0, 100.0, 1000.0))
        elif check == "ingham":
            n = int(rng.integers(2, 6))
            gamma = float(rng.uniform(0.5, 2.0))
            gaps = rng.uniform(gamma, 2 * gamma, n - 1)
            phis = np.concatenate(([rng.uniform(-5, 5)], gaps)).cumsum()
            source = validate_instance(rng.uniform(0, 1, n), phis)
            report = check_ingham_mordell(source, gamma)
        else:
            n = int(rng.integers(1, 5))
            phis = np.cumprod(rng.uniform(2.0, 3.0, n)) * rng.uniform(0.5, 2.0)
            source = validate_instance(rng.uniform(0, 1, n), phis)
            report = check_bohr_bound(source, int(rng.integers(1, n + 1)))
        report.method["seed"] = seed
        yield source, report
