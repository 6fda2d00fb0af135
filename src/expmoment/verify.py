"""Named inequality checks, each returning a self-contained report.

Covered: the windowed-moment lower bound with explicit constant 1/3, the
shifted-window majorization (factor 3), the kernel-weighted domination
inequality, the sup/limsup sandwich, the Ingham-Mordell coefficient bound
(K = 1 form), and the Bohr-type product bound.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    ENGINE_AGREEMENT_RTOL,
    BadGapError,
    ComplexCoefficients,
    DegenerateCosineError,
    ExpMomentError,
    Instance,
    Window,
    validate_order,
)
from .evaluate import Grid, _check_overflow, abs_on_array
from .fejer import KernelParams
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _constant_modulus,
    bandlimit,
    fejer_weighted_integral,
    windowed_abs_average,
    windowed_average,
)
from . import spectral

# Numerical slack of the pass verdict: lhs <= rhs*(1+REL) + ABS.
PASS_REL_SLACK = 1e-9
PASS_ABS_SLACK = 1e-12

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
    return lhs <= rhs * (1.0 + PASS_REL_SLACK) + PASS_ABS_SLACK


def _summary(source) -> dict:
    if isinstance(source, ComplexCoefficients):
        return {"N": source.size, "kind": "complex",
                "energy": source.dominating.energy()}
    return {"N": source.size, "kind": "instance", "energy": source.energy()}


def _auto_engine(source, q: int, kernel: Window | KernelParams,
                 config: QuadratureConfig) -> tuple[str, dict]:
    """auto's engine and its reason: the cheaper of C(N + q - 1, q)^2 mode
    pairs and gauss_order * panels * N term-points, unless an exemption
    keeps it on the exact engine or off one that would refuse."""
    n, band = source.size, bandlimit(source, q)
    modes = math.comb(n + q - 1, q)
    pieces, half = ((2, kernel.T / 2) if isinstance(kernel, KernelParams)
                    else (1, kernel.half_width))
    panels = pieces * max(1, math.ceil(half * band / _PANEL_HB))
    spec, quad = _PAIR_COST * modes ** 2, config.gauss_order * panels * n
    budget = spectral.DEFAULT_TERM_BUDGET
    if spectral.integer_mode(source, q) and min(modes, int(band) + 1) ** 2 <= budget:
        engine, reason = "spectral", "integer_mode"
    elif _constant_modulus(source) is not None:
        engine, reason = "quadrature", "constant_modulus"
    elif panels > config.max_panels:
        engine, reason = "spectral", "quadrature_over_max_panels"
    elif modes ** 2 > budget:
        engine, reason = "quadrature", "spectral_over_budget"
    else:
        engine, reason = "spectral" if spec <= quad else "quadrature", "cheaper"
    return engine, {"reason": reason, "spectral_price": spec, "quadrature_price": quad}


def _raw_window_integral(source, q: int, kernel: Window | KernelParams,
                         config: QuadratureConfig,
                         engine: str) -> tuple[float, dict]:
    """Unnormalized integral of |S|^{2q} against a window or a Fejer kernel.

    The one place that resolves engine names; meta["auto"] says why auto chose.
    Amplitudes out of range are refused before any engine is chosen.
    """
    q = validate_order(q)
    fejer = isinstance(kernel, KernelParams)
    _check_overflow(source, 2 * q, kernel.T if fejer else 2 * kernel.half_width)
    meta: dict = {}
    if engine == "auto":
        engine, meta["auto"] = _auto_engine(source, q, kernel, config)
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
        res, scale = fejer_weighted_integral(source, q, kernel, config), 1.0
    else:
        res = windowed_average(source, q, kernel, config)
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


def _two_sided(check: str, source, lhs: float, rhs: float, meta_l: dict,
               meta_r: dict, **fields) -> VerificationReport:
    """Report of a check whose sides each ran the dispatcher.

    It fails when either side's engines disagreed.
    """
    meta = {"engine": meta_l["engine"], **fields}
    for side, m in (("lhs", meta_l), ("rhs", meta_r)):
        for key in ("disagreement", "auto"):
            if key in m:
                meta[f"{side}_{key}"] = m[key]
    agree = meta_l.get("engines_agree", True) and meta_r.get("engines_agree", True)
    return VerificationReport(check, _summary(source), lhs, rhs, rhs - lhs,
                              inequality_holds(lhs, rhs) and agree, meta)


def check_theorem1(instance: Instance, q: int, half_width: float,
                   config: QuadratureConfig = DEFAULT_CONFIG,
                   engine: str = "auto") -> VerificationReport:
    """(1/3)(sum a_n^2)^q <= (1/2T) integral_{|t|<=T} |S|^{2q} dt."""
    q = validate_order(q)
    window = Window(0.0, half_width)
    energy = instance.energy()
    lhs = THEOREM_CONSTANT * energy ** q
    raw, meta = _raw_window_integral(instance, q, window, config, engine)
    rhs = raw / (2 * half_width)
    meta.update({"q": q, "T": half_width, "constant": THEOREM_CONSTANT})
    passed = inequality_holds(lhs, rhs) and meta.get("engines_agree", True)
    if energy == 0.0:
        passed = True  # all-zero instance: trivially satisfied
        meta["trivial"] = True
    return VerificationReport("theorem1", _summary(instance), lhs, rhs,
                              rhs - lhs, passed, meta)


def check_lemma(coeffs: ComplexCoefficients, q: int, half_width: float,
                center: float, config: QuadratureConfig = DEFAULT_CONFIG,
                engine: str = "auto") -> VerificationReport:
    """Shifted-window majorization: the c-sum integral over |t - T0| <= T is
    at most 3x the a-sum integral over |t| <= T."""
    q = validate_order(q)
    lhs, meta_l = _raw_window_integral(coeffs, q, Window(center, half_width),
                                       config, engine)
    rhs_int, meta_r = _raw_window_integral(coeffs.dominating, q,
                                           Window(0.0, half_width), config, engine)
    return _two_sided("lemma", coeffs, lhs, 3.0 * rhs_int, meta_l, meta_r,
                      q=q, T=half_width, T0=center, rhs_engine=meta_r["engine"])


def check_eq45(coeffs: ComplexCoefficients, q: int, half_width: float,
               shift: float, config: QuadratureConfig = DEFAULT_CONFIG,
               engine: str = "auto") -> VerificationReport:
    """Kernel-weighted domination: shifted c-sum value <= centered a-sum value."""
    q = validate_order(q)
    lhs, meta_l = _raw_window_integral(coeffs, q, KernelParams(half_width, shift),
                                       config, engine)
    rhs, meta_r = _raw_window_integral(coeffs.dominating, q,
                                       KernelParams(half_width, 0.0), config, engine)
    return _two_sided("eq45", coeffs, lhs, rhs, meta_l, meta_r, q=q,
                      T=half_width, H=shift,
                      rational_mode=meta_l.get("rational_mode", False))


def _grid_sup(instance: Instance, lo: float, hi: float, points: int) -> float:
    """max |S| over np.linspace(lo, hi, points): a Grid of whole rows, then a tail."""
    _check_overflow(instance, 1)
    step = (hi - lo) / (points - 1)
    width = math.isqrt(points)
    rows = points // width
    grid = Grid(lo + step * width * np.arange(rows), step * np.arange(width))
    best = float(abs_on_array(instance, grid).max())
    tail = np.linspace(lo, hi, points)[rows * width:]
    if tail.size:
        best = max(best, float(abs_on_array(instance, tail).max()))
    return best


def _coefficient_average(instance: Instance, T: float) -> float:
    """max_n |(1/2T) integral_{-T}^{T} S(t) e^{-it phi_n} dt|.

    The integral is a_n + sum_{m != n} a_m sin(T d)/(T d), d = phi_m - phi_n.
    """
    phis = np.asarray(instance.frequencies)
    kern = np.sinc(np.subtract.outer(phis, phis) * (T / math.pi))
    return float(np.abs(kern @ np.asarray(instance.amplitudes)).max())


def _sup_grid_points(instance: Instance, length: float) -> int:
    span = max(instance.frequencies) - min(instance.frequencies)
    # ~50 samples per oscillation, clamped to keep desk-scale runtimes.
    want = int(50 * span * length / (2 * math.pi)) + 1
    return min(max(want, 20_001), 400_001)


def check_sup_chain(instance: Instance, half_widths,
                    config: QuadratureConfig = DEFAULT_CONFIG) -> VerificationReport:
    """max a_n <= limsup (1/2T) integral |S| dt <= sup |S|.

    Both sides are checked at every T supplied.  Left: the coefficient
    average max_n |(1/2T) integral S(t) e^{-it phi_n} dt|, which tends to
    max a_n, is at most (1/2T) integral |S| plus its quadrature error
    estimate.  Right: the average is at most the grid sup, itself a max of
    sampled values and so at most sup |S|.  The finite-T deficit against
    max a_n is reported, never assumed zero.
    """
    half_widths = sorted(float(t) for t in half_widths)
    if not half_widths:
        raise BadGapError("need at least one window half-width")
    if len(set(instance.frequencies)) != instance.size:
        raise BadGapError("sup-chain check needs distinct frequencies")
    sup_a = max(instance.amplitudes)
    largest = half_widths[-1]
    sup_s = _grid_sup(instance, -largest, largest,
                      _sup_grid_points(instance, 2 * largest))
    averages, errors, left_bounds = [], [], []
    passed = True
    for T in half_widths:
        res = windowed_abs_average(instance, Window(0.0, T), config)
        left = _coefficient_average(instance, T)
        averages.append(res.value)
        errors.append(res.error_estimate)
        left_bounds.append(left)
        passed = (passed and inequality_holds(left, res.value + res.error_estimate)
                  and inequality_holds(res.value, sup_s))
    meta = {"engine": "quadrature", "half_widths": half_widths,
            "averages": averages, "error_estimates": errors,
            "left_bounds": left_bounds, "grid_sup": sup_s,
            "finite_T_deviation": max(0.0, sup_a - averages[-1]),
            "left_side": "max_n |(1/2T) integral S(t) e^{-it phi_n} dt| "
                         "<= average + error_estimate at every T"}
    return VerificationReport("sup_chain", _summary(instance), sup_a, sup_s,
                              sup_s - sup_a, passed, meta)


def check_ingham_mordell(instance: Instance, gap: float,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> VerificationReport:
    """max |a_n| <= (1/T) integral_{-T}^{T} |S| dt at T = pi/gap (K = 1 form).

    Requires strictly increasing frequencies with consecutive gaps >= gap.
    """
    if instance.size < 2:
        raise BadGapError("need N >= 2")
    if gap <= 0:
        raise BadGapError("gap must be > 0")
    phis = instance.frequencies
    # allow roundoff parity: arithmetic progressions built in floating point
    # can fall short of the nominal gap by a few ulps
    slack = gap * (1.0 - 1e-12)
    for lo, hi in zip(phis, phis[1:]):
        if hi - lo < slack:
            raise BadGapError(f"consecutive gap {hi - lo!r} < stated gap {gap!r}")
    T = math.pi / gap
    avg = windowed_abs_average(instance, Window(0.0, T), config).value
    rhs = 2.0 * avg  # (1/T) integral = 2 * (1/2T) integral
    lhs = max(instance.amplitudes)
    meta = {"engine": "quadrature", "gap": gap, "T": T}
    return VerificationReport("ingham_mordell", _summary(instance), lhs, rhs,
                              rhs - lhs, inequality_holds(lhs, rhs), meta)


def check_bohr_bound(instance: Instance, index: int) -> VerificationReport:
    """Product-of-cosines coefficient bound for 0 < phi_1 < ... < phi_N.

    The source display starts the first product at j = 0 where phi_0 is
    undefined; this implementation reads it as j = 1..n-1 and records that
    reading in the report.
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
    product = 1.0
    for f in factors:
        if f <= 1e-12:
            raise DegenerateCosineError(f"cosine factor {f!r} too small")
        product *= f
    t_max = (math.pi / 2) * (n / phis[n - 1]
                             + math.fsum(1.0 / phis[j - 1]
                                         for j in range(n + 1, big_n + 1)))
    sup_s = _grid_sup(instance, -t_max, t_max,
                      _sup_grid_points(instance, 2 * t_max))
    lhs = instance.amplitudes[n - 1]
    rhs = sup_s / product
    meta = {"engine": "grid", "index": n, "cos_product": product,
            "t_max": t_max,
            "product_index_reading": "first product taken over j=1..n-1"}
    return VerificationReport("bohr", _summary(instance), lhs, rhs,
                              rhs - lhs, inequality_holds(lhs, rhs), meta)


# --------------------------------------------------------------------------
# Randomized campaigns (fixed seeds make CI failures reproducible).
# --------------------------------------------------------------------------

#: The checks with a seeded recipe, in the order ``verify all`` runs them.
CAMPAIGN_CHECKS = ("theorem1", "lemma", "eq45", "sup-chain", "ingham", "bohr")


def _instance(amps, phis) -> Instance:
    return Instance(tuple(map(float, amps)), tuple(map(float, phis)))


def random_instance(rng, max_n: int = 8, freq_range=(-10.0, 10.0)) -> Instance:
    n = int(rng.integers(1, max_n + 1))
    return _instance(rng.uniform(0.0, 1.0, n), rng.uniform(*freq_range, n))


def random_dominated(rng, instance: Instance) -> ComplexCoefficients:
    radii = rng.uniform(0.0, 1.0, size=instance.size)
    phases = rng.uniform(0.0, 2 * math.pi, size=instance.size)
    values = tuple(complex(a * r * math.cos(th), a * r * math.sin(th))
                   for a, r, th in zip(instance.amplitudes, radii, phases))
    return ComplexCoefficients(values, instance)


def campaign(check: str, count: int, seed: int,
             config: QuadratureConfig = DEFAULT_CONFIG, quick: bool = False):
    """Yield (source, report) for ``count`` seeded random cases of one check.

    Every case draws q first, then the instance, then the check's
    parameters.  The checks are looked up as module globals at each call,
    so a wrapper installed on ``verify.check_*`` sees every case.  With
    ``quick`` the sup chain stops at T = 100.
    """
    if check not in CAMPAIGN_CHECKS:
        raise ExpMomentError(f"no randomized campaign for {check!r}")
    rng = Generator(Philox(key=seed))
    for _ in range(count):
        q = int(rng.integers(1, 4))
        if check == "theorem1":
            source = random_instance(rng, max_n=8)
            T = float(rng.uniform(0.01, 100.0))
            report = check_theorem1(source, q, T, config)
        elif check == "lemma":
            source = random_dominated(rng, random_instance(rng, max_n=6))
            T = float(rng.uniform(0.1, 50.0))
            T0 = float(rng.uniform(-1e3, 1e3))
            report = check_lemma(source, q, T, T0, config)
        elif check == "eq45":
            n = int(rng.integers(1, 6))
            inst = _instance(rng.uniform(0, 1, n), rng.integers(-10, 11, n))
            source = random_dominated(rng, inst)
            T = float(rng.uniform(0.1, 50.0))
            H = float(rng.uniform(-100.0, 100.0))
            report = check_eq45(source, q, T, H, config)
        elif check == "sup-chain":
            source = random_instance(rng, max_n=4, freq_range=(-2.0, 2.0))
            half_widths = (10.0, 100.0) if quick else (10.0, 100.0, 1000.0)
            report = check_sup_chain(source, half_widths, config)
        elif check == "ingham":
            n = int(rng.integers(2, 6))
            gamma = float(rng.uniform(0.5, 2.0))
            gaps = rng.uniform(gamma, 2 * gamma, n - 1)
            phis = np.concatenate(([rng.uniform(-5, 5)], gaps)).cumsum()
            source = _instance(rng.uniform(0, 1, n), phis)
            report = check_ingham_mordell(source, gamma, config)
        else:
            n = int(rng.integers(1, 5))
            phis = np.cumprod(rng.uniform(2.0, 3.0, n)) * rng.uniform(0.5, 2.0)
            source = _instance(rng.uniform(0, 1, n), phis)
            report = check_bohr_bound(source, int(rng.integers(1, n + 1)))
        report.method["seed"] = seed
        yield source, report
