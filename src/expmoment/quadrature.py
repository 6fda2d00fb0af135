"""Composite Gauss-Legendre integration of |S(t)|^{2q}: plain windows,
shifted windows, and Fejer-weighted integrals.

|S|^{2q} is the real-line trace of the entire function
F(z) = (sum c_n e^{i phi_n z})^q (sum conj(c_n) e^{-i phi_n z})^q.  With
psi = phi - (max phi + min phi)/2 the phases of the two factors cancel, so
on |Im z| <= y

    |F(z)| <= M(y) = (sum |c_n| e^{-psi_n y})^q (sum |c_n| e^{psi_n y})^q.

An (n+1)-node Gauss rule on a panel of half-width h errs by at most
h (64/15) M(h(rho - 1/rho)/2) rho^{-2n} / (rho^2 - 1) for every rho > 1,
since the panel's Bernstein ellipse E_rho reaches h(rho - 1/rho)/2 off the
axis (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
Review 50 (2008), Theorem 4.5; the rule is exact to degree 2n + 1).  The
smooth rules size one level of equal panels so that this bound, summed
over the panels, meets the tolerance, evaluate it once, and report the
bound as the error estimate (error_kind "truncation_bound").  The bound
covers truncation only, not floating-point rounding in evaluating
|S|^{2q} and summing the panels.  S at a point t = coarse + fine + node is
the product of three rounded phase factors (see _panel_sums), which adds
rounding of the same order, eps * |t| * max|phi|, as one factor e^{it phi}.
"""
from __future__ import annotations

import functools
import math
from typing import ClassVar

import numpy as np

from .core import (
    ComplexCoefficients,
    Instance,
    KernelParams,
    MomentResult,
    NotConvergedError,
    Window,
    coefficient_values,
    validate_order,
)
from .evaluate import Grid, _check_overflow, _check_phase_range, _power, power_on_array

# Cap on points per evaluation call.  A chunk of R = _CHUNK / nodes panels,
# split into R1 = ceil(R / k) coarse rows of k = isqrt(R) panels each, holds
# about (R1 + nodes * k) * N + nodes * R1 * k complex values, not the
# R * (N + nodes) of one flat grid, which keeps peak memory bounded.
_CHUNK = 1 << 18

# Panel sizing searches these grids: rho, and y = Im z in units of
# 1 / (q * span).  Every rho > 1 gives a valid bound, so the grids decide
# only how close the panels come to the widest admissible ones.
_RHOS = np.exp(np.geomspace(0.02, 12.0, 96))
_YS = np.concatenate(([0.0], np.geomspace(1e-4, 1e3, 160)))
_LOG_MAX = math.log(np.finfo(np.float64).max)  # e^x is finite for x <= this


class QuadratureConfig:
    rel_tol: ClassVar[float] = 1e-9  # also the verdict's slack, verify.PASS_REL_SLACK
    max_panels: ClassVar[int] = 2 ** 20
    gauss_order: ClassVar[int] = 16


# benchmarks/layers.py reads DEFAULT_CONFIG.gauss_order when a call passes no config.
DEFAULT_CONFIG = QuadratureConfig()


def bandlimit(source: Instance | ComplexCoefficients, q: int) -> float:
    """Upper bound q*(max phi - min phi) on the frequency content of |S|^{2q}."""
    q = validate_order(q)
    phis = source.frequencies
    return q * (max(phis) - min(phis))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (x * cur - prev) / (x * x - 1)


@functools.lru_cache(maxsize=None)
def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, off-diagonal k / sqrt(4k^2 - 1) (Golub and Welsch, Math.
    Comp. 23 (1969)), refined by two Newton steps on P_n; the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Both are symmetrized about 0.
    """
    n = QuadratureConfig.gauss_order
    k = np.arange(1.0, n)
    off = np.diag(k / np.sqrt(4 * k * k - 1), 1)
    nodes = np.linalg.eigvalsh(off + off.T)
    for _ in range(2):
        p, dp = _legendre(n, nodes)
        nodes = nodes - p / dp
    dp = _legendre(n, nodes)[1]
    weights = 2 / ((1 - nodes * nodes) * dp * dp)
    nodes, weights = (nodes - nodes[::-1]) / 2, (weights + weights[::-1]) / 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_sums(f, lo: float, width: float, panels: int,
                nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums over the panels lo + [j, j+1] * width, j < panels.

    A chunk of R panels from j0 is split as j = j0 + k*r1 + r2, k = isqrt(R),
    and f is evaluated on Grid(coarse, Grid(fine, half * nodes)) with the
    midpoints coarse[r1] + fine[r2]: N * (R/k + k + nodes) exponentials, not
    N * (R + nodes).  The at most k - 1 panels past the chunk's R are
    evaluated and dropped before the weights apply, so no point outside the
    window enters the sum.
    """
    half = 0.5 * width
    rows = max(1, _CHUNK // nodes.size)
    sums = []
    for start in range(0, panels, rows):
        count = min(rows, panels - start)
        k = math.isqrt(count)
        coarse = lo + (start + k * np.arange(-(-count // k)) + 0.5) * width
        grid = Grid(coarse, Grid(width * np.arange(k), half * nodes))
        sums.append(f(grid).reshape(-1, nodes.size)[:count] @ weights)
    return half * np.concatenate(sums)


def _log_envelope(mags: np.ndarray, frequencies, q: int):
    """y -> log M(y) elementwise on y >= 0, by max-shifted exp sums."""
    phis = np.asarray(frequencies, dtype=np.float64)
    keep = mags > 0
    log_c = np.log(mags[keep])
    psi = phis[keep] - (phis.max() + phis.min()) / 2

    def log_sum_exp(e: np.ndarray) -> np.ndarray:
        top = e.max(axis=-1)
        return top + np.log(np.sum(np.exp(e - top[..., None]), axis=-1))

    def log_m(y: np.ndarray) -> np.ndarray:
        shift = np.multiply.outer(y, psi)
        return q * (log_sum_exp(log_c - shift) + log_sum_exp(log_c + shift))
    return log_m


# log of (64/15) rho^{-2n} / (rho^2 - 1) at every rho of _RHOS.  Trefethen's
# n counts n + 1 nodes, so n = gauss_order - 1.
_LOG_GAUSS_FACTOR = (math.log(64 / 15) - 2 * (QuadratureConfig.gauss_order - 1)
                     * np.log(_RHOS) - np.log(_RHOS ** 2 - 1))


def _panels_needed(ys: np.ndarray, log_my: np.ndarray, half: float,
                   weight, log_tol: float) -> float:
    """Panels per piece of half-width ``half`` whose summed bound is <= e^log_tol.

    For each rho, the widest ellipse height y whose log M(y) fits the budget
    left by the other factors is read off the chord of log M through the
    grid (ys, log_my).  log M is convex, so the chord lies above it and the
    y it gives is admissible; the weight is taken at h = half, where it is
    largest.  Returns inf when no grid point meets the tolerance, and at
    least 1 when half / widest underflows.
    """
    budget = log_tol - _LOG_GAUSS_FACTOR - np.log(weight(half, _RHOS))
    heights = np.where(budget >= log_my[0], np.interp(budget, log_my, ys), 0.0)
    widest = float(np.max(2 * heights / (_RHOS - 1 / _RHOS)))
    return max(1, math.ceil(half / widest)) if widest > 0 else math.inf


def _gauss_rule(f, source, q: int, lo: float, pieces: int, half: float,
                weight, mass: float, norm: float = 1.0) -> tuple[float, float, dict]:
    """One level of equal Gauss panels over ``pieces`` adjacent pieces of
    width 2 * half from lo, each cut into the same number of panels.

    weight(h, rho) is the sum over the panels of h * max|kernel| on their
    ellipses, so the summed bound is (64/15) M rho^{-2n} / (rho^2 - 1) *
    weight, taken at the best rho of _RHOS.  The first sizing aims at the
    Theorem-1 floor mass * (sum |c|^2)^q / 3, which only sizes: the value
    passes when bound <= rel_tol * |value| + 1e-15 * scale.  Otherwise
    (complex sources can cancel) it is re-sized from the computed value,
    and then from the absolute floor alone.  Tolerances are taken in logs,
    as shares of scale = (sum |c|)^{2q} * mass, which underflows for tiny
    amplitudes.  As |value| <= scale, a capped bound past (rel_tol + 1e-15)
    * scale cannot pass and is refused before evaluating, with value nan; a
    bound past the double range is reported as inf.  A constant |S| is
    exact with no panels: |S|^{2q} * mass, bound 0.  Amplitudes and phases
    out of range are refused first, for the reach max(|lo|, |lo + 2 pieces
    half|) of the pieces and the kernel's mass.
    Returns (integral / norm, bound / norm, metadata).
    """
    _check_overflow(source, 2 * q, mass)
    _check_phase_range(source.frequencies, q, max(abs(lo), abs(lo + 2 * pieces * half)))
    if _constant_modulus(source):  # |S| = |sum c_n|
        modulus = float(abs(sum(np.asarray(coefficient_values(source), dtype=complex))))
        return _power(modulus * modulus, q) * (mass / norm), 0.0, {
            "panels": 0, "points": 0, "constant": True, "error_kind": "truncation_bound"}
    nodes, weights = gauss_legendre()
    mags = np.abs(np.asarray(coefficient_values(source), dtype=np.complex128))
    log_m = _log_envelope(mags, source.frequencies, q)
    # Any grid of heights is admissible; 1e3 / B overflows for B below 1e-300.
    ys = _YS / max(bandlimit(source, q), 1e-300)
    log_my = np.maximum.accumulate(log_m(ys))  # non-decreasing, for np.interp
    unit = float(np.sum(mags))  # > 0: an all-zero source has constant modulus
    scale = unit ** (2 * q) * mass
    log_scale = 2 * q * math.log(unit) + math.log(mass)
    share, points = float(np.sum((mags / unit) ** 2)) ** q / 3, 0  # target / scale
    for attempt in range(3):
        log_tol = log_scale + math.log(QuadratureConfig.rel_tol * share + 1e-15)
        per_piece = _panels_needed(ys, log_my, half, weight, log_tol)
        capped = per_piece * pieces > QuadratureConfig.max_panels
        if capped:
            per_piece = max(1, QuadratureConfig.max_panels // pieces)
        h = half / per_piece
        log_bounds = (_LOG_GAUSS_FACTOR + log_m(h * (_RHOS - 1 / _RHOS) / 2)
                      + np.log(weight(h, _RHOS)))
        best = int(np.argmin(log_bounds))
        log_bound = float(log_bounds[best])
        bound = math.exp(log_bound) if log_bound <= _LOG_MAX else math.inf
        if capped and log_bound > log_scale + math.log(QuadratureConfig.rel_tol + 1e-15):
            raise NotConvergedError(math.nan, bound / norm)
        panels = pieces * per_piece
        total = float(np.sum(_panel_sums(f, lo, 2 * h, panels, nodes, weights)))
        points += panels * nodes.size
        if bound <= QuadratureConfig.rel_tol * abs(total) + 1e-15 * scale:
            return total / norm, bound / norm, {
                "panels": panels, "points": points, "rho": float(_RHOS[best]),
                "error_kind": "truncation_bound"}
        if capped:
            break
        # scale > 0 here: below the double range, bound underflows to 0 and passes.
        share = max(abs(total) - bound, 0.0) / (2 * scale) if attempt == 0 else 0.0
    raise NotConvergedError(total / norm, bound / norm)


def _constant_modulus(source) -> bool:
    """Whether |S| is constant: all frequencies equal, or every c_n = 0."""
    return bandlimit(source, 1) == 0.0 or not any(coefficient_values(source))


def windowed_average(source: Instance | ComplexCoefficients, q: int,
                     window: Window) -> MomentResult:
    """(1/2T) * integral of |S(t)|^{2q} over |t - center| <= T."""
    q = validate_order(q)
    T = window.half_width
    # sum over the panels of h is T.
    value, bound, meta = _gauss_rule(lambda ts: power_on_array(source, ts, q),
                                     source, q, window.center - T, 1, T,
                                     lambda h, rho: T, 2 * T, 2 * T)
    return MomentResult(value, bound, meta)


def kernel_value(params: KernelParams, t):
    """K_T(t - H) = max(0, 1 - |t - H|/T), elementwise on arrays."""
    return np.maximum(0.0, 1.0 - np.abs(t - params.H) / params.T)


def fejer_weighted_integral(source: Instance | ComplexCoefficients, q: int,
                            params: KernelParams) -> MomentResult:
    """integral of K_T(t - H)|S(t)|^{2q} dt over the kernel support [H-T, H+T].

    The kernel breakpoint at t = H is a panel edge, so on each panel the
    kernel is the linear 1 -+ (z - H)/T, at most K(m) + a/T on an ellipse of
    semi-major axis a around the panel midpoint m.  Summed over the panels,
    h * K(m) gives T/2 (the midpoint rule is exact on linear functions) and
    h * a/T gives a.
    """
    q = validate_order(q)
    T, H = params.T, params.H

    def f(ts: Grid) -> np.ndarray:
        return kernel_value(params, ts.points()) * power_on_array(source, ts, q)

    raw, bound, meta = _gauss_rule(f, source, q, H - T, 2, T / 2,
                                   lambda h, rho: T / 2 + h * (rho + 1 / rho) / 2,
                                   T)
    return MomentResult(raw, bound, meta)

