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
|S|^{2q} and summing the panels.

The kinked |S| of the L1 inequalities has no such M near the zeros of S,
so windowed_abs_average refines adaptively: each round halves only the
panels whose refinement difference |halves - panel| exceeds their length
share of the tolerance, and the error estimate, the sum of those
differences, is an estimate (error_kind "refinement_estimate").
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    ComplexCoefficients,
    Instance,
    MomentResult,
    NonFiniteError,
    NotConvergedError,
    Window,
    coefficient_values,
    validate_order,
)
from .evaluate import Grid, _check_overflow, abs_on_array, power_on_array
from .fejer import KernelParams, kernel_value

# Cap on points per evaluation call: a chunk of rows = _CHUNK / nodes panels
# holds rows * (N + nodes) complex values, which keeps peak memory bounded.
_CHUNK = 1 << 18

# Panel sizing searches these grids: rho, and y = Im z in units of
# 1 / (q * span).  Every rho > 1 gives a valid bound, so the grids decide
# only how close the panels come to the widest admissible ones.
_RHOS = np.exp(np.geomspace(0.02, 12.0, 96))
_YS = np.concatenate(([0.0], np.geomspace(1e-4, 1e3, 160)))


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    max_panels: ClassVar[int] = 2 ** 20
    gauss_order: ClassVar[int] = 16

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise NonFiniteError(f"rel_tol must be finite and > 0: {self.rel_tol!r}")


DEFAULT_CONFIG = QuadratureConfig()


def bandlimit(source: Instance | ComplexCoefficients, q: int) -> float:
    """Upper bound q*(max phi - min phi) on the frequency content of |S|^{2q}."""
    q = validate_order(q)
    phis = source.frequencies
    return q * (max(phis) - min(phis))


@functools.lru_cache(maxsize=None)
def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(QuadratureConfig.gauss_order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_sums(f, lo: float, width: float, idx: np.ndarray,
                nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums over the panels lo + [j, j+1] * width, j in idx."""
    mids = lo + (idx + 0.5) * width
    half = 0.5 * width
    rows = max(1, _CHUNK // nodes.size)
    return half * np.concatenate([f(Grid(mids[i:i + rows], half * nodes)) @ weights
                                  for i in range(0, mids.size, rows)])


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
                   weight, tol: float) -> float:
    """Panels per piece of half-width ``half`` whose summed bound is <= tol.

    For each rho, the widest ellipse height y whose log M(y) fits the budget
    left by the other factors is read off the chord of log M through the
    grid (ys, log_my).  log M is convex, so the chord lies above it and the
    y it gives is admissible; the weight is taken at h = half, where it is
    largest.  Returns inf when no grid point meets tol.
    """
    budget = math.log(tol) - _LOG_GAUSS_FACTOR - np.log(weight(half, _RHOS))
    heights = np.where(budget >= log_my[0], np.interp(budget, log_my, ys), 0.0)
    widest = float(np.max(2 * heights / (_RHOS - 1 / _RHOS)))
    return math.ceil(half / widest) if widest > 0 else math.inf


def _gauss_rule(f, source, q: int, lo: float, pieces: int, half: float,
                weight, mass: float, config: QuadratureConfig,
                norm: float = 1.0) -> tuple[float, float, dict]:
    """One level of equal Gauss panels over ``pieces`` adjacent pieces of
    width 2 * half from lo, each cut into the same number of panels.

    weight(h, rho) is the sum over the panels of h * max|kernel| on their
    ellipses, so the summed bound is (64/15) M rho^{-2n} / (rho^2 - 1) *
    weight, taken at the best rho of _RHOS.  The first sizing aims at the
    Theorem-1 floor mass * (sum |c|^2)^q / 3, which only sizes: the value
    passes when bound <= rel_tol * |value| + 1e-15 * scale, the criterion of
    _adaptive.  Otherwise (complex sources can cancel) it is re-sized from
    the computed value, and then from the absolute floor alone.
    Returns (integral / norm, bound / norm, metadata).
    """
    nodes, weights = gauss_legendre()
    mags = np.abs(np.asarray(coefficient_values(source), dtype=np.complex128))
    log_m = _log_envelope(mags, source.frequencies, q)
    ys = _YS / bandlimit(source, q)
    log_my = np.maximum.accumulate(log_m(ys))  # non-decreasing, for np.interp
    scale = float(np.sum(mags)) ** (2 * q) * mass
    target, points = mass * float(np.sum(mags ** 2)) ** q / 3, 0
    for attempt in range(3):
        tol = config.rel_tol * target + 1e-15 * scale
        per_piece = _panels_needed(ys, log_my, half, weight, tol)
        capped = per_piece * pieces > config.max_panels
        if capped:
            per_piece = max(1, config.max_panels // pieces)
        h = half / per_piece
        log_bounds = (_LOG_GAUSS_FACTOR + log_m(h * (_RHOS - 1 / _RHOS) / 2)
                      + np.log(weight(h, _RHOS)))
        best = int(np.argmin(log_bounds))
        bound = math.exp(log_bounds[best])
        idx = np.arange(pieces * per_piece)
        total = float(np.sum(_panel_sums(f, lo, 2 * h, idx, nodes, weights)))
        points += idx.size * nodes.size
        if bound <= config.rel_tol * abs(total) + 1e-15 * scale:
            return total / norm, bound / norm, {
                "panels": idx.size, "points": points, "rho": float(_RHOS[best]),
                "error_kind": "truncation_bound"}
        if capped:
            break
        target = max(abs(total) - bound, 0.0) / 2 if attempt == 0 else 0.0
    raise NotConvergedError(total / norm, bound / norm)


def _adaptive(f, lo: float, hi: float, band: float, config: QuadratureConfig,
              scale: float, norm: float = 1.0) -> tuple[float, float, int]:
    """Integrate f over [lo, hi], halving only the panels that have not
    converged.

    Each round evaluates the two halves of every active panel; e_i =
    |halves - panel| is that panel's error estimate, and the halves' sums are
    the next round's panel values, so no point is evaluated twice.  The
    estimate is sum(e_i) over frozen and active panels (>= |total - previous
    total|); it has converged when <= rel_tol * |total| + 1e-15 * scale.
    Otherwise the panels whose e_i is within their length share of that
    tolerance freeze and the rest are halved (all, if none exceeds its share).

    Returns (integral / norm, error_estimate / norm, final panel count).
    """
    nodes, weights = gauss_legendre()
    n = max(1, math.ceil((hi - lo) * band / math.pi))
    if n > config.max_panels:
        raise NotConvergedError(math.nan, math.inf)
    width = (hi - lo) / n
    active = np.arange(n)  # panel j covers lo + [j, j+1] * width
    coarse = _panel_sums(f, lo, width, active, nodes, weights)
    done, done_err, done_panels = [], [], 0  # frozen panels' sums, e_i, count
    total, err = float(np.sum(coarse)), math.inf
    while done_panels + 2 * active.size <= config.max_panels:
        width /= 2
        kids = (2 * active[:, None] + (0, 1)).ravel()
        pairs = _panel_sums(f, lo, width, kids, nodes, weights).reshape(-1, 2)
        errs = np.abs(pairs.sum(axis=1) - coarse)
        # Panel sums are >= 0 (non-negative integrands and Gauss weights), so
        # np.sum's pairwise order loses at most ~log2(panels) ulps.
        total = math.fsum(done + [np.sum(pairs)])
        err = math.fsum(done_err + [np.sum(errs)])
        tol = config.rel_tol * abs(total) + 1e-15 * scale
        if err <= tol:
            return total / norm, err / norm, done_panels + kids.size
        split = errs > tol * 2 * width / (hi - lo)
        if not split.any():
            split[:] = True
        done.append(np.sum(pairs[~split]))
        done_err.append(np.sum(errs[~split]))
        done_panels += 2 * int(np.count_nonzero(~split))
        active, coarse = kids.reshape(-1, 2)[split].ravel(), pairs[split].ravel()
    raise NotConvergedError(total / norm, err / norm)


def _constant_modulus(source) -> float | None:
    """|S|, when it is constant: all frequencies equal, or every c_n = 0."""
    if bandlimit(source, 1) == 0.0 or source.amplitude_sum() == 0.0:
        return abs(sum(np.asarray(coefficient_values(source), dtype=complex)))
    return None


_CONSTANT_META = {"panels": 0, "points": 0, "constant": True,
                  "error_kind": "truncation_bound"}


def windowed_average(source: Instance | ComplexCoefficients, q: int,
                     window: Window,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """(1/2T) * integral of |S(t)|^{2q} over |t - center| <= T."""
    q = validate_order(q)
    T = window.half_width
    _check_overflow(source, 2 * q, 2 * T)
    modulus = _constant_modulus(source)
    if modulus is not None:
        return MomentResult(float(modulus) ** (2 * q), 0.0, dict(_CONSTANT_META))
    # sum over the panels of h is T.
    value, bound, meta = _gauss_rule(lambda ts: power_on_array(source, ts, q),
                                     source, q, window.center - T, 1, T,
                                     lambda h, rho: T, 2 * T, config, 2 * T)
    return MomentResult(max(0.0, value), bound, meta)


def fejer_weighted_integral(source: Instance | ComplexCoefficients, q: int,
                            params: KernelParams,
                            config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """integral of K_T(t - H)|S(t)|^{2q} dt over the kernel support [H-T, H+T].

    The kernel breakpoint at t = H is a panel edge, so on each panel the
    kernel is the linear 1 -+ (z - H)/T, at most K(m) + a/T on an ellipse of
    semi-major axis a around the panel midpoint m.  Summed over the panels,
    h * K(m) gives T/2 (the midpoint rule is exact on linear functions) and
    h * a/T gives a.
    """
    q = validate_order(q)
    T, H = params.T, params.H
    _check_overflow(source, 2 * q, T)
    modulus = _constant_modulus(source)
    if modulus is not None:  # the kernel's area is T
        return MomentResult(float(modulus) ** (2 * q) * T, 0.0, dict(_CONSTANT_META))

    def f(ts: Grid) -> np.ndarray:
        return kernel_value(params, ts.points()) * power_on_array(source, ts, q)

    raw, bound, meta = _gauss_rule(f, source, q, H - T, 2, T / 2,
                                   lambda h, rho: T / 2 + h * (rho + 1 / rho) / 2,
                                   T, config)
    return MomentResult(max(0.0, raw), bound, meta)


def windowed_abs_average(source: Instance | ComplexCoefficients,
                         window: Window,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """(1/2T) * integral of |S(t)| over the window (the L1 inequalities).

    |S| has kinks at zeros of S, so convergence is algebraic there rather
    than geometric; only the panels next to them keep halving.
    """
    T = window.half_width
    _check_overflow(source, 1, 2 * T)
    modulus = _constant_modulus(source)
    if modulus is not None:
        return MomentResult(float(modulus), 0.0,
                            {"panels": 0, "constant": True,
                             "error_kind": "refinement_estimate"})
    scale = source.amplitude_sum() * (2 * T)
    value, err, panels = _adaptive(lambda ts: abs_on_array(source, ts),
                                   window.center - T, window.center + T,
                                   bandlimit(source, 1), config, scale, 2 * T)
    return MomentResult(max(0.0, value), err,
                        {"panels": panels, "error_kind": "refinement_estimate"})
