"""Composite Gauss-Legendre integration of |S(t)|^{2q}: plain windows,
shifted windows, and Fejer-weighted integrals.

The integrand is entire and bandlimited by B = q * (max phi - min phi), so
base panels of width <= pi/B with a fixed-order rule converge geometrically
under halving.  Each round halves only the panels whose refinement
difference |halves - panel| exceeds their length share of the tolerance;
the error estimate, always reported, is the sum of those differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    max_panels: int = 2 ** 20
    gauss_order: int = 16

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise NonFiniteError(f"rel_tol must be finite and > 0: {self.rel_tol!r}")
        for name, low in (("gauss_order", 2), ("max_panels", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise NonFiniteError(f"{name} must be an integer >= {low}: {value!r}")


DEFAULT_CONFIG = QuadratureConfig()


def bandlimit(source: Instance | ComplexCoefficients, q: int) -> float:
    """Upper bound q*(max phi - min phi) on the frequency content of |S|^{2q}."""
    validate_order(q)
    phis = source.frequencies
    return q * (max(phis) - min(phis))


def _panel_sums(f, lo: float, width: float, idx: np.ndarray,
                nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums over the panels lo + [j, j+1] * width, j in idx."""
    mids = lo + (idx + 0.5) * width
    half = 0.5 * width
    rows = max(1, _CHUNK // nodes.size)
    return half * np.concatenate([f(Grid(mids[i:i + rows], half * nodes)) @ weights
                                  for i in range(0, mids.size, rows)])


def _adaptive(f, lo: float, hi: float, pieces: int, band: float,
              config: QuadratureConfig, scale: float,
              norm: float = 1.0) -> tuple[float, float, int]:
    """Integrate f over [lo, hi], cut into ``pieces`` equal segments whose
    edges stay panel edges, halving only the panels that have not converged.

    Each round evaluates the two halves of every active panel; e_i =
    |halves - panel| is that panel's error estimate, and the halves' sums are
    the next round's panel values, so no point is evaluated twice.  The
    estimate is sum(e_i) over frozen and active panels (>= |total - previous
    total|); it has converged when <= rel_tol * |total| + 1e-15 * scale.
    Otherwise the panels whose e_i is within their length share of that
    tolerance freeze and the rest are halved (all, if none exceeds its share).

    Returns (integral / norm, error_estimate / norm, final panel count).
    """
    nodes, weights = np.polynomial.legendre.leggauss(config.gauss_order)
    n = pieces * max(1, math.ceil((hi - lo) / pieces * band / math.pi))
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


def windowed_average(source: Instance | ComplexCoefficients, q: int,
                     window: Window,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """(1/2T) * integral of |S(t)|^{2q} over |t - center| <= T."""
    validate_order(q)
    _check_overflow(source, q)
    T = window.half_width
    band = bandlimit(source, q)
    if band == 0.0:
        # All frequencies equal: |S| is constant.
        val = abs(sum(np.asarray(coefficient_values(source), dtype=complex))) ** (2 * q)
        return MomentResult(float(val), "quadrature", 0.0,
                            {"panels": 0, "constant": True})
    scale = source.amplitude_sum() ** (2 * q) * (2 * T)
    value, err, panels = _adaptive(lambda ts: power_on_array(source, ts, q),
                                   window.center - T, window.center + T, 1,
                                   band, config, scale, 2 * T)
    return MomentResult(max(0.0, value), "quadrature", err, {"panels": panels})


def fejer_weighted_integral(source: Instance | ComplexCoefficients, q: int,
                            params: KernelParams,
                            config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """integral of K_T(t - H)|S(t)|^{2q} dt over the kernel support [H-T, H+T].

    The kernel breakpoint at t = H splits the domain so each panel sees a
    smooth integrand.
    """
    validate_order(q)
    _check_overflow(source, q)
    T, H = params.T, params.H
    band = max(bandlimit(source, q), 1.0 / T)  # kernel varies on scale T

    def f(ts: Grid) -> np.ndarray:
        return kernel_value(params, ts.points()) * power_on_array(source, ts, q)

    scale = source.amplitude_sum() ** (2 * q) * T
    raw, err, panels = _adaptive(f, H - T, H + T, 2, band, config, scale)
    return MomentResult(max(0.0, raw), "quadrature", err, {"panels": panels})


def windowed_abs_average(source: Instance | ComplexCoefficients,
                         window: Window,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """(1/2T) * integral of |S(t)| over the window (the L1 inequalities).

    |S| has kinks at zeros of S, so convergence is algebraic there rather
    than geometric; only the panels next to them keep halving.
    """
    T = window.half_width
    phis = source.frequencies
    band = max(phis) - min(phis)
    if band == 0.0:
        val = abs(sum(np.asarray(coefficient_values(source), dtype=complex)))
        return MomentResult(float(val), "quadrature", 0.0,
                            {"panels": 0, "constant": True})
    scale = source.amplitude_sum() * (2 * T)
    value, err, panels = _adaptive(lambda ts: abs_on_array(source, ts),
                                   window.center - T, window.center + T, 1,
                                   band, config, scale, 2 * T)
    return MomentResult(max(0.0, value), "quadrature", err, {"panels": panels})
