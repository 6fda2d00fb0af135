"""Composite Gauss-Legendre integration of |S(t)|^{2q}: plain windows,
shifted windows, and Fejer-weighted integrals.

The integrand is entire and bandlimited by B = q * (max phi - min phi), so
uniform panels of width <= pi/B with a fixed-order rule converge
geometrically under panel doubling.  The error estimate is the difference
between the last two refinements and is always reported.
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
        if self.rel_tol <= 0:
            raise NonFiniteError("rel_tol must be > 0")
        if self.gauss_order < 2:
            raise NonFiniteError("gauss_order must be >= 2")
        if self.max_panels < 1:
            raise NonFiniteError("max_panels must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


def bandlimit(source: Instance | ComplexCoefficients, q: int) -> float:
    """Upper bound q*(max phi - min phi) on the frequency content of |S|^{2q}."""
    validate_order(q)
    phis = source.frequencies
    return q * (max(phis) - min(phis))


def _segment_integral(f, lo: float, hi: float, n_panels: int,
                      nodes: np.ndarray, weights: np.ndarray) -> float:
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (hi - lo) / n_panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    rows_per_chunk = max(1, _CHUNK // nodes.size)
    # Every panel sum is >= 0 (non-negative integrands and Gauss weights),
    # so np.sum's pairwise order loses at most ~log2(panels) ulps.
    chunk_sums = []
    for start in range(0, n_panels, rows_per_chunk):
        grid = Grid(mids[start:start + rows_per_chunk], half * nodes)
        chunk_sums.append(float(np.sum(f(grid) @ weights)))
    return half * math.fsum(chunk_sums)


def _adaptive(f, segments, band: float, config: QuadratureConfig,
              scale: float) -> tuple[float, float, int]:
    """Integrate f over the segments, doubling panels until converged.

    Returns (integral, error_estimate, total_panels).
    """
    nodes, weights = np.polynomial.legendre.leggauss(config.gauss_order)
    base = [max(1, math.ceil((hi - lo) * band / math.pi))
            for lo, hi in segments]
    mult = 1
    prev = None
    err = math.inf
    while sum(base) * mult <= config.max_panels:
        total = math.fsum(
            _segment_integral(f, lo, hi, n * mult, nodes, weights)
            for (lo, hi), n in zip(segments, base))
        if prev is not None:
            err = abs(total - prev)
            if err <= config.rel_tol * abs(total) + 1e-15 * scale:
                return total, err, sum(base) * mult
        prev = total
        mult *= 2
    raise NotConvergedError(prev if prev is not None else math.nan, err)


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
    lo, hi = window.center - T, window.center + T
    scale = source.amplitude_sum() ** (2 * q) * (2 * T)
    raw, err, panels = _adaptive(lambda ts: power_on_array(source, ts, q),
                                 [(lo, hi)], band, config, scale)
    return MomentResult(max(0.0, raw) / (2 * T), "quadrature", err / (2 * T),
                        {"panels": panels})


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
    raw, err, panels = _adaptive(f, [(H - T, H), (H, H + T)], band, config, scale)
    return MomentResult(max(0.0, raw), "quadrature", err, {"panels": panels})


def windowed_abs_average(source: Instance | ComplexCoefficients,
                         window: Window,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> MomentResult:
    """(1/2T) * integral of |S(t)| over the window (the L1 inequalities).

    |S| has kinks at zeros of S, so convergence is algebraic there rather
    than geometric; the refinement loop handles both.
    """
    T = window.half_width
    phis = source.frequencies
    band = max(phis) - min(phis)
    if band == 0.0:
        val = abs(sum(np.asarray(coefficient_values(source), dtype=complex)))
        return MomentResult(float(val), "quadrature", 0.0,
                            {"panels": 0, "constant": True})
    lo, hi = window.center - T, window.center + T
    scale = source.amplitude_sum() * (2 * T)
    raw, err, panels = _adaptive(lambda ts: abs_on_array(source, ts),
                                 [(lo, hi)], band, config, scale)
    return MomentResult(max(0.0, raw) / (2 * T), "quadrature", err / (2 * T),
                        {"panels": panels})
