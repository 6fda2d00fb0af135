"""S(t) = sum_n c_n e^{it phi_n} at one point, and S, |S|, |S|^{2q} on arrays."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexCoefficients,
    Instance,
    NonFiniteError,
    OverflowRangeError,
    coefficient_values,
)


def eval_sum(source: Instance | ComplexCoefficients, t: float) -> complex:
    """S(t) with compensated per-component accumulation."""
    if not math.isfinite(t):
        raise NonFiniteError(f"non-finite t {t!r}")
    coeffs = coefficient_values(source)
    phis = source.frequencies
    re_parts = []
    im_parts = []
    for c, phi in zip(coeffs, phis):
        co = math.cos(t * phi)
        si = math.sin(t * phi)
        re_parts.append(c.real * co - c.imag * si)
        im_parts.append(c.real * si + c.imag * co)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def _check_overflow(source, power: int, mass: float = 1.0) -> None:
    """Raise OverflowRangeError when (sum |c_n|)^power * max(1, mass) > 1e300.

    That bounds |S|^power times the kernel's mass, so every engine's values and
    sums stay in the double range (callers may rescale: everything is
    homogeneous).  It is taken in the log domain, and a sum that itself
    leaves the double range is out of range.
    """
    try:
        total = source.amplitude_sum()
    except OverflowError:
        total = math.inf
    if total > 0 and (power * math.log(total) + math.log(max(1.0, mass))
                      > 300 * math.log(10)):
        raise OverflowRangeError(
            f"(sum |c_n|)^{power} * max(1, mass {mass!r}) exceeds 1e300; "
            "rescale the amplitudes")


# --------------------------------------------------------------------------
# Vectorized kernels for the integration engines (numpy, internal).
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """The points rows[i] + cols[j], laid out as a (rows, cols) array.

    Since e^{i(r+c)phi} = e^{ir phi} e^{ic phi}, S on a grid costs
    N*(rows + cols) exponentials and one matrix product.
    """
    rows: np.ndarray
    cols: np.ndarray

    @property
    def size(self) -> int:
        return self.rows.size * self.cols.size

    def points(self) -> np.ndarray:
        return np.add.outer(self.rows, self.cols)


def sum_on_array(source, ts: np.ndarray | Grid) -> np.ndarray:
    """S(t) on an array of points or on a Grid (shaped like its points())."""
    grid = ts if isinstance(ts, Grid) else Grid(np.ravel(ts), np.zeros(1))
    coeffs = np.asarray(coefficient_values(source), dtype=np.complex128)
    phis = np.asarray(source.frequencies, dtype=np.float64)
    left = np.exp(1j * np.multiply.outer(grid.rows, phis)) * coeffs
    s = left @ np.exp(1j * np.multiply.outer(phis, grid.cols))
    return s if isinstance(ts, Grid) else s.reshape(np.shape(ts))


def power_on_array(source, ts: np.ndarray | Grid, q: int) -> np.ndarray:
    """|S(t)|^{2q} on an array of points or on a Grid."""
    s = sum_on_array(source, ts)
    return (s.real * s.real + s.imag * s.imag) ** q


def abs_on_array(source, ts: np.ndarray | Grid) -> np.ndarray:
    """|S(t)| on an array of points or on a Grid (for the L1 inequalities)."""
    return np.abs(sum_on_array(source, ts))
